"""The README's Python examples run, and the package exports what they import."""

import ast
import re
from pathlib import Path

import pytest

import kacbath

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_package_exports_exactly_the_readme_imports():
    imported = {alias.name
                for block in BLOCKS
                for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "kacbath"
                for alias in node.names}
    assert len(BLOCKS) == 2
    assert set(kacbath.__all__) == imported
    assert len(kacbath.__all__) == 11


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    # the quick start asserts bound >= distance at every time itself
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
