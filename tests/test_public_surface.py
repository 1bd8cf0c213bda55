"""No public name exists only for tests: every name in the `__all__` of a
kacbath module has a use in the package, the benchmark harness, the
README's code blocks or the CI workflow."""

import ast
import re
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kacbath"


def _python_uses(path: Path) -> set[str]:
    """The identifiers a Python file uses: the names it reads, the
    attributes it reads or sets, and the words of its string literals (the
    benchmark's tracer names functions by string). Imports, definitions,
    docstrings and the `__all__` list are not uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skip.add(id(node.value))  # a docstring
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skip.update(id(n) for n in ast.walk(node))
    words = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"\w+", node.value))
    return words


def _text_uses(text: str) -> set[str]:
    return set(re.findall(r"\w+", text))


def _public(path: Path) -> list[str]:
    """The module's `__all__`, or no names if it has none."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@cache
def _uses() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\w*\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    files = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return set().union(*map(_python_uses, files), *map(_text_uses, [*blocks, workflow]))


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if _public(path))


def test_the_scan_reads_every_module_with_a_public_list():
    assert {"__init__", "hermite", "sector", "spectral"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_use_outside_the_tests(module):
    uses = _uses()
    assert [name for name in _public(PACKAGE / f"{module}.py") if name not in uses] == []


def test_a_name_only_defined_documented_and_listed_is_unused(tmp_path):
    # the definition, its docstring and its __all__ entry are no uses; a
    # read of the name elsewhere is
    path = tmp_path / "planted.py"
    path.write_text('__all__ = ["planted", "used"]\n\n\n'
                    'def planted():\n    """planted does nothing."""\n\n\n'
                    'def used():\n    return 0\n\n\n'
                    'VALUE = used()\n')
    assert _public(path) == ["planted", "used"]
    uses = _python_uses(path)
    assert "used" in uses and "planted" not in uses
