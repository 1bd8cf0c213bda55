"""The traced benchmark mode rebinds kacbath functions by name, so a
rename or removal in kacbath must fail here as well as in a traced run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracing_installs_on_the_current_package():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "."]))
    done = subprocess.run(
        [sys.executable, "-c", "import perfbench.tracing as t; t.install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
