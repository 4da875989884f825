import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("module", ["getk", "getk.boxes"])
def test_import_leaves_numpy_out(module):
    # the box side is pure Fraction code, and the package exports nothing
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = f"import sys, {module}; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
