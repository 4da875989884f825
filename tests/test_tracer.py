"""The benchmark's tracer, ``perfbench/traced_cli.py``, run on one command of each kind.

The tracer wraps getk's functions from outside, so a change to ``src/`` can break it
without any other test noticing.  Each command must exit 0, print what the untraced
command prints, and leave a spans file with a span of ``cli.main``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from getk.boxes import canonical_entangled_vertex
from test_import_graph import SRC

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
COMMANDS = {
    "purity": ["purity", "--state", "ghz:3", "--algebra", "omega3", "--rescale", "auto"],
    "classify": ["classify", "--state", "spin:3,3", "--algebra", "su2-spin:3"],
    "vertices": ["boxes", "vertices", "--size", "2,2"],
    "box-classify": ["boxes", "classify", "--state", "pr.json"],
    "separable": ["boxes", "separable", "--state", "pr.json"],
    "orbit": ["boxes", "orbit", "--state", "pr.json"],
    "reproduce": ["reproduce", "--table", "paper"],
}


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_traced_command_prints_what_the_command_prints(argv, tmp_path):
    (tmp_path / "pr.json").write_text(json.dumps(canonical_entangled_vertex().to_json_dict()))
    traced = _run([str(TRACER), "spans.json", *argv], tmp_path)
    plain = _run(["-m", "getk.cli", *argv], tmp_path)
    assert traced.returncode == plain.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    record = json.loads((tmp_path / "spans.json").read_text())
    assert "cli.main" in {record["layers"][span[0]] for span in record["spans"]}
