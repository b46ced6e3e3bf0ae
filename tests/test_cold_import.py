"""A cold CLI process loads scipy and networkx only for the commands that use them.

The default ``generate`` / ``solve`` / ``solve --dist`` path runs on numpy
alone; the exact LP (``solve --with-optimum``, ``sweep``), graph views and
GraphML I/O import their package where they call it.  The pytest process
has long since imported both packages, so every check runs in a fresh
interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PRELUDE = r"""
import contextlib, io, json, sys

HEAVY = ("scipy.optimize", "scipy.sparse", "networkx")
report = {}

def loaded():
    return sorted(m for m in HEAVY if m in sys.modules)

from repro.cli import main
report["import"] = loaded()

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    assert status == 0, (argv, status)

run(["generate", "random", "small.json", "--size", "30", "--seed", "1"])
"""

STAGES = {
    "default": r"""
run(["generate", "special-form", "sf.json", "--size", "30", "--seed", "2"])
run(["solve", "small.json", "-R", "3", "--output", "sol.json"])
run(["solve", "sf.json", "--dist", "-R", "3"])
report["before"] = loaded()
run(["solve", "small.json", "-R", "3", "--with-optimum"])
report["after"] = loaded()
""",
    "sweep": r"""
report["before"] = loaded()
run(["sweep", "cycle", "--sizes", "6", "--r-values", "2", "--no-safe"])
report["after"] = loaded()
""",
    "graph": r"""
from repro.io import load_graphml, load_instance, save_graphml
instance = load_instance("small.json")
report["before"] = loaded()
assert instance.communication_graph().number_of_nodes() == instance.num_nodes
assert instance.is_connected() in (True, False)
save_graphml(instance, "small.graphml")
assert load_graphml("small.graphml").num_agents == instance.num_agents
report["after"] = loaded()
""",
}

#: What each stage must have loaded once it ran.
EXPECTED_AFTER = {
    "default": ["scipy.optimize", "scipy.sparse"],
    "sweep": ["scipy.optimize", "scipy.sparse"],
    "graph": ["networkx"],
}


def _run_stage(stage: str, cwd: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    script = PRELUDE + STAGES[stage] + "print(json.dumps(report))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_heavy_packages_load_on_demand(stage, tmp_path):
    report = _run_stage(stage, tmp_path)
    # Import, generate and (for "default") solve, solve --output and
    # solve --dist: numpy only.
    assert report["import"] == []
    assert report["before"] == []
    assert report["after"] == EXPECTED_AFTER[stage]
