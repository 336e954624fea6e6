"""What a process loads: numpy only once a command builds a semigroup table.

The suite itself imports numpy (conftest, oracles), so every case runs
in a fresh interpreter that imports nothing but clusterseeds.
"""

import json
import os
import subprocess
import sys

import pytest

import clusterseeds
from clusterseeds import cli, make_surface
from clusterseeds.fileio import surface_to_dict
from conftest import a2_seed
from oracles import dump_seed

SRC = os.path.dirname(os.path.dirname(clusterseeds.__file__))

# argv of cli.main; prints [exit code, numpy loaded]
RUN_MAIN = """
import json, sys
from clusterseeds import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, "numpy" in sys.modules]))
"""

TABLE_FREE = {
    "validate": ["validate", "SEED"],
    "mutate": ["mutate", "SEED", "0", "1"],
    "clusters": ["clusters", "SEED", "--depth", "3"],
    "hom-check": ["hom-check", "SEED", "HOM"],
    "compose": ["compose", "SEED", "HOM", "HOM"],
    "surface-seed": ["surface-seed", "SURFACE"],
    "cut": ["cut", "SURFACE", "d0_2"],
    "paunch": ["paunch", "SURFACE", "--i0", "d0_2"],
    "check-sur": ["check-sur", "SURFACE", "--all"],
    "surface-iso": ["surface-iso", "SURFACE", "SURFACE"],
}


def fresh(*args) -> str:
    """Stdout of `python -c args[0] args[1:]` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    dump_seed(a2_seed(), str(root / "a2.json"))
    pentagon = make_surface(5, [(0, 2), (0, 3)], laminations=[[(1, 3)]])
    (root / "pentagon.json").write_text(json.dumps(surface_to_dict(pentagon)))
    (root / "hom.json").write_text(
        json.dumps({"I0": [], "I1": ["x2"], "map": {"x1": "x1"}})
    )
    return {
        "SEED": str(root / "a2.json"),
        "SURFACE": str(root / "pentagon.json"),
        "HOM": str(root / "hom.json"),
    }


def fresh_and_in_process(tmp_path, files, argv) -> tuple[bool, int]:
    """Run the command both ways with machine output to a file; the two
    reports must be byte-identical.  Returns (numpy loaded in the fresh
    process, exit code)."""
    argv = [files.get(a, a) for a in argv]
    here, there = tmp_path / "in_process.json", tmp_path / "fresh.json"
    code = cli.main(["--format", "machine", "--out", str(here), *argv])
    fresh_code, numpy_loaded = json.loads(
        fresh(RUN_MAIN, "--format", "machine", "--out", str(there), *argv)
    )
    assert fresh_code == code
    assert there.read_bytes() == here.read_bytes()
    return numpy_loaded, code


def test_importing_the_library_does_not_load_numpy():
    out = fresh(
        "import sys, clusterseeds, clusterseeds.cli, clusterseeds.semigroup, "
        "clusterseeds.classify; print('numpy' in sys.modules)"
    )
    assert out == "False\n"


@pytest.mark.parametrize("argv", TABLE_FREE.values(), ids=TABLE_FREE.keys())
def test_table_free_commands_do_not_load_numpy(tmp_path, files, argv):
    assert fresh_and_in_process(tmp_path, files, argv) == (False, 0)


@pytest.mark.parametrize("command", ["green", "classify"])
def test_table_commands_load_numpy_on_first_use(tmp_path, files, command):
    assert fresh_and_in_process(tmp_path, files, [command, "SEED"]) == (True, 0)
