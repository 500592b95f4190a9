"""Each command imports only what it runs, checked in a fresh interpreter.

``spectrum`` and ``sweep`` are plain float arithmetic and load neither NumPy
nor SciPy; ``wavefunction`` needs NumPy but not the SciPy oracle; a bare
``import kgpho`` loads neither.
"""

import json
import os
import subprocess
import sys

import pytest

_CHILD = """
import json, os, sys
argv = json.loads(sys.argv[1])
if argv:
    import kgpho.cli
    assert kgpho.cli.main(argv + ["--out", os.devnull]) == 0
else:
    import kgpho
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(argv):
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {name.split(".")[0] for name in json.loads(proc.stdout)}


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["spectrum", "--n", "0..2", "--m", "0..2", "--b", "0.5"],
        ["sweep", "--vary", "b", "--start", "0", "--stop", "2", "--steps", "5"],
    ],
    ids=["import", "spectrum", "sweep"],
)
def test_solve_path_loads_no_numpy_or_scipy(argv):
    assert not _modules_after(argv) & {"numpy", "scipy"}


def test_wavefunction_loads_numpy_but_no_scipy():
    loaded = _modules_after(["wavefunction", "--n", "1", "--m", "1", "--samples", "50"])
    assert "numpy" in loaded  # the check sees what a command loads
    assert "scipy" not in loaded
