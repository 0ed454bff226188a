"""bredonkit runs without numpy.

A child interpreter blocks the numpy import before it imports bredonkit,
then drives the CLI and the Euler-step API; every exit code and payload
must equal the ones this process gets, where numpy may be loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

import bredonkit
from bredonkit.cyclic_reps import CyclicGroup, irrep
from bredonkit.gcw_complex import save_gcw, sphere_of_rep

TESTS = pathlib.Path(__file__).resolve().parent
SRC = pathlib.Path(bredonkit.__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.modules["numpy"] = None        # from here on, import numpy raises
import test_no_numpy
out = test_no_numpy.drive(json.loads(sys.argv[1]))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
print(json.dumps({"out": out, "numpy": loaded}))
"""


def drive(argvs):
    """[exit code, payload with its timestamp blanked] per argv, then the
    vectors of the a-chain of the unit class on periodic_free_model(5, 9)."""
    import contextlib
    import io
    import re

    from bredonkit import module_action, periodic_free_model, unit_class
    from bredonkit.cli import main
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out.append([code, re.sub(r'("timestamp": )"[^"]*"', r'\1""',
                                 buf.getvalue())])
    x = periodic_free_model(5, 9)
    c = unit_class(x)
    chain = [list(c.vector)]
    while not c.is_zero():
        c = module_action(x, "a", c)
        chain.append(list(c.vector))
    out.append(chain)
    return out


def test_cli_and_euler_step_run_without_numpy(tmp_path):
    xi = irrep(CyclicGroup(5), 1)
    path = tmp_path / "s2xi_c5.gcw"
    path.write_text(save_gcw(sphere_of_rep(xi + xi)))
    argvs = [
        ["point", "--p", "3", "--m-range", "-4:4", "--n-range", "-2:2"],
        ["space", str(path), "--grading=2-1*xi"],
        ["space", str(path), "--grading=1+1*xi"],
        ["euler", "--n", "6", "--rep", "xi"],
        ["obstruct", "--p", "3", "--d", "3"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                           capture_output=True, text=True, env=env, timeout=300)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    assert got["numpy"] == ["numpy"]           # only the blocking entry
    want = drive(argvs)
    assert [code for code, _ in want[:-1]] == [0] * len(argvs)
    assert got["out"] == want
    assert len(want[-1]) > 2 and not any(want[-1][-1])
