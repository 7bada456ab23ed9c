"""Import guard: no scipy module loads at run time.

The static solver and the profile spline are NumPy code, so importing the
package, solving, lifting and every command that solves or lifts a profile
must leave ``sys.modules`` free of scipy: importing it costs a fresh process
most of its start-up time.  The check runs in a subprocess, because the test
process itself has loaded scipy long ago.  The script ends by importing
``scipy.integrate`` itself, and the tracker must see it, so the guard cannot
pass by tracking nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rotelast

SCRIPT = r"""
import contextlib, io, json, os, sys
loaded = lambda: sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
seen = {}
import rotelast, rotelast.cli
seen["import"] = loaded()
profile = rotelast.solve_static(rotelast.Moduli.from_couplings(1.0, 1.0), slope0=1.0, r_max=5.0)
seen["solve_static"] = loaded()
rotelast.lift_hedgehog(profile)
seen["lift_hedgehog"] = loaded()
tmp = sys.argv[1]
csv, out = os.path.join(tmp, "profile.csv"), os.path.join(tmp, "out.json")
for argv in (["decompose", "--matrix", "1,2,3,4,5,6,7,8,9"],
             ["equilibria", "--lambda1", "1", "--lambda2", "1.25"],
             ["identity-check", "--refine", "--h", "0.4", "--extent", "1"],
             ["static", "--lambda1", "1", "--lambda2", "1", "--rmax", "5", "-o", csv],
             ["evolve", "--from-profile", csv, "--t-end", "0.1", "--n-grid", "101"],
             ["charge", "--from-profile", csv, "--radius", "2", "--spacing", "0.5", "--full-3d"],
             ["residual", "--from-profile", csv, "--h", "0.5", "--rmin", "1", "--rmax-annulus", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = rotelast.cli.main(argv + (["--summary", out] if argv[0] in ("static", "evolve") else ["-o", out]))
    seen[argv[0]] = (code, loaded())
import scipy.integrate
seen["control"] = loaded()
print(json.dumps(seen))
"""


def test_no_scipy_at_run_time(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rotelast.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    for step in ("import", "solve_static", "lift_hedgehog"):
        assert seen[step] == [], step
    for command in ("decompose", "equilibria", "identity-check", "static", "evolve", "charge", "residual"):
        assert seen[command] == [0, []], command
    # the positive control keeps the guard from passing when nothing is tracked
    assert {"scipy", "scipy.integrate"} <= set(seen["control"])
