"""Import guard: scipy loads only in the functions that call it.

``solve_static`` calls ``scipy.integrate.solve_ivp``, and ``resample_uniform``
and ``lift_hedgehog`` call ``scipy.interpolate.CubicSpline``.  Importing the
package, and commands that neither solve nor lift, must not load those
modules: they cost a fresh process most of its start-up time.  The check runs
in a subprocess, because the test session itself has loaded scipy long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rotelast

SCRIPT = r"""
import contextlib, io, json, os, sys
loaded = lambda: [name for name in ("scipy.integrate", "scipy.interpolate") if name in sys.modules]
seen = {}
import rotelast, rotelast.cli
seen["import"] = loaded()
out = os.path.join(sys.argv[1], "out.json")
for argv in (["decompose", "--matrix", "1,2,3,4,5,6,7,8,9"],
             ["equilibria", "--lambda1", "1", "--lambda2", "1.25"],
             ["identity-check", "--refine", "--h", "0.4", "--extent", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = rotelast.cli.main(argv + ["-o", out])
    seen[argv[0]] = (code, loaded())
profile = rotelast.solve_static(rotelast.Moduli.from_couplings(1.0, 1.0), slope0=1.0, r_max=5.0)
seen["solve_static"] = loaded()
rotelast.lift_hedgehog(profile)
seen["lift_hedgehog"] = loaded()
print(json.dumps(seen))
"""


def test_scipy_loads_only_where_called(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rotelast.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == []
    for command in ("decompose", "equilibria", "identity-check"):
        assert seen[command] == [0, []], command
    assert seen["solve_static"] == ["scipy.integrate"]
    # the positive checks keep the guard from passing when nothing is tracked
    assert seen["lift_hedgehog"] == ["scipy.integrate", "scipy.interpolate"]
