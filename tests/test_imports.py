"""Import guard: no scipy module loads at run time, and orjson only with a CSV writer.

The static solver and the profile spline are NumPy code, so importing the
package, solving, lifting and every command must leave ``sys.modules`` free
of scipy: importing it costs a fresh process most of its start-up time.
orjson formats the rows of the CSV writers and is imported inside them, so
only a process that writes a CSV file loads it; its import takes about
8 ms and 0.7 MB.  The checks run in a subprocess, because the test process
itself has loaded both long ago.  The commands read a profile that this
process writes, so that ``static -o``, the only CSV writer among them, can
run last and show orjson loaded; the script then imports
``scipy.integrate`` itself, and the tracker must see it.  These positive
controls keep the guard from passing by tracking nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rotelast

# static, the CSV writer, runs last
COMMANDS = ("decompose", "equilibria", "identity-check", "evolve", "charge", "residual", "static")

SCRIPT = r"""
import contextlib, io, json, os, sys
loaded = lambda: sorted(name for name in sys.modules if name.split(".")[0] in ("scipy", "orjson"))
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
             ["evolve", "--from-profile", csv, "--t-end", "0.1", "--n-grid", "101"],
             ["charge", "--from-profile", csv, "--radius", "2", "--spacing", "0.5", "--full-3d"],
             ["residual", "--from-profile", csv, "--h", "0.5", "--rmin", "1", "--rmax-annulus", "2"],
             ["static", "--lambda1", "1", "--lambda2", "1", "--rmax", "5", "-o", os.path.join(tmp, "new.csv")]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = rotelast.cli.main(argv + (["--summary", out] if argv[0] in ("static", "evolve") else ["-o", out]))
    seen[argv[0]] = (code, loaded())
import scipy.integrate
seen["control"] = loaded()
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen(tmp_path_factory, unit_moduli):
    """The tracked modules after each step of the script, as it printed them."""
    tmp = tmp_path_factory.mktemp("imports")
    rotelast.save_profile_csv(rotelast.solve_static(unit_moduli, slope0=1.0, r_max=5.0), tmp / "profile.csv")
    env = dict(os.environ, PYTHONPATH=str(Path(rotelast.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_scipy_at_run_time(seen):
    scipy = lambda names: [name for name in names if name.split(".")[0] == "scipy"]
    for step in ("import", "solve_static", "lift_hedgehog"):
        assert scipy(seen[step]) == [], step
    for command in COMMANDS:
        code, names = seen[command]
        assert (code, scipy(names)) == (0, []), command
    # the positive control keeps the guard from passing when nothing is tracked
    assert {"scipy", "scipy.integrate"} <= set(seen["control"])


def test_orjson_only_with_a_csv_writer(seen):
    for step in ("import", "solve_static", "lift_hedgehog"):
        assert seen[step] == [], step
    for command in COMMANDS[:-1]:
        assert seen[command] == [0, []], command
    # the positive control: static -o writes a profile CSV
    assert seen["static"] == [0, ["orjson", "orjson.orjson"]]
