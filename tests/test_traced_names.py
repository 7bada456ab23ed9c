"""Every callable that the benchmark traces must still resolve in the package.

``BENCHMARK.json`` names per-layer metrics ``<module>.<callable>.<stat>``.
The benchmark's tracer resolves ``<module>.<callable>`` by importing
``rotelast.<module>``, walking the attribute path and reading the last
attribute with ``inspect.getattr_static``; a name that no longer resolves
is a failed benchmark check.  This test applies the same rule without
installing any wrapper, so a rename or a move fails here first.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def traced_callables():
    names = (m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"])
    # proc.* and trace.* are process and tracer figures, not package callables
    return sorted({n.rsplit(".", 1)[0] for n in names if not n.startswith(("proc.", "trace."))})


@pytest.mark.parametrize("name", traced_callables())
def test_traced_callable_resolves(name):
    mod_name, *owner_path, attr = name.split(".")
    owner = importlib.import_module(f"rotelast.{mod_name}")
    for part in owner_path:
        owner = getattr(owner, part)
    found = inspect.getattr_static(owner, attr)
    if isinstance(found, (classmethod, staticmethod)):
        found = found.__func__
    assert callable(found)
