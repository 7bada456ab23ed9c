"""Timing wrappers installed from outside the package on its public callables.

A traced callable is named ``<module>.<callable>``, for example
``kinematics.nye_matrix`` or ``kinematics.RotorGrid.from_field``.  A
function is replaced in every ``rotelast`` module namespace that binds it
(``field_equations.nye_matrix`` and ``cli.save_grid_csv`` are bindings of
their own), a method on its class.  Each call records one span: name,
start, end, self time, parent span and the benchmark phase it ran in.  A
span's self time is its duration minus the time its child spans cover.
Spans stay in memory until :meth:`Tracer.dump` writes them out.

Some callables also report work counts, computed from the shapes of their
arguments and results (``points``, ``bytes``), from file sizes (``bytes``
of the CSV readers and writers) or from their arguments (``steps``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

PACKAGE = "rotelast"


def _array_bytes(obj) -> int:
    """Bytes held by the arrays of a result object, computed from their shapes."""
    return int(sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)))


def _field_point_stats(args, kwargs, out):
    return {"points": int(out.alpha.size), "bytes": _array_bytes(out)}


def _evolve_steps(args, kwargs, out):
    dt = kwargs["dt"] if "dt" in kwargs else args[1]
    t_end = kwargs["t_end"] if "t_end" in kwargs else args[2]
    return {"steps": int(round(t_end / dt))}


#: work counts per traced callable: fn(args, kwargs, result) -> {stat: count}
STATS = {
    "field_equations.residual_eqs2_at": lambda a, k, out: {"points": int(np.prod(out.shape[:-1]))},
    "field_equations.grid_field_point": lambda a, k, out: {"bytes": _array_bytes(out)},
    "fields.HedgehogField.field_point": _field_point_stats,
    "fields.AnalyticRotorField.field_point": _field_point_stats,
    "topology.charge_density": lambda a, k, out: {"points": int(np.size(out))},
    "kinematics.nye_fd_grid": lambda a, k, out: {"points": int(np.prod(out.shape[:-2]))},
    "so3.matrix_to_rotor": lambda a, k, out: {"points": int(out[0].size)},
    "kinematics.save_grid_csv": lambda a, k, out: {"bytes": os.path.getsize(a[1])},
    "kinematics.load_grid_csv": lambda a, k, out: {"bytes": os.path.getsize(a[0])},
    "radial.evolve_dynamic": _evolve_steps,
}


class Tracer:
    """Installs span-recording wrappers on the named callables, and removes them."""

    def __init__(self, names):
        self.names = sorted(set(names))
        self.spans = []  # (name, start, end, self_s, parent, phase, stats); parent -1 is a root
        self.phase = ""
        self.missing = []
        self._stack = []  # [span index, time covered by children]
        self._patches = []  # (owner, attribute, original or None if inherited)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        self.missing = []
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name in self.names:
            mod_name, *owner_path, attr = name.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if inspect.isclass(owner):
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                self._patches.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        stats_of = STATS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, start, end, end - start - frame[1], parent, self.phase, None)
            if stats_of is not None:
                spans[index] = spans[index][:6] + (stats_of(args, kwargs, out),)
            return out

        return wrapper

    def totals(self, phase: str) -> dict:
        """Per callable: self seconds, calls and work counts summed over a phase."""
        out = {}
        for name, _, _, self_s, _, span_phase, stats in self.spans:
            if span_phase != phase:
                continue
            acc = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += self_s
            acc["calls"] += 1
            for key, value in (stats or {}).items():
                acc[key] = acc.get(key, 0) + value
        return out

    def dump(self, path) -> None:
        fields = ["name", "start", "end", "self_s", "parent", "phase", "stats"]
        with open(path, "w") as f:
            json.dump({"fields": fields, "missing": self.missing, "spans": self.spans}, f)
