"""The package's public surface: each module's ``__all__`` is its only list of public names.

* every name in a module's ``__all__`` resolves;
* every function or class that a module defines is in its ``__all__`` or
  starts with ``_``;
* ``rotelast`` exports exactly the union of the six lists, plus
  ``__version__`` and its submodules;
* every public name has a caller in the package, its tools or its benchmark,
  or is a callable that the benchmark traces: a name that only the tests use
  belongs in the tests.
"""

import ast
import inspect
import types
from pathlib import Path

import pytest

import rotelast as rl
from rotelast import field_equations, fields, kinematics, radial, so3, topology

from test_traced_names import traced_callables

MODULES = (so3, fields, kinematics, field_equations, radial, topology)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_defined_names_public_or_private(module):
    defined = [name for name, value in vars(module).items()
               if (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ == module.__name__]
    assert defined
    stray = [name for name in defined if name not in module.__all__ and not name.startswith("_")]
    assert stray == []


def test_package_exports_exactly_the_module_lists():
    exported = {name for name, value in vars(rl).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rl, name) is getattr(module, name)
    submodules = {name for name, value in vars(rl).items() if isinstance(value, types.ModuleType)}
    assert all(getattr(rl, name).__name__ == f"rotelast.{name}" for name in submodules)
    assert rl.__version__ == "0.1.0"


# The kinetic half of the Lagrangian: it pairs with potential_density, which tools/compare_artifacts.py calls.
NO_CALLER = {"kinetic_density", "nye_velocity_vector"}
ROOT = Path(__file__).resolve().parent.parent


def referenced_names(path: Path) -> set:
    """Names that the code of ``path`` reads, as a variable or an attribute.

    A ``def`` or ``class`` statement, an ``__all__`` string, a docstring and an import do not read a
    name, and neither does an assignment to it, ``X = ...`` or ``X[i] = ...``.
    """
    nodes = list(ast.walk(ast.parse(path.read_text())))
    assigned = {id(n.value) for n in nodes if isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load)}
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in assigned}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


def test_every_public_name_has_a_caller():
    paths = [p for d in ("src/rotelast", "tools", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    read = set().union(*map(referenced_names, paths))
    traced = set(traced_callables())
    assert NO_CALLER <= {name for module in MODULES for name in module.__all__}
    unused = [f"{module.__name__}.{name}" for module in MODULES for name in module.__all__
              if name not in read | NO_CALLER and f"{module.__name__.removeprefix('rotelast.')}.{name}" not in traced]
    assert unused == [], "public names that only the tests use; move them into the tests"
