"""The package's public surface: each module's ``__all__`` is its only list of public names.

* every name in a module's ``__all__`` resolves;
* every function or class that a module defines is in its ``__all__`` or
  starts with ``_``;
* ``rotelast`` exports exactly the union of the six lists, plus
  ``__version__`` and its submodules;
* every public name has a caller in the package, its tools or its benchmark,
  or is a callable that the benchmark traces: a name that only the tests use
  belongs in the tests;
* a field is a snapshot, so no public callable takes a time, and the grid
  residual's margin is fixed, so neither grid evaluator takes one;
* every defaulted parameter of a public callable is set by some call in the
  package, its tools or its benchmark: an option that no program call sets
  has one value in use, and belongs in the code as a constant.
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


def public_callables(module):
    """``(name, function)`` of each public function that ``module`` defines, and of the ``__init__`` and
    public methods of each public class that it defines; a dataclass's generated ``__init__`` is left out."""
    for name in module.__all__:
        obj = getattr(module, name)
        if obj.__module__ != module.__name__:
            continue  # a re-export, listed where it is defined
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, value in vars(obj).items():
                fn = getattr(value, "__func__", value)  # a classmethod's function
                if (inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_"))
                        and fn.__code__.co_filename == module.__file__):
                    yield f"{name}.{attr}", fn


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
NO_CALLER = {"kinetic_density"}
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


def program_paths() -> list:
    return [p for d in ("src/rotelast", "tools", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]


def test_every_public_name_has_a_caller():
    read = set().union(*map(referenced_names, program_paths()))
    traced = set(traced_callables())
    assert NO_CALLER <= {name for module in MODULES for name in module.__all__}
    unused = [f"{module.__name__}.{name}" for module in MODULES for name in module.__all__
              if name not in read | NO_CALLER and f"{module.__name__.removeprefix('rotelast.')}.{name}" not in traced]
    assert unused == [], "public names that only the tests use; move them into the tests"


def test_no_time_and_no_margin_parameters():
    params = {f"{module.__name__}.{name}": set(inspect.signature(fn).parameters)
              for module in MODULES for name, fn in public_callables(module)}
    assert "rotelast.fields.RotorField.field_point" in params and "rotelast.kinematics.RotorGrid.from_field" in params
    assert [name for name, p in params.items() if p & {"t", "time"}] == []
    assert "margin" not in (params["rotelast.field_equations.grid_field_point"]
                            | params["rotelast.field_equations.residual_grid"])


# The moving analytic snapshot: the README documents it, and the tests' travelling fields build it.
UNSET_OPTIONS = {"rotelast.fields.AnalyticRotorField.__init__(dt_beta)",
                 "rotelast.fields.AnalyticRotorField.__init__(dtt_beta)"}


def test_every_public_option_is_set_by_a_program_call():
    keywords = {}  # callable name -> keywords that some program call passes it
    for path in program_paths():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    unset = set()
    for module in MODULES:
        for name, fn in public_callables(module):
            called = name.split(".")[0] if name.endswith(".__init__") else name.split(".")[-1]
            unset |= {f"{module.__name__}.{name}({p.name})" for p in inspect.signature(fn).parameters.values()
                      if p.default is not p.empty and p.name not in keywords.get(called, set())}
    assert unset == UNSET_OPTIONS, "options that no program call sets; make each a constant"
