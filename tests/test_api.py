"""The package's public surface: each module's ``__all__`` is its only list of public names.

* every name in a module's ``__all__`` resolves;
* every function or class that a module defines is in its ``__all__`` or
  starts with ``_``, and a module lists only names that it defines itself;
* ``rotelast`` exports exactly the union of the six lists, plus
  ``__version__`` and its submodules;
* every public name has a caller in the package, its tools or its benchmark,
  or is a callable that the benchmark traces: a name that only the tests use
  belongs in the tests;
* a field is a snapshot, so no public callable takes a time, and the grid
  residual's margin is fixed, so neither grid evaluator takes one;
* every defaulted parameter of a public callable is set by some call in the
  package, its tools or its benchmark: an option that no program call sets
  has one value in use, and belongs in the code as a constant;
* the x-slab walk over a lattice or a grid lives in ``kinematics`` alone, and
  so does the finite-difference stencil.
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


def test_every_public_name_is_defined_in_its_own_module():
    # one home per public name: a name that a module imports is listed where it is defined
    def defined(module):
        body = ast.parse(Path(module.__file__).read_text()).body
        return ({n.name for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
                | {t.id for n in body if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)}
                | {n.target.id for n in body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)})

    assert [f"{m.__name__}.{name}" for m in MODULES for name in m.__all__ if name not in defined(m)] == []


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


def test_the_slab_walk_has_one_home():
    """Every x-slab loop over a lattice goes through ``kinematics._blocks`` or ``RotorGrid._slabs``: no other
    module names the slab splitter ``kinematics._slabs``, and none builds a ``np.meshgrid`` in a loop."""
    for path in sorted((ROOT / "src" / "rotelast").glob("*.py")):
        if path.name == "kinematics.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported = {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
        named = {n.id for n in nodes if isinstance(n, ast.Name)}
        qualified = {ast.unparse(n) for n in nodes if isinstance(n, ast.Attribute)}
        assert "_slabs" not in imported | named and "kinematics._slabs" not in qualified, path.name
        loops = [m for n in nodes if isinstance(n, (ast.For, ast.While)) for m in ast.walk(n)]
        assert not [m for m in loops if isinstance(m, ast.Attribute) and m.attr == "meshgrid"], path.name
    assert not hasattr(kinematics.RotorGrid, "_planes")


def displaced_slices(tree):
    """The slices in ``tree``, ``a:b`` or ``slice(a, b)``, whose bounds both end in the same ``+ offset`` or
    ``- offset``, offset a variable: reads of an array displaced by a variable offset, as in ``u[lo + s:hi + s]``,
    the mark of a finite-difference stencil (``res[lo - _MARGIN:hi - _MARGIN]`` places a slab)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Slice) or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "slice"):
            bounds = (node.lower, node.upper) if isinstance(node, ast.Slice) else node.args[:2]
            ends = {(type(b.op), ast.unparse(b.right)) if isinstance(b, ast.BinOp) else None for b in bounds}
            if len(bounds) == 2 and len(ends) == 1 and None not in ends and not ends.pop()[1].isupper():
                found.append(ast.unparse(node))
    return found


def test_the_stencil_has_one_home():
    """Every finite difference on a grid is taken by ``kinematics._Stencil``: no other module reads an array at a
    displaced slice or calls ``np.gradient`` or ``np.roll``, and the three grid consumers build a ``_Stencil``."""
    for path in sorted((ROOT / "src" / "rotelast").glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        assert not calls & {"np.gradient", "np.roll"}, path.name
        assert path.name == "kinematics.py" or displaced_slices(tree) == [], path.name
    assert displaced_slices(ast.parse(inspect.getsource(kinematics._Stencil)))  # the rule sees the one home
    for fn in (field_equations.grid_field_point, kinematics._nye_fd, kinematics._identity_residual):
        assert "_Stencil(" in inspect.getsource(fn), fn.__name__


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
