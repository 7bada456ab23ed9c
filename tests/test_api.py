"""The package's public surface: each module's ``__all__`` is its only list of public names.

* every name in a module's ``__all__`` resolves;
* every function or class that a module defines is in its ``__all__`` or
  starts with ``_``;
* ``rotelast`` exports exactly the union of the six lists, plus
  ``__version__`` and its submodules.
"""

import inspect
import types

import pytest

import rotelast as rl
from rotelast import field_equations, fields, kinematics, radial, so3, topology

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
