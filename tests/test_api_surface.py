"""API-surface tests: public exports resolve and modules import cleanly.

Guards against broken ``__all__`` lists and import cycles — cheap tests
that catch real packaging regressions.
"""

import importlib
import pkgutil

import pytest

import repro

_WALK = [
    info for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")
]

#: Every module of the package, found by walking it rather than listed by
#: hand, so a new module is checked and a deleted one needs no edit here.
PACKAGES = ["repro"] + sorted(info.name for info in _WALK)

#: The subpackages, each of which must declare its public ``__all__``.
SUBPACKAGES = sorted(info.name for info in _WALK if info.ispkg)


@pytest.mark.parametrize("package", PACKAGES)
def test_module_imports(package):
    importlib.import_module(package)


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_all_entries_resolve(package):
    """Every name in a subpackage's __all__ must be importable from it."""
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package} should define __all__"
    for name in exported:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name}"


def test_top_level_version():
    import repro
    from repro.cli import package_version

    assert repro.__version__ == "1.1.0"
    # The CLI's --version resolves to the same number whether or not the
    # package is installed as a distribution.
    assert package_version() == "1.1.0"


def test_module_docstrings_exist():
    """Every public module carries a docstring (documentation deliverable)."""
    for package in PACKAGES:
        module = importlib.import_module(package)
        assert module.__doc__ and module.__doc__.strip(), package


def test_public_classes_have_docstrings():
    """Spot-check the main public API objects for doc comments."""
    from repro.core.system import IntegratedPowerCoolingSystem
    from repro.flowcell.planar import PlanarColaminarCell
    from repro.flowcell.porous import FlowThroughPorousCell
    from repro.thermal.model import ThermalModel
    from repro.pdn.grid import PowerGrid

    for obj in (
        IntegratedPowerCoolingSystem, PlanarColaminarCell,
        FlowThroughPorousCell, ThermalModel, PowerGrid,
    ):
        assert obj.__doc__ and obj.__doc__.strip()
        for attr_name in dir(obj):
            if attr_name.startswith("_"):
                continue
            attr = getattr(obj, attr_name)
            if callable(attr):
                assert attr.__doc__, f"{obj.__name__}.{attr_name} lacks a docstring"
