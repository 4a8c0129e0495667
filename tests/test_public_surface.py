"""Every name a module under ``repro`` exports in ``__all__`` resolves on import.

One case per package: the package itself and each of its modules are
imported, and every ``__all__`` entry must be an attribute of its module.  An
export list that still names a deleted function or class fails here rather
than at a user's ``from repro.x import *``.
"""

from __future__ import annotations

import importlib
import pathlib

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).parent
PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}" for path in ROOT.glob("*/__init__.py")
)


def modules_of(package: str):
    """The package and its modules, as importable dotted names."""
    directory = ROOT.joinpath(*package.split(".")[1:])
    return [package] + sorted(
        f"{package}.{path.stem}" for path in directory.glob("*.py") if path.stem != "__init__"
    )


def test_every_package_is_listed():
    assert len(PACKAGES) > 1
    assert "repro.pubsub" in PACKAGES and "repro.sfc" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    unresolved = []
    exporting = 0
    for name in modules_of(package):
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        exporting += 1
        assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
        unresolved += [f"{name}.{entry}" for entry in exported if not hasattr(module, entry)]
    assert exporting, f"no module of {package} declares __all__"
    assert unresolved == []
