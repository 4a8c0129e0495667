"""Every name a module under ``repro`` exports in ``__all__`` resolves on import,
and every name it imports is used.

One case per package: the package itself and each of its modules are
imported, and every ``__all__`` entry must be an attribute of its module.  An
export list that still names a deleted function or class fails here rather
than at a user's ``from repro.x import *``.  The same modules are parsed with
:mod:`ast`, and every name an import binds must be read somewhere in the
module (a string annotation counts) or re-exported through ``__all__``.
"""

from __future__ import annotations

import ast
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


def imported_names(tree: ast.Module):
    """``(name, line)`` for every name an import statement in ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def names_read(tree: ast.Module):
    """Every name ``tree`` reads, including the names inside string annotations."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(name.id for name in ast.walk(annotation) if isinstance(name, ast.Name))
    return read


def exported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("package", PACKAGES)
def test_every_import_is_used_or_exported(package):
    directory = ROOT.joinpath(*package.split(".")[1:])
    unused = []
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        kept = names_read(tree) | exported_names(tree)
        unused += [
            f"{path.relative_to(ROOT.parent)}:{line}: {name}"
            for name, line in imported_names(tree)
            if name not in kept
        ]
    assert unused == []
