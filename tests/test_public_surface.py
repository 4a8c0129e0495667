"""Every name a module under ``repro`` exports in ``__all__`` resolves on import,
every name it imports is used, and every public name it defines has a caller.

One case per package: the package itself and each of its modules are
imported, and every ``__all__`` entry must be an attribute of its module.  An
export list that still names a deleted function or class fails here rather
than at a user's ``from repro.x import *``.  The same modules are parsed with
:mod:`ast`, and every name an import binds must be read somewhere in the
module (a string annotation counts) or re-exported through ``__all__``.

Every public function, method and class defined in ``src/`` must be
referenced outside ``tests/`` — by a name or attribute load or an import in
``src/``, ``benchmarks/``, ``examples/`` or ``experiments/``, or by an exact
identifier string there (how the benchmark adapter names its trace
targets) — or sit on :data:`ALLOWLIST` with its reason.  A method is reached
only through an attribute (``x.name``), so for a method only an attribute
load or an identifier string counts: a bare name or an import of the same
spelling does not.  ``__all__`` entries, package ``__init__`` re-exports and
docstrings are not references.  The check matches by name, so it errs
towards keeping code.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pathlib

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).parent
REPO = ROOT.parent.parent
#: Where a reference keeps a public name alive.
CALLER_DIRECTORIES = ("src", "benchmarks", "examples", "experiments")
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


#: Public names with no caller outside ``tests/``, kept on purpose.
ALLOWLIST = {
    # Product API the README documents.
    "repro.net.client.fetch_metrics": "the README's scrape of a serving broker",
    "repro.pubsub.network.BrokerNetwork.live_components": "the README's partition-aware audit",
    "repro.pubsub.network.BrokerNetwork.metrics_snapshot": "the README's JSON scrape",
    # Paper formulas.
    "repro.core.bounds.lemma32_min_volume_fraction": "Lemma 3.2's retained-volume guarantee",
    "repro.core.decomposition.cumulative_volume_at_level": "the paper's vol(R(S_i(l)))",
    # Oracles the tests compare production code against.
    "repro.sfc.runs.brute_force_run_profile": "exhaustive run profile of a rectangle",
    "repro.geometry.transform.dominates": "point dominance, the transform's ground truth",
    "repro.workloads.generators.covering_chain": "nested subscriptions, covered by construction",
    # Kept for the tests that check other code through them.
    "repro.pubsub.broker.Broker.has_forwarded": "reads a link's forwarded set",
    "repro.core.approx_dominance.DominancePlan.materialised_steps": "pins the plan's laziness",
    "repro.index.sfc_array.SFCArray.items_in_key_range": "range scan against a brute force",
    "repro.pubsub.match_index.MatchIndex.candidates": "stored runs against a brute-force stab",
    "repro.sim.kernel.EventKernel.pending": "the kernel's queue drains",
    "repro.sfc.base.SpaceFillingCurve.cube_from_key_prefix": "inverts cube_key_range",
    "repro.sfc.base.SpaceFillingCurve.walk": "visits every cell in curve order",
    "repro.geometry.transform.DominanceTransform.from_point": "inverts to_point",
    "repro.obs.trace.TraceLog.trace_ids": "lists the traces a run recorded",
    "repro.obs.trace.TraceLog.hop_edges": "a trace's route, against the audited one",
    "repro.core.covering.ApproximateCoveringDetector.remove_subscription": "detector churn",
    "repro.baselines.linear_scan.LinearScanCoveringDetector.remove_subscription": (
        "the linear oracle follows the same churn"
    ),
    "repro.baselines.probabilistic.ProbabilisticCoveringDetector.remove_subscription": (
        "the probabilistic baseline follows the same churn"
    ),
    # The lockstep scripts and their runner (sync = sim = net suites).
    "repro.workloads.dynamics.subscription_churn_script": "churn storm with a join",
    "repro.workloads.dynamics.rolling_upgrade_script": "every broker restarts in turn",
    "repro.workloads.dynamics.run_scripted_lockstep": "runs a script action by action",
}


def _docstring_nodes(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                yield body[0].value


def _all_nodes(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            yield from ast.walk(node.value)


def references(path: pathlib.Path):
    """``(names, members)`` ``path`` refers to.  ``names``: loads, imports (not
    in a package ``__init__``) and exact identifier strings (not docstrings or
    ``__all__``); ``members``: the attribute loads and identifier strings
    among them, the only references that can reach a method."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    skipped = {id(node) for node in _docstring_nodes(tree)} | {id(node) for node in _all_nodes(tree)}
    names, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            members.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py":
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in skipped
        ):
            members.add(node.value)
    return names | members, members


@functools.lru_cache(maxsize=None)
def referenced_outside_tests():
    """``(names, members)`` as :func:`references`, over every caller directory."""
    names, members = set(), set()
    for directory in CALLER_DIRECTORIES:
        for path in sorted((REPO / directory).rglob("*.py")):
            found, attributes = references(path)
            names |= found
            members |= attributes
    return frozenset(names), frozenset(members)


def public_definitions(package: str):
    """``(dotted name, bare name, is a method)`` of every public function,
    class and method the package's modules define at top level or in a
    top-level class."""
    for module in modules_of(package):
        path = ROOT.joinpath(*module.split(".")[1:])
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, True


def is_referenced(name: str, is_method: bool) -> bool:
    """Any reference keeps a top-level name; a method needs a member reference."""
    names, members = referenced_outside_tests()
    return name in (members if is_method else names)


def test_a_method_counts_only_member_references(tmp_path):
    """A bare name or an import cannot reach a method of that spelling; an
    attribute load or an identifier string can."""
    path = tmp_path / "caller.py"
    path.write_text(
        "from elsewhere import bounds\n"
        "position = bounds()\n"
        "position\n"
        "table.suffix\n"
        "getattr(table, 'stream')\n"
    )
    names, members = references(path)
    assert {"bounds", "position", "suffix", "stream"} <= names
    assert members == {"suffix", "stream"}


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_has_a_caller_outside_tests(package):
    uncalled = [
        dotted
        for dotted, name, is_method in public_definitions(package)
        if not is_referenced(name, is_method) and dotted not in ALLOWLIST
    ]
    assert uncalled == []


def test_every_allowlisted_name_is_defined_and_still_uncalled():
    """An entry whose name left ``src/`` or gained a caller leaves the list."""
    defined = {
        dotted: (name, is_method)
        for package in PACKAGES
        for dotted, name, is_method in public_definitions(package)
    }
    stale = [
        dotted
        for dotted in ALLOWLIST
        if dotted not in defined or is_referenced(*defined[dotted])
    ]
    assert stale == []
    assert all(reason.strip() for reason in ALLOWLIST.values())
