"""Every name a module under ``repro`` exports in ``__all__`` resolves on import,
every name it imports is used, every public name it defines has a caller, and
every option it defines is set by one.

One case per package: the package itself and each of its modules are
imported, and every ``__all__`` entry must be an attribute of its module.  An
export list that still names a deleted function or class fails here rather
than at a user's ``from repro.x import *``.  The same modules are parsed with
:mod:`ast`, and every name an import binds must be read somewhere in the
module (a string annotation counts) or re-exported through ``__all__``.

Every public function, method and class defined in ``src/`` must be
referenced outside ``tests/`` — by a name or attribute load or an import in
``src/``, ``examples/`` or ``experiments/``, or by an exact
identifier string there (how the benchmark adapter names its trace
targets) — or sit on :data:`ALLOWLIST` with its reason.  A method is reached
only through an attribute (``x.name``), so for a method only an attribute
load or an identifier string counts: a bare name or an import of the same
spelling does not.  ``__all__`` entries, package ``__init__`` re-exports and
docstrings are not references.  The check matches by name, so it errs
towards keeping code.

Every option under ``src/repro`` — a defaulted parameter of a public
function or method (``__init__`` included), or a defaulted field of a public
dataclass — must be set outside ``tests/`` and outside its own definition,
and some setting anywhere (``tests/`` included) must pass it another value
than its default's literal; or it sits on :data:`OPTION_ALLOWLIST` with its
reason.  A setting is that keyword or enough positional arguments in a call
of its callee's name (``cls`` in a classmethod names the class; a call that
hands the callee on as an argument counts too), that keyword in a call of a
``**kwargs`` function whose body hands ``**kwargs`` on to the callee, or a
``--flag`` string of that name in a file that calls the callee.  Only where
none of these is found does a keyword in a call that cannot be named (a
registry, ``dict(...)``) count, by name alone.  A value that is no literal
counts as another.  State is no option: counter blocks (``*Stats``),
records (``*State``) and a field holding one are skipped.  It matches
callees by name, so it errs towards keeping options.  :func:`options` is the
option count ``ci.sh`` prints.

Every module under ``src/repro`` is on exactly one of two layers:
:data:`PRODUCT_MODULES`, what a broker runs, or :data:`PAPER_MODULES`, what
only the paper's experiments run.  No import a product module executes when
it loads names a paper module; an import inside a function is not executed
by loading.

Every third-party module imported under ``src/`` is in ``pyproject.toml``'s
``[project].dependencies``; one imported under ``tests/`` or
``experiments/`` is there or in the ``test`` extra.  Standard-library
modules and the repository's own modules do not count.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pathlib
import re
import sys
from typing import List, NamedTuple

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).parent
REPO = ROOT.parent.parent
#: Where a reference keeps a public name alive.
CALLER_DIRECTORIES = ("src", "examples", "experiments")
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


# ------------------------------------------------------------------ layers
#: What a broker runs, and the entry point that boots one.  Mixed modules
#: count as product because product code imports them: ``index.sfc_array``
#: (``SFCArray`` beside the flat store), ``geometry.transform``
#: (``DominanceTransform`` beside ``first_covering``) and ``geometry.bits``
#: (Gray encode / decode beside the Z interleave).
PRODUCT_MODULES = [
    "repro",
    "repro.analysis", "repro.analysis.cli", "repro.analysis.reporting",
    "repro.core", "repro.core.decomposition",
    "repro.geometry", "repro.geometry.bits", "repro.geometry.rect",
    "repro.geometry.transform", "repro.geometry.universe",
    "repro.index", "repro.index.config", "repro.index.sfc_array",
    "repro.net", "repro.net.client", "repro.net.net_transport", "repro.net.protocol",
    "repro.net.server",
    "repro.obs", "repro.obs.exposition", "repro.obs.profiler", "repro.obs.registry",
    "repro.obs.trace",
    "repro.pubsub", "repro.pubsub.broker", "repro.pubsub.match_index",
    "repro.pubsub.network", "repro.pubsub.routing_table", "repro.pubsub.schema",
    "repro.pubsub.subscription", "repro.pubsub.subscription_store",
    "repro.sfc", "repro.sfc.base", "repro.sfc.runs", "repro.sfc.vectorized", "repro.sfc.zorder",
    "repro.sim", "repro.sim.kernel", "repro.sim.latency", "repro.sim.transport",
    "repro.workloads", "repro.workloads.dynamics", "repro.workloads.generators",
    "repro.workloads.scenarios", "repro.workloads.topologies",
]
#: What only the paper's experiments run: the ε-search, its detector and
#: bounds, the other curves, the spatial and covering baselines.
PAPER_MODULES = [
    "repro.baselines", "repro.baselines.linear_scan", "repro.baselines.probabilistic",
    "repro.core.approx_dominance", "repro.core.bounds", "repro.core.covering",
    "repro.index.kdtree", "repro.index.range_tree",
    "repro.sfc.gray", "repro.sfc.hilbert",
]


def module_path(module: str) -> pathlib.Path:
    """The source file of dotted module ``module``."""
    path = ROOT.joinpath(*module.split(".")[1:])
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def test_every_module_is_on_exactly_one_layer():
    every = [module for package in PACKAGES for module in modules_of(package)]
    layered = PRODUCT_MODULES + PAPER_MODULES
    assert sorted(layered) == sorted(set(layered)), "a module is on both layers"
    assert sorted(every) == sorted(layered)


def imports_run_on_load(tree: ast.Module):
    """The import statements of ``tree`` outside function bodies."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))


def modules_named(node, module: str):
    """Every dotted name import ``node`` in ``module`` may load: the module
    it names and, for a ``from`` import, each name as a submodule of it."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        package = module if module_path(module).name == "__init__.py" else module.rpartition(".")[0]
        package = package.rsplit(".", node.level - 1)[0]
        base = f"{package}.{base}" if base else package
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


@pytest.mark.parametrize("module", PRODUCT_MODULES)
def test_no_product_module_loads_a_paper_module(module):
    path = module_path(module)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    crossing = [
        f"{path.relative_to(ROOT.parent)}:{node.lineno}: {name}"
        for node in imports_run_on_load(tree)
        for name in modules_named(node, module)
        if name in PAPER_MODULES
    ]
    assert crossing == []


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
        path = module_path(module)
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


# ----------------------------------------------------------------- options
#: Defaulted parameters that no caller outside ``tests/`` sets, kept on
#: purpose.  A key is ``module.function(name=)``, ``module.Class.method(name=)``
#: or, for a constructor parameter or a dataclass field, ``module.Class(name=)``.
OPTION_ALLOWLIST = {
    "repro.analysis.cli.main(argv=)": (
        "None reads sys.argv (the console entry); tests pass a command line"
    ),
    "repro.core.covering.ApproximateCoveringDetector.find_covering_exhaustive(exclude=)": (
        "the exact form of find_covering(exclude=): a stored subscription is"
        " checked against the others"
    ),
    "repro.net.client.NetClient(timeout=)": "a deployment setting: the wait on a slow broker",
    "repro.net.client.fetch_metrics(timeout=)": "a deployment setting: the wait on a slow broker",
    "repro.obs.profiler.HotPathProfiler(clock=)": "tests time the profiler on a fake clock",
    "repro.sim.kernel.EventKernel.run(max_steps=)": (
        "the seam the transport tests stop a run mid-flight with"
    ),
    "repro.workloads.dynamics.subscription_churn_script(join_broker=)": (
        "the lockstep suites add a broker mid-storm"
    ),
    "repro.workloads.dynamics.subscription_churn_script(batch_size=)": (
        "batch_size=1 pins a storm of single actions against the batched one"
    ),
    "repro.workloads.scenarios.auction_scenario(order=)": (
        "the three scenario builders share one signature; the dynamics tests"
        " build each on a smaller grid through one helper"
    ),
}


def is_state(class_name: str) -> bool:
    """Counter blocks (``BrokerStats``) and records (``LinkState``) hold
    state, not settings."""
    return class_name.endswith(("Stats", "State"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


#: The value of a default or a setting that is no literal (a name, a call):
#: it counts as different from every other.
UNKNOWN = object()


def literal(node):
    """The value of ``node`` when it is a literal, else :data:`UNKNOWN`."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return UNKNOWN


def _parameters(function: ast.FunctionDef, bound: bool):
    """``([(name, default value)], positional names)`` of ``function``'s
    defaulted parameters, without the bound ``self`` / ``cls`` when
    ``bound``."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    if bound:
        positional = positional[1:]
    first = len(positional) - len(arguments.defaults)
    defaulted = list(zip(positional[first:], arguments.defaults))
    defaulted += [
        (a, d) for a, d in zip(arguments.kwonlyargs, arguments.kw_defaults) if d is not None
    ]
    return [(a.arg, literal(d)) for a, d in defaulted], [a.arg for a in positional]


def _fields(node: ast.ClassDef):
    """``(name, default node or None, statement)`` of every ``__init__`` field
    of a dataclass."""
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            if any(
                k.arg == "init" and getattr(k.value, "value", True) is False
                for k in value.keywords
            ):
                continue
        yield item.target.id, value, item


def _state_default(value) -> bool:
    """A default built from a state class (``field(default_factory=BrokerStats)``)."""
    return any(isinstance(n, ast.Name) and is_state(n.id) for n in ast.walk(value))


class Option(NamedTuple):
    """One settable value: ``key`` names it, ``callee`` is the name a call
    reaches it by, ``order`` the callee's positional parameters, ``default``
    its default's value, and ``first``-``last`` the lines of its definition
    in ``path``."""

    key: str
    name: str
    callee: str
    order: List[str]
    default: object
    path: pathlib.Path
    first: int
    last: int


def options_in(path: pathlib.Path, module: str):
    """Every :class:`Option` ``path`` defines: each defaulted parameter of a
    public function, of a public class's public methods and ``__init__``,
    and each defaulted field of a public dataclass; state classes and state
    fields excluded."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        span = (path, node.lineno, node.end_lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults, order = _parameters(node, bound=False)
            for name, default in defaults:
                yield Option(
                    f"{module}.{node.name}({name}=)", name, node.name, order, default, *span
                )
        if not isinstance(node, ast.ClassDef) or is_state(node.name):
            continue
        if _is_dataclass(node):
            fields = list(_fields(node))
            order = [name for name, _, _ in fields]
            for name, value, item in fields:
                if value is not None and not name.startswith("_") and not _state_default(value):
                    yield Option(
                        f"{module}.{node.name}({name}=)", name, node.name, order,
                        literal(value), path, item.lineno, item.end_lineno,
                    )
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name.startswith("_") and item.name != "__init__":
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
            defaults, order = _parameters(item, bound=not static)
            if item.name == "__init__":
                owner, callee = f"{module}.{node.name}", node.name
            else:
                owner, callee = f"{module}.{node.name}.{item.name}", item.name
            for name, default in defaults:
                yield Option(
                    f"{owner}({name}=)", name, callee, order, default,
                    path, item.lineno, item.end_lineno,
                )


def options():
    """``{key: Option}`` of every option under ``src/repro``: the count
    ``ci.sh`` prints."""
    return {
        option.key: option
        for package in PACKAGES
        for module in modules_of(package)
        for option in options_in(module_path(module), module)
    }


class Settings(NamedTuple):
    """What one file sets.  ``calls`` is ``{callee: [(line, [value, ...],
    {name: value}), ...]}``, the positional and keyword arguments of every
    call that reaches the callee; ``flags`` is ``{name: [line, ...]}`` for
    every ``--name`` string (dashes read as underscores); a value is a
    literal's or :data:`UNKNOWN`.  ``forwarders`` maps each function the
    file defines with ``**kwargs`` to the callees its body hands
    ``**kwargs`` on to."""

    calls: dict
    flags: dict
    forwarders: dict


#: The callee of a call that cannot be named statically
#: (``SCENARIOS[kind](order=6)``): its keywords match by name alone.
DYNAMIC = "<dynamic>"


def _calls_of(call: ast.Call, owner):
    """``(callee, positional arguments)`` pairs ``call`` reaches: the function
    it calls (``cls`` in a classmethod of ``owner`` is ``owner``), and every
    function or class it hands on as an argument, with the positional
    arguments after it (``run_once(driver, rows)``, ``_register(Counter,
    name, help)``)."""
    arguments = []
    for argument in call.args:
        if isinstance(argument, ast.Starred):
            break
        arguments.append(argument)
    func = call.func
    if isinstance(func, ast.Name):
        callee = owner if func.id == "cls" and owner else func.id
    elif isinstance(func, ast.Attribute):
        callee = func.attr
    else:
        callee = DYNAMIC
    yield callee, arguments
    for index, argument in enumerate(arguments):
        name = getattr(argument, "id", getattr(argument, "attr", None))
        if name is not None:
            yield name, arguments[index + 1:]


def settings_in(path: pathlib.Path) -> Settings:
    """The :class:`Settings` of ``path``."""
    found = Settings({}, {}, {})

    def visit(node, owner, forwarder):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.args.kwarg:
                forwarder = node.name
                found.forwarders.setdefault(forwarder, set())
            if not any(getattr(d, "id", None) == "classmethod" for d in node.decorator_list):
                owner = None
        elif isinstance(node, ast.Call):
            keywords = {k.arg: literal(k.value) for k in node.keywords if k.arg is not None}
            for callee, arguments in _calls_of(node, owner):
                values = [literal(argument) for argument in arguments]
                found.calls.setdefault(callee, []).append((node.lineno, values, keywords))
                if forwarder is not None and len(keywords) < len(node.keywords):
                    found.forwarders[forwarder].add(callee)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("--")
            and node.value[2:].replace("-", "_").isidentifier()
        ):
            found.flags.setdefault(node.value[2:].replace("-", "_"), []).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, forwarder)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None, None)
    return found


@functools.lru_cache(maxsize=None)
def settings_under(directories) -> dict:
    """``{path: settings_in(path)}`` for every Python file under ``directories``."""
    return {
        path: settings_in(path)
        for directory in directories
        for path in sorted((REPO / directory).rglob("*.py"))
    }


def settings_of(option: Option, files: dict):
    """``(path, line, value)`` of every setting of ``option`` in ``files``
    (``{path: settings_in(path)}``) outside its own definition: a keyword in
    a call of its callee or of a ``**kwargs`` function whose body hands
    ``**kwargs`` to it, a position in a call of its callee, a ``--flag`` in a
    file that calls its callee (value :data:`UNKNOWN`).  Only where none is
    found does a keyword in ``dict(...)`` or a call that cannot be named
    count, by name alone."""
    position = option.order.index(option.name) if option.name in option.order else None
    callees = {option.callee}.union(
        name
        for found in files.values()
        for name, reached in found.forwarders.items()
        if option.callee in reached
    )

    def found_with(callees):
        for path, found in files.items():
            here = [
                (line, keywords[option.name])
                for callee in callees
                for line, _, keywords in found.calls.get(callee, ())
                if option.name in keywords
            ]
            if option.callee in callees and option.callee in found.calls:
                here += [(line, UNKNOWN) for line in found.flags.get(option.name, ())]
                here += [
                    (line, values[position])
                    for line, values, _ in found.calls[option.callee]
                    if position is not None and len(values) > position
                ]
            for line, value in here:
                if path != option.path or not option.first <= line <= option.last:
                    yield path, line, value

    return list(found_with(callees)) or list(found_with({"dict", DYNAMIC}))


def is_varied(option: Option, files: dict) -> bool:
    """Whether a setting in ``files`` passes ``option`` a value other than
    its default's: a literal equal to it is no second value."""
    return any(
        value is UNKNOWN or option.default is UNKNOWN or value != option.default
        for _, _, value in settings_of(option, files)
    )


def is_live(option: Option) -> bool:
    """Set outside ``tests/``, and to another value than its default somewhere."""
    return bool(settings_of(option, settings_under(CALLER_DIRECTORIES))) and is_varied(
        option, settings_under(CALLER_DIRECTORIES + ("tests",))
    )


def test_an_option_is_set_by_keyword_flag_or_position(tmp_path):
    """A keyword to its callee, a ``--flag`` in a file that calls it or a
    positional call sets an option, and so does a keyword to a call that
    hands the callee on, to a ``**kwargs`` function whose body hands
    ``**kwargs`` to it, or, where nothing else sets it, to a registry call;
    its own definition, a call that stops short of its position, a keyword
    of the same name to another callee and a ``**kwargs`` function that
    forwards elsewhere do not.  A setting equal to the default's literal is
    no second value."""
    source = tmp_path / "source.py"
    source.write_text(
        "def scale(rows, factor=2, *, offset=0, fanout=3, depth=1, width=0, limit=0, mode=0):\n"
        "    return scale(rows, fanout=fanout)\n"
    )
    defined = list(options_in(source, "source"))
    assert [option.key for option in defined] == [
        "source.scale(factor=)", "source.scale(offset=)", "source.scale(fanout=)",
        "source.scale(depth=)", "source.scale(width=)", "source.scale(limit=)",
        "source.scale(mode=)",
    ]
    caller = tmp_path / "caller.py"
    caller.write_text(
        "scale(rows)\ntable.scale(rows, 2)\nrun(['--offset', '1'], depth=2)\n"
        "run_once(scale, width=0)\nSCALERS[kind](limit=1, width=5)\n"
        "def forward(**kwargs):\n    return scale(rows, **kwargs)\nforward(mode=1)\n"
        "def add(**values):\n    rows.append(values)\nadd(fanout=4)\n"
    )
    (tmp_path / "flags.py").write_text("parser.add_argument('--fanout', type=int)\n")
    files = {path: settings_in(path) for path in sorted(tmp_path.glob("*.py"))}
    unset = [option.name for option in defined if not settings_of(option, files)]
    assert unset == ["fanout", "depth"]
    assert [option.name for option in defined if is_varied(option, files)] == [
        "offset", "limit", "mode",
    ]


def test_a_dataclass_field_is_set_by_its_own_classmethod(tmp_path):
    """``cls(...)`` in a classmethod calls the class; the rest of the class
    body is not the field's definition."""
    source = tmp_path / "source.py"
    source.write_text(
        "@dataclass\nclass Pool:\n    size: int = 4\n    depth: int = 1\n\n"
        "    @classmethod\n    def small(cls):\n        return cls(size=2)\n"
    )
    defined = list(options_in(source, "source"))
    files = {source: settings_in(source)}
    assert [option.key for option in defined if not settings_of(option, files)] == [
        "source.Pool(depth=)"
    ]


def test_state_is_no_option(tmp_path):
    """A counter block, a record, and a field holding one are state."""
    source = tmp_path / "source.py"
    source.write_text(
        "@dataclass\nclass PoolStats:\n    hits: int = 0\n\n"
        "@dataclass\nclass PeerState:\n    sent: int = 0\n\n"
        "@dataclass\nclass Pool:\n    size: int = 4\n"
        "    stats: PoolStats = field(default_factory=PoolStats)\n"
        "    _cache: dict = field(default_factory=dict)\n"
        "    slots: list = field(init=False)\n"
    )
    assert [option.key for option in options_in(source, "source")] == ["source.Pool(size=)"]


@pytest.mark.parametrize("module", sorted(PRODUCT_MODULES + PAPER_MODULES))
def test_every_option_is_set_outside_tests(module):
    unset = [
        option.key
        for option in options_in(module_path(module), module)
        if option.key not in OPTION_ALLOWLIST and not is_live(option)
    ]
    assert unset == []


def test_every_allowlisted_option_is_defined_and_still_unset():
    """An entry whose option left ``src/`` or gained a caller leaves the list."""
    defined = options()
    stale = [key for key in OPTION_ALLOWLIST if key not in defined or is_live(defined[key])]
    assert stale == []
    assert all(reason.strip() for reason in OPTION_ALLOWLIST.values())


# ------------------------------------------------------------ dependencies
def third_party_imports(directory: pathlib.Path):
    """``{top-level module: first file importing it}`` over ``directory``'s
    absolute imports, less the standard library and the directory's own
    modules and packages."""
    paths = sorted(directory.rglob("*.py"))
    own = {"repro", "tests", "experiments"}
    own |= {path.stem for path in paths} | {path.parent.name for path in paths}
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in own:
                    found.setdefault(top, str(path.relative_to(REPO)))
    return found


def declared(requirements):
    """The importable names of PEP 508 requirement strings."""
    return {re.split(r"[\s\[<>=!~;]", req, maxsplit=1)[0].replace("-", "_") for req in requirements}


@pytest.mark.parametrize(
    "directory, extras",
    [("src", ()), ("tests", ("test",)), ("experiments", ("test",))],
)
def test_every_third_party_import_is_declared(directory, extras):
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    allowed = declared(project["dependencies"])
    for extra in extras:
        allowed |= declared(project["optional-dependencies"][extra])
    undeclared = {
        module: path
        for module, path in third_party_imports(REPO / directory).items()
        if module not in allowed
    }
    assert undeclared == {}
