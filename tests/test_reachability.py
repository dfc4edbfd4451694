"""Reachable or gone: nothing in ``src/repro`` exists only for its own tests.

A pure-AST fence (no import of ``repro``; the whole walk is well under a
second) with three rules:

1. every module under ``src/repro`` is imported, transitively, from a *root*
   — ``repro/cli.py``, an experiment, an example or a benchmark;
2. every public top-level ``def`` / ``class`` is referenced in code — a
   name, an attribute, an import alias or an identifier-like string constant —
   somewhere other than its own definition, in a non-test file;
3. every defaulted field of a ``@dataclass`` whose name ends in ``Config``
   or ``Policy`` is set by keyword in a non-test file — in a call of the
   class or of ``dataclasses.replace``, under any import alias. A field only
   tests set is an option no workload runs with: make it a module constant.
   ``HermesConfig`` is exempt: it is the paper's Table 2, whose every knob
   is a tunable of the system being reproduced, swept or not.

No rule counts a package ``__init__`` re-export, anything under ``tests/``,
an import under ``if TYPE_CHECKING:``, a comment or a docstring as a use: a
name that is exported, documented and unit-tested but that no CLI verb,
experiment, example or benchmark can reach is the thing this fence exists to
catch. A finding has three fixes — delete it, replace its caller's duplicate
with it, or wire it into the path that should have called it — and moving it
under ``tests/`` is not one of them.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: Reason 1 — a reference implementation or closed form that a remaining
#: test holds reachable code to.
REFERENCE = "reference a remaining test holds reachable code to"
#: Reason 2 — a fault model the chaos tests inject to exercise retry /
#: deadline handling.
FAULT_MODEL = "fault model the chaos tests inject"

#: ``module`` or ``module:name`` → one of the two reasons above. At most ten.
#: Rules 1 and 2 only; rule 3 has no allowlist.
ALLOWLIST = {
    # event-level simulation of one node; tests/serving/test_node_sim.py holds
    # RetrievalCostModel.waves (every figure's batching closed form) to it
    "repro.serving.node_sim": REFERENCE,
    # the hand-advanced reference clock: tests/obs and the retry-accounting
    # tests hold Tracer durations and shard latency_s to exact values with it
    "repro.obs.trace:ManualClock": REFERENCE,
    # canonical structure-only form of a span tree; tests/obs/
    # test_trace_golden.py holds every traced path to its golden skeleton
    "repro.obs.trace:trace_skeleton": REFERENCE,
    "repro.serving.faults:TransientFault": FAULT_MODEL,
    "repro.serving.faults:OutageWindow": FAULT_MODEL,
    "repro.serving.faults:Straggler": FAULT_MODEL,
}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse(paths):
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}


SRC_TREES = _parse(sorted(PACKAGE.rglob("*.py")))
ROOT_TREES = _parse(
    sorted((REPO / "examples").glob("*.py")) + sorted((REPO / "benchmarks").rglob("*.py"))
)
MODULES = {_module_name(p): p for p in SRC_TREES}
PACKAGES = {_module_name(p) for p in SRC_TREES if p.name == "__init__.py"}


def _is_root(path):
    return path == PACKAGE / "cli.py" or path.parent == PACKAGE / "experiments"


def _is_type_checking(node):
    """An ``if TYPE_CHECKING:`` (or ``typing.TYPE_CHECKING``) statement."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _walk(tree):
    """``ast.walk`` without the bodies of ``if TYPE_CHECKING:`` blocks: an
    import only a type checker runs is not a use."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if _is_type_checking(node):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _from_imports(path, tree):
    """``(base module, imported name)`` for every ``from base import name``
    and ``(module, None)`` for every ``import module``, relative imports
    resolved, anything outside ``repro`` dropped."""
    inside = path in SRC_TREES
    package = None
    if inside:
        name = _module_name(path)
        package = name if name in PACKAGES else name.rpartition(".")[0]
    for node in _walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if not inside:
                    continue
                up = package.split(".")
                up = up[: len(up) - (node.level - 1)]
                base = ".".join(up + ([base] if base else []))
            if base.split(".")[0] != "repro":
                continue
            for alias in node.names:
                yield base, alias.name


@lru_cache(maxsize=None)
def _reexports(package):
    """name → the module a package ``__init__`` imports it from."""
    path = MODULES[package]
    return {name: base for base, name in _from_imports(path, SRC_TREES[path]) if name}


def _defining_module(base, name):
    """The non-package module a ``from base import name`` really loads code
    from: a submodule, or — through any chain of ``__init__`` re-exports —
    the module that defines ``name``. A re-export is a signpost, not a use."""
    seen = set()
    while name is not None and (base, name) not in seen:
        seen.add((base, name))
        if f"{base}.{name}" in MODULES:
            base, name = f"{base}.{name}", None
        elif base in PACKAGES:
            base = _reexports(base).get(name)
        else:
            break
    return base if base in MODULES and base not in PACKAGES else None


def _imports(path, tree):
    found = set()
    for base, name in _from_imports(path, tree):
        module = _defining_module(base, name)
        if module is not None:
            found.add(module)
    return found


@lru_cache(maxsize=None)
def _reachable_modules():
    frontier = set()
    for path, tree in ROOT_TREES.items():
        frontier |= _imports(path, tree)
    for path, tree in SRC_TREES.items():
        if _is_root(path) and path.name != "__init__.py":
            frontier.add(_module_name(path))
    reached = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        path = MODULES[module]
        frontier |= _imports(path, SRC_TREES[path]) - reached
    return reached


def _docstrings(tree):
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                skip.add(id(body[0].value))
    return skip


def _all_assignment(node):
    return isinstance(node, (ast.Assign, ast.AugAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__"
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
    )


def _references(path, tree):
    """``(identifier, line)`` for every code reference in one file."""
    is_init = path.name == "__init__.py"
    docstrings = _docstrings(tree)
    stack = [tree]
    while stack:
        node = stack.pop()
        if _all_assignment(node):
            continue  # an export list names things; it does not use them
        if _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if not is_init:
                for alias in node.names:
                    yield alias.name.rpartition(".")[2], node.lineno
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            for part in re.split(r"[.:]", node.value):
                if part.isidentifier():
                    yield part, node.lineno
        stack.extend(ast.iter_child_nodes(node))


def _public_definitions():
    for path, tree in SRC_TREES.items():
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                yield path, node


@lru_cache(maxsize=None)
def _unreferenced_names():
    uses = {node.name: [] for _, node in _public_definitions()}
    for path, tree in {**SRC_TREES, **ROOT_TREES}.items():
        for name, line in _references(path, tree):
            if name in uses:
                uses[name].append((path, line))
    return frozenset(
        f"{_module_name(path)}:{node.name}"
        for path, node in _public_definitions()
        if all(
            p == path and node.lineno <= line <= node.end_lineno
            for p, line in uses[node.name]
        )
    )


#: The paper's Table 2 (``repro.core.config``): exempt from rule 3.
TABLE_2 = "HermesConfig"


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _config_fields():
    """``(path, class, field)`` for every defaulted field of a dataclass
    named ``*Config`` / ``*Policy`` under ``src/repro``, Table 2 aside."""
    for path, tree in SRC_TREES.items():
        for node in _walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(("Config", "Policy"))
                and node.name != TABLE_2
                and _is_dataclass(node)
            ):
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and stmt.value is not None
                        and "ClassVar" not in ast.unparse(stmt.annotation)
                    ):
                        yield path, node.name, stmt.target.id


@lru_cache(maxsize=None)
def _keyword_calls():
    """``(callee, keyword)`` for every call with a keyword argument in a
    non-test file, the callee's name resolved through that file's import
    aliases (``replace as dc_replace`` is ``replace``)."""
    found = set()
    for tree in {**SRC_TREES, **ROOT_TREES}.values():
        nodes = list(_walk(tree))
        aliases = {
            alias.asname: alias.name.rpartition(".")[2]
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if alias.asname
        }
        for node in nodes:
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                callee = aliases.get(callee, callee)
                found.update((callee, kw.arg) for kw in node.keywords if kw.arg)
    return frozenset(found)


def _unset_config_fields():
    calls = _keyword_calls()
    return sorted(
        f"{_module_name(path)}:{cls}.{name}"
        for path, cls, name in _config_fields()
        if (cls, name) not in calls and ("replace", name) not in calls
    )


def test_found_the_tree():
    assert "repro.cli" in MODULES and "repro.core.hierarchical" in MODULES
    assert any(p.name == "quickstart.py" for p in ROOT_TREES)
    assert any(p.parent.name == "suite" for p in ROOT_TREES)
    assert any(_is_root(p) and p.name == "fig21.py" for p in SRC_TREES)
    classes = {cls for _, cls, _ in _config_fields()}
    assert {"AdmissionConfig", "PipelineConfig", "RetrievalPolicy"} <= classes
    assert TABLE_2 not in classes


def test_every_module_is_imported_from_a_root():
    reached = _reachable_modules()
    orphans = sorted(
        m
        for m in MODULES
        if m not in PACKAGES and m not in reached and m not in ALLOWLIST
    )
    assert orphans == [], (
        "no CLI verb, experiment, example or benchmark imports:\n  "
        + "\n  ".join(orphans)
        + "\ndelete the module (with its tests, exports and doc rows) or wire it in"
    )


def test_every_public_name_is_used_outside_its_definition():
    unused = sorted(
        n
        for n in _unreferenced_names()
        if n not in ALLOWLIST and n.partition(":")[0] not in ALLOWLIST
    )
    assert unused == [], (
        "public names no non-test code references:\n  "
        + "\n  ".join(unused)
        + "\ndelete the name (with its tests, exports and doc rows) or wire it in"
    )


def test_allowlist_is_short_justified_and_live():
    assert len(ALLOWLIST) <= 10
    assert set(ALLOWLIST.values()) <= {REFERENCE, FAULT_MODEL}
    defined = {f"{_module_name(p)}:{n.name}" for p, n in _public_definitions()}
    stale = [e for e in ALLOWLIST if e not in MODULES and e not in defined]
    assert stale == [], f"allowlist entries that no longer exist: {stale}"
    # an entry the rules would pass anyway is not an exception any more
    flagged = _unreferenced_names() | (set(MODULES) - _reachable_modules())
    idle = [e for e in ALLOWLIST if e not in flagged]
    assert idle == [], f"allowlist entries the fence no longer needs: {idle}"


def test_every_config_field_is_set_outside_tests():
    unset = _unset_config_fields()
    assert unset == [], (
        "config fields no non-test code sets by keyword:\n  "
        + "\n  ".join(unset)
        + "\nmake the default a module constant (and delete the field) or "
        "wire in the caller that needs another value"
    )
