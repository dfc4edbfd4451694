"""The docs name things that exist.

A pure-AST fence like ``test_reachability.py`` (no import of ``repro``; well
under a second): every back-ticked CamelCase name in README.md, DESIGN.md and
EXPERIMENTS.md is a ``class`` / ``def`` somewhere under ``src/repro``, and
every back-ticked ``Class.attr`` names a method, a class-body name (field,
enum member) or a ``self.attr`` the class assigns. A deleted or renamed class
that a doc still points at fails here, next to the reachability fence that
made the deletion safe.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: Back-ticked CamelCase names that are not ``src/repro`` code: stdlib or
#: test-suite names a doc has reason to mention. At most five.
ALLOWLIST = {"ValueError", "TestBatchInsertOracle"}

INLINE_CODE = re.compile(r"`([^`\n]+)`")
#: ``tests/x.py::TestClass::test_name`` names a test, not ``repro`` code
PYTEST_NODE_ID = re.compile(r"\S*::\S*")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _is_camel_case(word):
    return (
        word[0].isupper()
        and "_" not in word
        and any(c.islower() for c in word)
        and sum(c.isupper() for c in word) >= 2
    )


def _definitions():
    """``(top-level and nested def/class names, class name → attribute names)``
    over every module in ``src/repro``; a class's attributes include those of
    its bases that are defined here too."""
    names, attrs, bases = set(), {}, {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.ClassDef):
                names.add(node.name)
                own = attrs.setdefault(node.name, set())
                bases.setdefault(node.name, set()).update(
                    b.id for b in node.bases if isinstance(b, ast.Name)
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        own.add(item.name)
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        own.add(item.target.id)
                    elif isinstance(item, ast.Assign):
                        own.update(t.id for t in item.targets if isinstance(t, ast.Name))
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        own.add(sub.attr)

    def inherited(cls, seen=()):
        found = set(attrs.get(cls, ()))
        for base in bases.get(cls, ()):
            if base not in seen:
                found |= inherited(base, (*seen, cls))
        return found

    return names, {cls: inherited(cls) for cls in attrs}


NAMES, ATTRS = _definitions()


def _unresolved(text):
    """``(line, name)`` for every back-ticked name *text* gets wrong."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for span in INLINE_CODE.findall(line):
            for chain in DOTTED.findall(PYTEST_NODE_ID.sub(" ", span)):
                parts = chain.split(".")
                for part, attr in zip(parts, parts[1:] + [None]):
                    if part in ALLOWLIST:
                        continue
                    if _is_camel_case(part) and part not in NAMES:
                        yield lineno, part
                    elif part in ATTRS and attr is not None and attr not in ATTRS[part]:
                        yield lineno, f"{part}.{attr}"


def test_found_the_definitions():
    assert "HermesSearcher" in NAMES and "simulate_generation" in NAMES
    assert "search" in ATTRS["IVFIndex"]  # a method
    assert "clusters_to_search" in ATTRS["HermesConfig"]  # a dataclass field
    assert "ENHANCED" in ATTRS["DVFSPolicy"]  # an enum member
    assert "cluster" in ATTRS["MultiNodeModel"]  # assigned on self
    assert "search" in ATTRS["HermesSearcher"]  # inherited


def test_the_fence_catches_a_stale_name():
    text = "the `HermesSearcher.search` path\nthen `StridedRAGSession` or `IVFIndex.nope`\n"
    assert list(_unresolved(text)) == [(2, "StridedRAGSession"), (2, "IVFIndex.nope")]


def test_every_backticked_name_in_the_docs_resolves():
    stale = [
        f"{doc}:{line}: `{name}`"
        for doc in DOCS
        for line, name in _unresolved((REPO / doc).read_text())
    ]
    assert stale == [], (
        "docs name code that is not in src/repro:\n  "
        + "\n  ".join(stale)
        + "\nport the sentence to what replaced it (or fix the name)"
    )


def test_allowlist_is_short_and_live():
    assert len(ALLOWLIST) <= 5
    assert not ALLOWLIST & NAMES, "an allowlisted name is repro code now"
    mentioned = " ".join((REPO / doc).read_text() for doc in DOCS)
    idle = sorted(n for n in ALLOWLIST if f"{n}" not in mentioned)
    assert idle == [], f"allowlist entries no doc mentions: {idle}"
