"""Exports cannot dangle: every package ``__all__`` matches its ``__init__``.

The re-export ``__init__`` files carry ``F401`` per-file ignores
(``pyproject.toml``), so a linter will not notice a name that is imported
but no longer listed, or listed but no longer importable. For each package
with an ``__all__``: every listed name resolves, none is listed twice, and
the public names the ``__init__`` binds are exactly the listed ones.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
PACKAGES = sorted(
    ".".join(("repro", *path.parent.relative_to(ROOT).parts))
    for path in ROOT.rglob("__init__.py")
    if "__all__" in path.read_text()
)


def _bound_public_names(package):
    """Public names the package ``__init__`` imports or assigns, in order."""
    path = Path(importlib.import_module(package).__file__)
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    # ``__version__`` is the one dunder a package lists.
    return [n for n in names if n == "__version__" or not n.startswith("_")]


def test_found_the_packages():
    assert len(PACKAGES) == 12
    assert {"repro", "repro.ann", "repro.core", "repro.serving"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_matches_what_the_init_binds(package):
    module = importlib.import_module(package)
    listed = list(module.__all__)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    unresolved = [n for n in listed if not hasattr(module, n)]
    assert unresolved == [], f"{package}.__all__ lists names that do not resolve"
    bound = _bound_public_names(package)
    assert len(bound) == len(set(bound)), "a name is imported twice"
    assert sorted(bound) == sorted(listed), (
        f"{package}: imported but unlisted {sorted(set(bound) - set(listed))}, "
        f"listed but not imported {sorted(set(listed) - set(bound))}"
    )
