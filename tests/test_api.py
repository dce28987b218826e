"""The public API: every exported name resolves, and __all__ is exactly the
sorted, duplicate-free set of public names that the package's __init__
imports, so a later deletion cannot leave a dangling export."""

import ast
import pathlib

import tailbound

INIT = pathlib.Path(tailbound.__file__)


def imported_public_names() -> set:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return {n for n in names if not n.startswith("_")}


def test_every_export_resolves():
    for name in tailbound.__all__:
        assert getattr(tailbound, name, None) is not None, name


def test_all_is_sorted_without_duplicates():
    assert tailbound.__all__ == sorted(tailbound.__all__)
    assert len(set(tailbound.__all__)) == len(tailbound.__all__)


def test_all_equals_the_imported_public_names():
    assert set(tailbound.__all__) == imported_public_names()
