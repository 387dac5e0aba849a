"""Resource caps and error surfaces."""

import ast
import pathlib

import pytest

from gl2lab.errors import ResourceLimit, check_cap, max_elems
from gl2lab.padic import get_context
from gl2lab.tree import enumerate_vertices


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", "100")
    assert max_elems() == 100
    with pytest.raises(ResourceLimit):
        check_cap(101, "test enumeration")
    check_cap(100, "test enumeration")
    monkeypatch.delenv("GL2LAB_MAX_ELEMS")
    assert max_elems(500) == 500


def test_tree_enumeration_respects_cap(monkeypatch):
    ctx = get_context(2, 1, 8)
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", "5")
    with pytest.raises(ResourceLimit):
        enumerate_vertices(ctx, 3)
    monkeypatch.delenv("GL2LAB_MAX_ELEMS")
    assert len(enumerate_vertices(ctx, 3)) == 22


def test_census_cap(monkeypatch):
    from gl2lab.curves import enumerate_curves
    with pytest.raises(ResourceLimit):
        enumerate_curves(17)          # default cap is q <= 16
    # the caps are checked on every call, also once the census is cached
    assert len(enumerate_curves(7)) == 18
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", "100")
    with pytest.raises(ResourceLimit):
        enumerate_curves(7)


def test_no_assert_statements_in_src():
    # checks must survive python -O, so none of them is an assert
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "gl2lab"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
