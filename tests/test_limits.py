"""Resource caps and error surfaces."""

import ast
import pathlib

import pytest

from gl2lab.errors import DomainError, ResourceLimit, check_cap, max_elems
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
    # the cap is q^3 <= 2,000,000: q = 125 is the last prime power under it
    assert len(enumerate_curves(17)) == 36
    with pytest.raises(ResourceLimit):
        enumerate_curves(128)
    # the cap is checked on every call, also once the census is cached
    assert len(enumerate_curves(7)) == 18
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", "100")
    with pytest.raises(ResourceLimit):
        enumerate_curves(7)


def test_number_searches_respect_cap(monkeypatch):
    from gl2lab.padic import _is_prime, factor_prime_power, smallest_irreducible
    # exact below the cap: primes, prime powers and the rest up to 1000
    primes = [n for n in range(1000) if n > 1
              and all(n % d for d in range(2, n))]
    assert [n for n in range(1000) if _is_prime(n)] == primes
    for q in range(2, 1000):
        p = min(d for d in range(2, q + 1) if q % d == 0)
        r = next((k for k in range(1, 11) if p**k == q), None)
        if r is None:
            with pytest.raises(DomainError):
                factor_prime_power(q)
        else:
            assert factor_prime_power(q) == (p, r)
    # the trial division reads up to sqrt(n), the irreducibility search
    # p^(r // 2) divisors per candidate; both are capped before they start
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", "30")
    assert _is_prime(953) and factor_prime_power(29**2) == (29, 2)
    with pytest.raises(ResourceLimit):
        _is_prime(1021)
    with pytest.raises(ResourceLimit):
        factor_prime_power(1024)
    assert len(smallest_irreducible(2, 9)) == 10
    with pytest.raises(ResourceLimit):
        smallest_irreducible(2, 10)


def _raises_assertion_error(node):
    """`raise AssertionError` or `raise AssertionError(...)`."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _assertions(path):
    """Lines of a module that hold an assert or raise AssertionError."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Raise) and node.exc is not None
            and _raises_assertion_error(node)]


def test_no_assert_statements_in_src():
    # checks must survive python -O, so none of them is an assert, and a
    # broken identity is a BrokenIdentity (exit 1), not an AssertionError
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "gl2lab"
    found = []
    for path in sorted(src.glob("*.py")):
        found.extend(_assertions(path))
    assert found == []


def test_the_assertion_scan_sees_both_forms(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(x):\n    assert x\n    if x:\n"
                    "        raise AssertionError('no')\n"
                    "    raise AssertionError\n"
                    "    raise ValueError('fine')\n")
    assert sorted(_assertions(path)) == ["sample.py:2", "sample.py:4",
                                         "sample.py:5"]


def _unused_imports(path):
    """Names a module imports but never reads (re-exports in __all__ count)."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    root = pathlib.Path(__file__).resolve().parent.parent
    found = []
    for folder in ("src/gl2lab", "tests", "demos"):
        for path in sorted((root / folder).glob("*.py")):
            found.extend(_unused_imports(path))
    assert found == []

