"""Symbols, reconstruction, and the involution."""

import itertools

import pytest
from hypothesis import given, strategies as st

import mulli.symbols
from mulli import (
    Symbol,
    conjugate,
    is_p_regular,
    is_self_mullineux,
    mullineux_map,
    mullineux_symbol,
    partitions_of,
    reconstruct,
    validate_symbol,
)

partitions = st.lists(st.integers(1, 10), max_size=7).map(lambda xs: tuple(sorted(xs, reverse=True)))
odd_p = st.sampled_from((3, 5, 7))


def test_symbol_golden():
    sym = mullineux_symbol((9, 6, 3, 1), 5)
    assert (sym.a, sym.r) == ((9, 5, 5), (4, 2, 2))
    assert sym.to_text() == "9 5 5 / 4 2 2"
    assert sym.size == 19


def test_symbol_small_golden():
    # the 3-rim of (3,1) is the whole diagram (runs (1,3),(1,2),(1,1)
    # then (2,1)), so one column records a=4 over r=2
    assert mullineux_symbol((3, 1), 3).columns() == ((4, 2),)
    assert mullineux_symbol((), 3).columns() == ()
    assert mullineux_symbol((1,), 3).columns() == ((1, 1),)


def test_symbol_rejects_irregular():
    with pytest.raises(ValueError):
        mullineux_symbol((2, 1, 1, 1), 3)


def test_symbol_class_validation():
    with pytest.raises(ValueError):
        Symbol(3, (3, 2), (1,))
    with pytest.raises(ValueError):
        Symbol(3, (3, 0), (1, 1))
    with pytest.raises(ValueError):
        Symbol(4, (3,), (1,))
    with pytest.raises(ValueError):
        Symbol(3, (3,), (1,), kind="other")


def test_symbol_eps():
    sym = Symbol(5, (9, 5, 5), (4, 2, 2))
    assert [sym.eps(i) for i in range(3)] == [1, 0, 0]


def test_symbol_text_forms():
    sym = Symbol(5, (9, 5, 5), (4, 2, 2))
    assert Symbol.from_text(sym.to_text(), 5) == sym
    assert Symbol(3, (), ()).to_text() == "/"
    assert Symbol.from_text("/", 3) == Symbol(3, (), ())
    for text, entry in [("a / b", "a"), ("1 x / 2", "x"), ("1.5 / 1", "1.5"), ("1 / 2 / 3", "/")]:
        with pytest.raises(ValueError) as err:
            Symbol.from_text(text, 3)
        assert str(err.value) == f"cannot parse symbol entry {entry!r} in {text!r}"


def test_symbol_json_forms():
    sym = Symbol(5, (9, 5, 5), (4, 2, 2))
    assert sym.to_json_dict() == {"p": 5, "a": [9, 5, 5], "r": [4, 2, 2]}
    assert Symbol.from_json_dict(sym.to_json_dict()) == sym
    bg = Symbol(3, (5,), (3,), kind="bg")
    assert bg.to_json_dict()["kind"] == "bg"
    assert Symbol.from_json_dict(bg.to_json_dict()) == bg


def test_validate_symbol():
    ok, why = validate_symbol(Symbol(5, (9, 5, 5), (4, 2, 2)))
    assert ok and why == ""
    ok, why = validate_symbol(Symbol(3, (5,), (5,)))
    assert not ok and "condition (2)" in why
    ok, why = validate_symbol(Symbol(3, (7,), (2,)))
    assert not ok and "condition (4)" in why
    assert validate_symbol(Symbol(3, (), ())) == (True, "")
    assert validate_symbol(Symbol(3, (4, 1), (1, 1))) == (False, "condition (1) fails at column 0: r_0-r_1 = 0, allowed [1, 4)")
    assert validate_symbol(Symbol(3, (2, 1), (2, 1))) == (False, "condition (3) fails at column 0: a_0-a_1 = 1, allowed [2, 5)")
    # r_0 - r_1 = p + eps_0 is one past condition (1)'s upper bound; both symbols meet conditions (2)-(4)
    assert validate_symbol(Symbol(3, (6, 1), (4, 1))) == (False, "condition (1) fails at column 0: r_0-r_1 = 3, allowed [0, 3)")
    assert validate_symbol(Symbol(3, (7, 1), (5, 1))) == (False, "condition (1) fails at column 0: r_0-r_1 = 4, allowed [1, 4)")
    with pytest.raises(ValueError) as err:
        Symbol.from_text("1 2", 3)
    assert str(err.value) == "symbol text needs a '/': '1 2'"


def test_reconstruct_golden():
    assert reconstruct(Symbol(5, (9, 5, 5), (4, 2, 2))) == (9, 6, 3, 1)
    assert reconstruct(Symbol(5, (9, 5, 5), (6, 3, 3))) == (5, 5, 5, 2, 1, 1)
    assert reconstruct(Symbol(3, (4,), (2,))) == (3, 1)
    assert reconstruct(Symbol(3, (), ())) == ()


def test_one_column_symbols_rebuild_to_hooks():
    # the last column grows on r empty rows, like every other column
    count = 0
    for p in (3, 5, 7, 9, 15):
        for a, r in itertools.product(range(1, 3 * p), range(1, 2 * p)):
            sym = Symbol(p, (a,), (r,))
            if validate_symbol(sym)[0]:
                count += 1
                assert reconstruct(sym) == (a - r + 1,) + (1,) * (r - 1), sym
    assert count == 384


@pytest.mark.parametrize(
    "a, r, message",
    [
        ((1, 3), (1, 2), "growth of column 0 produced the wrong row count"),
        ((2, 1), (1, 2), "rim growth reached row 1 with 4 of 1 cells placed"),
        ((1,), (5,), "rim growth reached row 1 with 7 of 1 cells placed"),
    ],
)
def test_reconstruct_reports_bogus_trusted_columns(a, r, message):
    with pytest.raises(RuntimeError) as err:
        mulli.symbols._reconstruct(a, r, 3)
    assert str(err.value) == message


@pytest.mark.parametrize("grown, message", [([2, 1], "growth broke row monotonicity: [2, 4]"), ([-3, 3], "growth broke row monotonicity: [4, -1]")])
def test_reconstruct_checks_the_rows_it_grew(monkeypatch, grown, message):
    # no column makes the real growth step break the rows, so a bogus one stands in; it places the 6 or 3 cells asked for
    monkeypatch.setattr(mulli.symbols, "_grow", lambda c, first, p: list(grown))
    with pytest.raises(RuntimeError) as err:
        mulli.symbols._reconstruct((sum(grown) + 3,), (2,), 3)
    assert str(err.value) == message


def test_reconstruct_rejects_invalid():
    with pytest.raises(ValueError):
        reconstruct(Symbol(3, (5,), (5,)))


def test_mullineux_map_golden():
    assert mullineux_map((9, 6, 3, 1), 5) == (5, 5, 5, 2, 1, 1)
    assert mullineux_map((5, 5, 5, 2, 1, 1), 5) == (9, 6, 3, 1)
    assert mullineux_map((10, 4, 4), 3) == (10, 4, 4)
    assert mullineux_map((2, 1), 5) == (2, 1)
    assert mullineux_map((), 3) == ()


def test_is_self_mullineux_golden():
    assert is_self_mullineux((9, 4, 4, 1), 3)
    assert is_self_mullineux((10, 4, 4), 3)
    assert not is_self_mullineux((9, 6, 3, 1), 5)


def test_small_sizes_degenerate_to_conjugation():
    for n in range(5):
        for lam in partitions_of(n):
            assert mullineux_map(lam, 7) == conjugate(lam)


def test_exhaustive_involution_small():
    for n, p in itertools.product(range(11), (3, 5)):
        for lam in partitions_of(n):
            if not is_p_regular(lam, p):
                continue
            sym = mullineux_symbol(lam, p)
            assert validate_symbol(sym) == (True, "")
            assert reconstruct(sym) == lam
            mu = mullineux_map(lam, p)
            assert sum(mu) == n
            assert mullineux_map(mu, p) == lam
            assert is_self_mullineux(lam, p) == (mu == lam)


@given(partitions, odd_p)
def test_symbol_round_trip(lam, p):
    if not is_p_regular(lam, p):
        lam = tuple(sorted(set(lam), reverse=True))  # distinct parts are always p-regular
    assert reconstruct(mullineux_symbol(lam, p)) == lam


@given(partitions, odd_p)
def test_involution(lam, p):
    if not is_p_regular(lam, p):
        lam = tuple(sorted(set(lam), reverse=True))
    assert mullineux_map(mullineux_map(lam, p), p) == lam


def test_is_self_mullineux_keeps_its_errors():
    with pytest.raises(ValueError, match=r"\(2, 1, 1, 1\) is not 3-regular"):
        is_self_mullineux((2, 1, 1, 1), 3)
    with pytest.raises(ValueError, match="weakly decreasing"):
        is_self_mullineux((1, 3), 3)
    with pytest.raises(ValueError, match="p must be an odd integer"):
        is_self_mullineux((3, 1), 4)


def test_reconstruct_enforces_the_size_cap_before_growing():
    at_cap = reconstruct(Symbol(10**6 + 1, (10**6,), (10**6,)))
    assert at_cap == (1,) * 10**6
    with pytest.raises(ValueError, match="exceeds the size cap"):
        reconstruct(Symbol(2 * 10**6 + 1, (2 * 10**6,), (2 * 10**6,)))
    # a valid one-column symbol at p near 10^9 would otherwise allocate 10^9 rows
    with pytest.raises(ValueError, match="exceeds the size cap"):
        reconstruct(Symbol(10**9 + 7, (10**9,), (10**9,)))
    with pytest.raises(ValueError, match="invalid symbol"):
        reconstruct(Symbol(10**9 + 7, (10**9,), (10**9 + 1,)))
