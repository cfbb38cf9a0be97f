"""BG symbols, layer growth, and the two bijection directions."""

import pytest
from hypothesis import given, strategies as st

import mulli.bg
import mulli.partitions
import mulli.render
import mulli.symbols
from mulli import (
    MAX_CELLS,
    add_rim_star_layer,
    bg_symbol,
    bg_to_mull,
    is_bg_partition,
    is_self_mullineux,
    mull_to_bg,
    mullineux_map,
    mullineux_symbol,
    p_rim_star,
    remove_p_rim_star,
    render_peeled,
    self_conjugate_from_diagonal_hooks,
)

self_conjugates = st.sets(st.integers(0, 9), max_size=5).map(
    lambda ks: self_conjugate_from_diagonal_hooks(tuple(sorted((2 * k + 1 for k in ks), reverse=True)))
)
odd_p = st.sampled_from((3, 5, 7))


def test_bg_symbol_golden():
    sym = bg_symbol((6, 5, 5, 3, 3, 1), 3)
    assert (sym.a, sym.r) == ((11, 6, 5, 1), (6, 3, 3, 1))
    assert sym.kind == "bg"
    assert sym.to_text() == "11 6 5 1 / 6 3 3 1"


def test_bg_symbol_second_golden():
    # peeling (9,2,1^7): 7-cell rim*, then 6, then 5
    sym = bg_symbol((9, 2, 1, 1, 1, 1, 1, 1, 1), 3)
    assert (sym.a, sym.r) == ((7, 6, 5), (4, 3, 3))


def test_bg_symbol_empty():
    assert bg_symbol((), 3).columns() == ()


def test_bg_symbol_rejects_asymmetric():
    with pytest.raises(ValueError):
        bg_symbol((3, 1), 3)


def test_add_rim_star_layer_golden():
    base = (6, 4, 2, 2, 1, 1)
    assert add_rim_star_layer(base, 0, 0, 3) == (9, 7, 2, 2, 2, 2, 2, 1, 1)
    assert add_rim_star_layer(base, 1, 2, 3) == (9, 7, 5, 3, 3, 2, 2, 1, 1)


def test_add_rim_star_layer_on_empty():
    # a layer on nothing is a symmetric hook
    assert add_rim_star_layer((), 1, 0, 3) == (1,)
    assert add_rim_star_layer((), 1, 2, 3) == (3, 1, 1)


@pytest.mark.parametrize(
    "base, eps, m",
    [
        ((1,), 2, 0),
        ((1,), 0, 1),
        ((1,), 1, 3),
        ((1,), 1, -1),
        ((), 0, 0),
        ((3, 1), 1, 0),
    ],
)
def test_add_rim_star_layer_rejects(base, eps, m):
    with pytest.raises(ValueError):
        add_rim_star_layer(base, eps, m, 3)


@given(self_conjugates, st.integers(0, 6), odd_p, st.booleans())
def test_layer_contract(base, m, p, diagonal):
    m %= p
    eps = 1 if (m or not base or diagonal) else 0  # eps=0 demands m=0 and a nonempty base
    grown = add_rim_star_layer(base, eps, m, p)
    star = p_rim_star(grown, p)
    assert star.eps_star == eps
    assert (star.r_star - star.eps_star) % p == m
    assert remove_p_rim_star(grown, p) == base


def test_bg_to_mull_golden():
    assert bg_to_mull((9, 2, 1, 1, 1, 1, 1, 1, 1), 3) == (9, 4, 4, 1)
    assert bg_to_mull((6, 5, 2, 2, 2, 1), 3) == (10, 4, 4)
    assert bg_to_mull((7, 4, 2, 2, 1, 1, 1), 3) == (7, 5, 2, 2, 1, 1)
    assert bg_to_mull((), 3) == ()


def test_bg_to_mull_rejects_non_bg():
    with pytest.raises(ValueError):
        bg_to_mull((5, 4, 4, 4, 1), 3)  # self-conjugate, but h_11 = 9
    with pytest.raises(ValueError):
        bg_to_mull((3, 1), 3)


def test_mull_to_bg_golden():
    assert mull_to_bg((7, 6, 3, 2, 2), 5) == (7, 5, 2, 2, 2, 1, 1)
    assert mull_to_bg((9, 4, 4, 1), 3) == (9, 2, 1, 1, 1, 1, 1, 1, 1)
    assert mull_to_bg((10, 4, 4), 3) == (6, 5, 2, 2, 2, 1)
    assert mull_to_bg((), 3) == ()


def test_mull_to_bg_guards_the_last_column(monkeypatch):
    # a fixed point's last column has eps = 1; (6; 3) is fixed at p = 3 but has eps = 0
    monkeypatch.setattr(mulli.bg, "_columns", lambda lam, p, star=False: ((6,), (3,)))
    with pytest.raises(RuntimeError) as err:
        mull_to_bg((3, 2, 1), 3)
    assert str(err.value) == "last column of 6 / 3 has eps = 0; impossible for a fixed point"


def test_mull_to_bg_checks_every_intermediate(monkeypatch):
    monkeypatch.setattr(mulli.bg, "_has_hook_divisible", lambda arms, p: True)
    with pytest.raises(RuntimeError) as err:
        mull_to_bg((7, 6, 3, 2, 2), 5)
    assert str(err.value) == "intermediate (2, 1) is not a BG-partition for p=5"


def test_mull_to_bg_partner_symbol():
    # the partner keeps the symbol, reinterpreted
    assert mullineux_symbol((7, 6, 3, 2, 2), 5).columns() == ((10, 5), (7, 4), (3, 2))
    assert bg_symbol((7, 5, 2, 2, 2, 1, 1), 5).columns() == ((10, 5), (7, 4), (3, 2))


def test_mull_to_bg_rejects_moved_partitions():
    with pytest.raises(ValueError):
        mull_to_bg((9, 6, 3, 1), 5)
    with pytest.raises(ValueError):
        mull_to_bg((2, 1, 1, 1), 3)  # not even 3-regular


@given(self_conjugates, odd_p)
def test_round_trip_from_bg_side(lam, p):
    if not is_bg_partition(lam, p):
        return
    mu = bg_to_mull(lam, p)
    assert is_self_mullineux(mu, p)
    assert sum(mu) == sum(lam)
    assert mull_to_bg(mu, p) == lam


def test_add_rim_star_layer_enforces_the_size_cap_before_mirroring():
    # an off-diagonal layer on (1,) grows row 1 by p cells: 2p + 1 in all
    assert sum(add_rim_star_layer((1,), 0, 0, 499999)) == 999999
    with pytest.raises(ValueError, match="exceeds the size cap"):
        add_rim_star_layer((1,), 0, 0, 500001)
    with pytest.raises(ValueError, match="exceeds the size cap"):
        add_rim_star_layer((1,), 0, 0, 2 * 10**6 + 1)


def test_add_rim_star_layer_accepts_exactly_max_cells():
    # a diagonal layer at p = 3 on the hook (k, 1^(k-1)) adds 7 cells: exactly MAX_CELLS at k = 499997
    grown = add_rim_star_layer((499997,) + (1,) * 499996, 1, 0, 3)
    assert sum(grown) == MAX_CELLS
    with pytest.raises(ValueError, match="grown partition of 1000002 cells exceeds the size cap"):
        add_rim_star_layer((499998,) + (1,) * 499997, 1, 0, 3)


def test_the_maps_validate_their_input_once(monkeypatch):
    calls = {"as_partition": 0, "check_odd_p": 0, "validate_symbol": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        real = getattr(mulli.symbols, name, None) or getattr(mulli.partitions, name)
        for module in (mulli.partitions, mulli.symbols, mulli.bg, mulli.render):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, real))
    lam, mu = (9, 2, 1, 1, 1, 1, 1, 1, 1), (9, 4, 4, 1)
    for go, arg in ((mullineux_map, (9, 6, 3, 1)), (bg_to_mull, lam), (mull_to_bg, mu)):
        calls.update(dict.fromkeys(calls, 0))
        go(arg, 3)
        assert calls == {"as_partition": 1, "check_odd_p": 1, "validate_symbol": 0}, go.__name__
    for star, arg in ((False, (9, 6, 3, 1)), (True, lam)):
        calls.update(dict.fromkeys(calls, 0))
        render_peeled(arg, 3, star=star)
        assert calls == {"as_partition": 1, "check_odd_p": 1, "validate_symbol": 0}, f"render_peeled, star={star}"
    # the hooks are checked by their own rule; the rebuilt partition is checked by the private kernels
    calls.update(dict.fromkeys(calls, 0))
    assert self_conjugate_from_diagonal_hooks((17, 1)) == lam
    assert calls == {"as_partition": 0, "check_odd_p": 0, "validate_symbol": 0}
