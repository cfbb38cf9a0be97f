"""Rim walks against the border-cell oracle and hand-walked goldens."""

import pytest
from hypothesis import given, strategies as st

import mulli.rims
from mulli import p_rim, p_rim_star, remove_p_rim, remove_p_rim_star, rim, self_conjugate_from_diagonal_hooks


def cells(lam):
    return {(i, j) for i, part in enumerate(lam, start=1) for j in range(1, part + 1)}


partitions = st.lists(st.integers(1, 12), min_size=1, max_size=8).map(lambda xs: tuple(sorted(xs, reverse=True)))
odd_p = st.sampled_from((3, 5, 7, 9))
self_conjugates = st.sets(st.integers(0, 9), min_size=1, max_size=5).map(
    lambda ks: self_conjugate_from_diagonal_hooks(tuple(sorted((2 * k + 1 for k in ks), reverse=True)))
)


def test_rim_golden():
    assert rim((2, 2)) == ((1, 2), (2, 2), (2, 1))
    assert rim((1,)) == ((1, 1),)
    assert len(rim((9, 6, 3, 1))) == 12


def test_rim_rejects_empty():
    with pytest.raises(ValueError):
        rim(())
    for peel in (p_rim, remove_p_rim, p_rim_star, remove_p_rim_star):
        with pytest.raises(ValueError) as err:
            peel((), 3)
        assert str(err.value) == "the empty partition has no rim", peel.__name__


@given(partitions)
def test_rim_is_the_border(lam):
    box = cells(lam)
    assert set(rim(lam)) == {(i, j) for i, j in box if (i + 1, j + 1) not in box}


@given(partitions)
def test_rim_walks_down_left(lam):
    path = rim(lam)
    assert path[0] == (1, lam[0])
    assert path[-1] == (len(lam), 1)
    for (i1, j1), (i2, j2) in zip(path, path[1:]):
        assert (i2, j2) in ((i1, j1 - 1), (i1 + 1, j1))


def test_p_rim_golden_walk():
    # label the border of (9,6,3,1) and cut runs of p, restarting each
    # run on the next row down
    assert p_rim((9, 6, 3, 1), 3).cells == (
        (1, 9), (1, 8), (1, 7),
        (2, 6), (2, 5), (2, 4),
        (3, 3), (3, 2), (3, 1),
        (4, 1),
    )
    assert p_rim((9, 6, 3, 1), 5).cells == (
        (1, 9), (1, 8), (1, 7), (1, 6),
        (2, 6),
        (3, 3), (3, 2), (3, 1),
        (4, 1),
    )


def test_p_rim_segments():
    pr = p_rim((9, 6, 3, 1), 3)
    assert [len(seg) for seg in pr.segments] == [3, 3, 3, 1]
    assert pr.segments[0] == ((1, 9), (1, 8), (1, 7))
    pr5 = p_rim((9, 6, 3, 1), 5)
    assert [len(seg) for seg in pr5.segments] == [5, 4]


def test_p_rim_lists_its_cells_once(monkeypatch):
    calls = []
    real = mulli.rims._tail_cells
    monkeypatch.setattr(mulli.rims, "_tail_cells", lambda *args: calls.append(args) or real(*args))
    pr = p_rim((9, 6, 3, 1), 3)
    for _ in range(2):
        assert sum(pr.segments, ()) == pr.cells
    assert len(calls) == 1
    # the listed cells are no field: equality, hash and repr read the three fields alone
    fresh = p_rim((9, 6, 3, 1), 3)
    assert pr == fresh and hash(pr) == hash(fresh) and repr(pr) == repr(fresh) == "PRim(lam=(9, 6, 3, 1), p=3, counts=(3, 3, 3, 1))"


def test_rim_star_lists_its_upper_half_once(monkeypatch):
    calls = []
    real = mulli.rims._tail_cells
    monkeypatch.setattr(mulli.rims, "_tail_cells", lambda *args: calls.append(args) or real(*args))
    star = p_rim_star((6, 5, 5, 3, 3, 1), 3)
    for _ in range(2):
        assert set(star.cells) == set(star.upper) | set(star.lower) and len(star.cells) == star.a_star == 11
    assert len(calls) == 1
    fresh = p_rim_star((6, 5, 5, 3, 3, 1), 3)
    assert star == fresh and hash(star) == hash(fresh) and repr(star) == repr(fresh)
    assert repr(star) == "PRimStar(lam=(6, 5, 5, 3, 3, 1), counts=(2, 1, 3), a_star=11, r_star=6, eps_star=1)"


def test_remove_p_rim_golden():
    assert remove_p_rim((9, 6, 3, 1), 3) == (6, 3)
    assert remove_p_rim((9, 6, 3, 1), 5) == (5, 5)
    assert remove_p_rim((5, 5), 5) == (4, 1)
    assert remove_p_rim((4, 1), 5) == ()
    assert remove_p_rim((1,), 3) == ()


@given(partitions, odd_p)
def test_remove_p_rim_conserves_cells(lam, p):
    pr = p_rim(lam, p)
    rest = remove_p_rim(lam, p)
    assert sum(rest) == sum(lam) - len(pr)
    assert cells(rest) == cells(lam) - set(pr.cells)


@given(partitions, odd_p)
def test_p_rim_stays_on_the_rim(lam, p):
    assert set(p_rim(lam, p).cells) <= set(rim(lam))


def test_p_rim_star_golden():
    # keep the p-rim cells with row <= col, then mirror:
    # the 3-rim of (6,2,1,1,1,1) is rows 1(cols 4-6), 2(cols 1-2), 3-6(col 1),
    # cut down to (1,4),(1,5),(1,6),(2,2) above the diagonal
    star = p_rim_star((6, 2, 1, 1, 1, 1), 3)
    assert star.upper == ((1, 4), (1, 5), (1, 6), (2, 2))
    assert star.cells == ((1, 4), (1, 5), (1, 6), (2, 2), (4, 1), (5, 1), (6, 1))
    assert (star.a_star, star.r_star, star.eps_star) == (7, 4, 1)


def test_p_rim_star_stats_golden():
    star = p_rim_star((4, 4, 2, 2), 3)
    assert (star.a_star, star.eps_star, star.r_star) == (6, 0, 3)
    star = p_rim_star((3, 2, 1), 3)
    assert (star.a_star, star.eps_star, star.r_star) == (5, 1, 3)


def test_p_rim_star_rejects_asymmetric():
    with pytest.raises(ValueError):
        p_rim_star((3, 1), 3)
    with pytest.raises(ValueError):
        remove_p_rim_star((5, 2, 2, 1), 3)


def test_remove_p_rim_star_golden():
    assert remove_p_rim_star((6, 5, 5, 3, 3, 1), 3) == (4, 4, 2, 2)
    assert remove_p_rim_star((4, 4, 2, 2), 3) == (3, 2, 1)
    assert remove_p_rim_star((3, 2, 1), 3) == (1,)
    assert remove_p_rim_star((1,), 3) == ()


@given(self_conjugates, odd_p)
def test_rim_star_mirror_symmetry(lam, p):
    star = p_rim_star(lam, p)
    assert set(star.lower) == {(j, i) for i, j in star.upper}
    assert 2 * star.r_star == star.a_star + star.eps_star
    assert star.eps_star == sum(1 for i, j in star.upper if i == j)


@given(self_conjugates, odd_p)
def test_remove_p_rim_star_conserves_cells(lam, p):
    star = p_rim_star(lam, p)
    rest = remove_p_rim_star(lam, p)
    assert cells(rest) == cells(lam) - set(star.cells)
    assert sum(rest) == sum(lam) - star.a_star


def test_remove_rejects_an_inner_empty_row():
    from mulli.partitions import _betas, _parts
    from mulli.rims import _left

    # the rows (3, 2, 1) keeping [2, 0, 1] would leave an empty row 2 above a full row 3
    with pytest.raises(RuntimeError, match="rim removal broke the diagram"):
        _left(_betas((3, 2, 1)), _betas([2, 0, 1]))
    assert _parts(_left(_betas((3, 2, 1)), _betas([2, 1, 0]))) == (2, 1)


def test_remove_star_rejects_a_broken_durfee_prefix():
    from mulli.partitions import _betas, _parts
    from mulli.rims import _left

    # eps* = 1 keeps two rows, but the second no longer reaches the diagonal
    with pytest.raises(RuntimeError, match="lost self-conjugacy"):
        _left(_betas((4, 3, 3)), _betas([3, 1, 2]), star=True)
    # eps* = 0 keeps all three, which are not weakly decreasing
    with pytest.raises(RuntimeError, match="lost self-conjugacy"):
        _left(_betas((4, 4, 4)), _betas([3, 4, 3]), star=True)
    assert _parts(_left(_betas((4, 3, 3)), _betas([3, 2, 2]), star=True)) == (3, 2)


def test_grow_rejects_ragged_rows():
    from mulli.partitions import _betas, _parts
    from mulli.rims import _grow

    # the rows (1, 2), bottom row first: a first run of one cell must not slip past the check
    for first in (1, 2, 3):
        with pytest.raises(RuntimeError, match="ragged"):
            _grow(_betas((1, 2))[::-1], first, 3)
    grown = _grow(_betas((2, 1))[::-1], 1, 3)
    assert _parts(grown[::-1]) == (5, 2) and sum(grown) - sum(_betas((2, 1))) == 4


def peel_error(lam, star):
    """The error _peel raises when the step from `lam`, rows that are no partition, is used."""
    from mulli.rims import _peel

    steps = _peel(lam, 3, star)
    next(steps)
    with pytest.raises(RuntimeError) as err:
        next(steps)
    return str(err.value)


# Each broken invariant names row lengths, never the beta numbers the kernels work on.


def test_peel_rejects_equal_neighbouring_beta_numbers():
    # the rows (2, 3, 4) have the beta numbers 1, 1, 1, and the rows left by the step 1, 1, -2
    assert peel_error((2, 3, 4), star=False) == "rim removal broke the diagram of (2, 3, 4): [2, 3, 1]"


def test_star_peel_rejects_a_broken_durfee_prefix():
    # the step leaves the Durfee rows (2, 3), which are not weakly decreasing
    assert peel_error((2, 3, 4), star=True) == "rim* removal from the Durfee rows (2, 3, 4) lost self-conjugacy: [2, 3, 2]"


def test_layer_growth_rejects_ragged_input():
    from mulli import bg

    # a Durfee row of length 0 misses the diagonal; with the virtual row below it the rows are (0, 1)
    with pytest.raises(RuntimeError) as err:
        bg._add_layer([-1], 1, 0, 3)
    assert str(err.value) == "growth onto ragged rows (0, 1)"


def test_layer_size_check_fires(monkeypatch):
    from mulli import bg
    from mulli.rims import _grow

    def one_cell_too_many(c, first, p):
        grown = _grow(c, first, p)
        grown[-1] += 1  # at the end of row 1
        return grown

    monkeypatch.setattr(bg, "_grow", one_cell_too_many)
    with pytest.raises(RuntimeError) as err:
        bg.mull_to_bg((1,), 3)
    assert str(err.value) == "layer growth on the Durfee rows () grew to (2,), not by 1 cells"
