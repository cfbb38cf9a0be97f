"""The maps on partitions of thousands of cells, against a cell-by-cell rim oracle."""

from hypothesis import given, settings, strategies as st

from mulli import (
    Symbol,
    bg_symbol,
    bg_to_mull,
    diagonal_hook_lengths,
    is_bg_partition,
    is_p_regular,
    mull_to_bg,
    mullineux_map,
    mullineux_symbol,
    p_rim,
    p_rim_star,
    peel_iterations,
    reconstruct,
    remove_p_rim,
    remove_p_rim_star,
    self_conjugate_from_diagonal_hooks,
    validate_symbol,
)

odd_p = st.sampled_from((3, 5, 7, 9))


def walked_rim(rows, p):
    """The p-rim of the partition `rows`, listed cell by cell as (row index from 0, column).

    Each run takes p consecutive rim cells; when it ends above the last
    row, the next run starts at the first rim cell of the row below.
    """
    path = [
        (i, col)
        for i, part in enumerate(rows)
        for col in range(part, max(rows[i + 1] if i + 1 < len(rows) else 0, 1) - 1, -1)
    ]
    taken, pos = [], 0
    while True:
        run = path[pos : pos + p]
        taken += run
        row = run[-1][0]
        if row == len(rows) - 1:
            return taken
        pos += len(run)
        while path[pos][0] != row + 1:
            pos += 1


def walked_symbol(lam, p):
    """Mullineux symbol by peeling walked_rim until nothing is left."""
    rows = list(lam)
    a, r = [], []
    while rows:
        taken = walked_rim(rows, p)
        a.append(len(taken))
        r.append(len(rows))
        for i, _ in taken:
            rows[i] -= 1
        while rows and rows[-1] == 0:
            rows.pop()
    return tuple(a), tuple(r)


def walked_star_symbol(lam, p):
    """bg symbol by peeling, each step, the walked p-rim's cells on or above the diagonal and their mirrors."""
    rows = list(lam)
    a, r, layers = [], [], []
    while rows:
        upper = {(i + 1, col) for i, col in walked_rim(rows, p) if col >= i + 1}
        layer = upper | {(col, i) for i, col in upper}
        a.append(len(layer))
        r.append(len(upper))
        layers.append(layer)
        take(rows, layer)
    return tuple(a), tuple(r), layers


def all_partitions(n, largest=None):
    """Every partition of n with parts at most `largest`, by recursion on the first part."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first,) + rest


@st.composite
def p_regular_partitions(draw, low=200, high=3000):
    """(lam, p) with low <= |lam| <= high; part j occurs at most p - 1 times."""
    p = draw(odd_p)
    top = draw(st.integers(20, 60))
    repeats = draw(st.lists(st.integers(0, p - 1), min_size=top, max_size=top))
    parts = [j for j in range(top, 0, -1) for _ in range(repeats[j - 1])]
    while sum(parts) > high:
        parts.pop(0)
    if sum(parts) < low:
        parts.insert(0, max(parts[0] + 1 if parts else 1, low - sum(parts)))
    return tuple(parts), p


@st.composite
def bg_partitions(draw):
    """(lam, p): self-conjugate from distinct odd diagonal hooks not divisible by p."""
    p = draw(odd_p)
    hooks = draw(st.sets(st.integers(0, 75).map(lambda k: 2 * k + 1).filter(lambda h: h % p), min_size=4, max_size=30))
    return self_conjugate_from_diagonal_hooks(sorted(hooks, reverse=True)), p


@settings(max_examples=25, deadline=None)
@given(p_regular_partitions())
def test_large_map_is_a_size_preserving_involution(case):
    lam, p = case
    assert 200 <= sum(lam) <= 3000 and is_p_regular(lam, p)
    sym = mullineux_symbol(lam, p)
    assert (sym.a, sym.r) == walked_symbol(lam, p)
    mu = mullineux_map(lam, p)
    assert sum(mu) == sum(lam) and is_p_regular(mu, p)
    assert mullineux_map(mu, p) == lam


@settings(max_examples=25, deadline=None)
@given(bg_partitions())
def test_large_bijection_round_trip(case):
    lam, p = case
    assert is_bg_partition(lam, p)
    mu = bg_to_mull(lam, p)
    sym = mullineux_symbol(mu, p)
    assert all(sym.a[i] == 2 * sym.r[i] - sym.eps(i) for i in range(len(sym)))
    assert mull_to_bg(mu, p) == lam


def test_long_row():
    lam = (4000,)
    sym = mullineux_symbol(lam, 3)
    assert sym.a == (3,) * 1333 + (1,) and sym.r == (1,) * 1334
    mu = mullineux_map(lam, 3)
    assert sum(mu) == 4000 and is_p_regular(mu, 3)
    assert mullineux_map(mu, 3) == lam


def test_staircase():
    lam = tuple(range(400, 0, -1))
    mu = mullineux_map(lam, 3)
    assert sum(mu) == 80200 and is_p_regular(mu, 3)
    assert mullineux_map(mu, 3) == lam


def test_hook_built_bg_partition():
    hooks = [h for h in range(479, 0, -2) if h % 3][:80]
    lam = self_conjugate_from_diagonal_hooks(hooks)
    assert sum(lam) == 28800
    mu = bg_to_mull(lam, 3)
    sym = mullineux_symbol(mu, 3)
    assert all(sym.a[i] == 2 * sym.r[i] - sym.eps(i) for i in range(len(sym)))
    assert mull_to_bg(mu, 3) == lam


@settings(max_examples=25, deadline=None)
@given(p_regular_partitions())
def test_large_flipped_symbol_is_valid_and_rebuilds_the_image(case):
    """mullineux_map rebuilds from trusted columns; the checked path must agree."""
    lam, p = case
    sym = mullineux_symbol(lam, p)
    flipped = Symbol(p, sym.a, tuple(a + sym.eps(i) - r for i, (a, r) in enumerate(sym.columns())))
    assert validate_symbol(flipped) == (True, "")
    assert reconstruct(flipped) == mullineux_map(lam, p)


@settings(max_examples=25, deadline=None)
@given(bg_partitions())
def test_large_bg_symbol_is_valid_and_rebuilds_the_partner(case):
    """bg_to_mull rebuilds from trusted columns; the checked path must agree."""
    lam, p = case
    s = bg_symbol(lam, p)
    assert validate_symbol(Symbol(p, s.a, s.r)) == (True, "")
    assert reconstruct(Symbol(p, s.a, s.r)) == bg_to_mull(lam, p)


def take(rows, layer):
    """Remove the cells of `layer` (1-based (row, col) pairs) from the row lengths `rows`."""
    for i, _ in layer:
        rows[i - 1] -= 1
    while rows and rows[-1] == 0:
        rows.pop()


@settings(max_examples=25, deadline=None)
@given(p_regular_partitions())
def test_large_peel_steps_match_the_walked_rim(case):
    """Every step of the row-length peel takes exactly the cells the cell-by-cell walk takes."""
    lam, p = case
    rows = list(lam)
    for layer in peel_iterations(lam, p):
        assert layer == tuple((i + 1, col) for i, col in walked_rim(rows, p))
        take(rows, layer)
    assert rows == []


@settings(max_examples=25, deadline=None)
@given(bg_partitions().filter(lambda case: 200 <= sum(case[0]) <= 3000))
def test_large_star_peel_steps_match_the_walked_rim(case):
    """Every symmetrized step takes the walked p-rim's cells on or above the diagonal, plus their mirrors."""
    lam, p = case
    rows = list(lam)
    for layer in peel_iterations(lam, p, star=True):
        upper = {(i + 1, col) for i, col in walked_rim(rows, p) if col >= i + 1}
        assert len(set(layer)) == len(layer)
        assert set(layer) == upper | {(col, i) for i, col in upper}
        take(rows, layer)
    assert rows == []


def test_every_small_partition_against_the_cell_walk():
    """Rims, symbols, peel layers, reconstruction and both bijection directions, for n <= 12 and p in {3, 5, 7, 9}."""
    for n in range(13):
        for lam in all_partitions(n):
            conj = tuple(sum(1 for part in lam if part >= j) for j in range(1, (lam[0] if lam else 0) + 1))
            for p in (3, 5, 7, 9):
                if lam:
                    first = walked_rim(lam, p)
                    rim = p_rim(lam, p)
                    assert rim.counts == tuple(sum(1 for i, _ in first if i == row) for row in range(len(lam)))
                    assert len(rim) == len(first)
                    rows = list(lam)
                    take(rows, [(i + 1, col) for i, col in first])
                    assert remove_p_rim(lam, p) == tuple(rows)
                rows = list(lam)
                for layer in peel_iterations(lam, p):
                    assert layer == tuple((i + 1, col) for i, col in walked_rim(rows, p))
                    take(rows, layer)
                if is_p_regular(lam, p):
                    a, r = walked_symbol(lam, p)
                    sym = mullineux_symbol(lam, p)
                    assert (sym.a, sym.r) == (a, r)
                    assert reconstruct(sym) == lam
                    if all(x == 2 * y - (x % p != 0) for x, y in zip(a, r)):
                        partner = mull_to_bg(lam, p)
                        assert walked_star_symbol(partner, p)[:2] == (a, r)
                        assert bg_to_mull(partner, p) == lam
                if lam == conj:
                    a, r, layers = walked_star_symbol(lam, p)
                    s = bg_symbol(lam, p)
                    assert (s.a, s.r) == (a, r)
                    assert [set(layer) for layer in peel_iterations(lam, p, star=True)] == layers
                    hooks = [2 * (part - i) + 1 for i, part in enumerate(lam, start=1) if part >= i]
                    assert self_conjugate_from_diagonal_hooks(diagonal_hook_lengths(lam)) == lam
                    if lam:
                        star = p_rim_star(lam, p)
                        eps_star = int(any(i == j for i, j in layers[0]))
                        assert (star.a_star, star.r_star, star.eps_star) == (a[0], r[0], eps_star)
                        assert star.cells == tuple(sorted(layers[0]))
                        rows = list(lam)
                        take(rows, layers[0])
                        assert remove_p_rim_star(lam, p) == tuple(rows)
                    if all(h % p for h in hooks):
                        partner = bg_to_mull(lam, p)
                        assert walked_symbol(partner, p) == (a, r)
                        assert mull_to_bg(partner, p) == lam
