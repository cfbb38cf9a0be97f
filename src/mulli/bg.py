"""BG-partitions and their bijection with self-Mullineux partitions.

A BG-partition is a self-conjugate partition none of whose diagonal
hook lengths is divisible by p.  Peeling symmetrized p-rims from a
self-conjugate partition and recording (a*_i; r*_i) per step yields its
bg symbol; on BG-partitions these are exactly the symbols of the
self-Mullineux partitions (fixed points of mullineux_map), which makes
the map "compute bg symbol, reinterpret, reconstruct" a bijection.  The
reverse direction rebuilds the BG-partition layer by layer.  Both
directions validate their input once, then pass trusted columns (a, r).
"""

from .partitions import MAX_CELLS, _arms, _has_hook_divisible, _is_bg, _is_int, _partition_arg, _parts
from .partitions import _regular_arg, _self_conjugate_arg, _top_size, _unfold
from .rims import _grow
from .symbols import Symbol, _columns, _eps, _is_fixed, _reconstruct


def bg_symbol(lam, p) -> Symbol:
    """Peel symmetrized p-rims until nothing is left, recording (a*_i; r*_i).

    Defined on every self-conjugate partition (two different ones never
    share a bg symbol); the empty partition gives the empty symbol.
    """
    return Symbol(p, *_columns(_self_conjugate_arg(lam, p), p, star=True), kind="bg")


def add_rim_star_layer(base, eps, m, p) -> tuple:
    """Grow a self-conjugate base by one symmetrized rim layer.

    eps = 1 puts a cell on the diagonal (forced when base is empty),
    eps = 0 keeps the layer strictly off it and forces m = 0.  m is the
    size mod p of the layer's bottom run on or above the diagonal.  The
    result is the unique self-conjugate partition with

        a_star = eps (mod 2),  r_star - eps_star = m (mod p),
        remove_p_rim_star(result, p) == base.

    Growth happens above the diagonal only: the start cell is the
    diagonal cell (d+1, d+1) when eps = 1 and the cell right of row d's
    end when eps = 0 (d = Durfee length of base); the bottom run then
    holds m more cells after a diagonal start, or p in total off it.
    Later runs hold exactly p cells, each starting at the first vacant
    column one row up, above-if-vacant-else-right as usual, until a run
    ends in row 1.  Mirroring the placed cells across the diagonal
    finishes the layer.
    """
    base = _self_conjugate_arg(base, p)
    if not (_is_int(eps) and eps in (0, 1)):
        raise ValueError(f"eps must be 0 or 1, got {eps!r}")
    if not _is_int(m) or not 0 <= m < p:
        raise ValueError(f"m must be a residue mod {p}, got {m!r}")
    if eps == 0 and m != 0:
        raise ValueError("a layer that misses the diagonal must have m = 0")
    if not base and eps == 0:
        raise ValueError("a layer on the empty partition must contain the diagonal cell")
    c = _add_layer(_arms(base)[::-1], eps, m, p)
    if _top_size(c) > MAX_CELLS:
        raise ValueError(f"the grown partition of {_top_size(c)} cells exceeds the size cap {MAX_CELLS}")
    return _unfold(c[::-1])


def _add_layer(c, eps, m, p) -> list:
    """add_rim_star_layer on the beta numbers c of the Durfee rows, bottom row first; returns the new ones.

    Every cell grows on or above the diagonal, so the walk only needs the
    Durfee rows; with eps = 1 row d + 1 joins them with a virtual end at
    column d (beta number -1), so the growth starts at the diagonal cell (d+1, d+1).
    """
    # the diagonal start cell completes an m = 0 run by itself
    return _grow([-1] + c, m + 1, p) if eps else _grow(c, p, p)


def bg_to_mull(lam, p) -> tuple:
    """Send a BG-partition to its self-Mullineux partner.

    The partner is the unique p-regular partition whose symbol equals
    the bg symbol of lam; same size, and mull_to_bg inverts it.
    """
    lam = _partition_arg(lam, p)
    if not _is_bg(lam, p):
        raise ValueError(f"{lam} is not a BG-partition for p={p}")
    return _reconstruct(*_columns(lam, p, star=True), p)


def mull_to_bg(lam, p) -> tuple:
    """Send a self-Mullineux partition to its BG partner.

    Validates the input on its symbol (a_i = 2 r_i - eps_i per column,
    independent of mullineux_map), then folds add_rim_star_layer over
    the columns right to left, from the empty partition: column i
    contributes a layer with eps_i = 0 if p | a_i else 1 and
    m = (r_i - eps_i) mod p, so the last column gives the hook
    (r_l, 1^(r_l - 1)) and every layer adds a_i cells.  Every
    intermediate partition must be a BG-partition; the final one has bg
    symbol equal to the input's symbol.
    """
    lam = _regular_arg(lam, p)
    a, r = _columns(lam, p)
    for i in range(len(a)):
        if not _is_fixed(a[i], r[i], p):
            raise ValueError(f"{lam} is not self-Mullineux for p={p} (column {i})")
    if a and _eps(a[-1], p) != 1:
        raise RuntimeError(f"last column of {Symbol(p, a, r).to_text()} has eps = 0; impossible for a fixed point")
    # intermediates are the beta numbers of their Durfee rows, bottom row first
    c, size = [], 0
    for i in range(len(a) - 1, -1, -1):
        eps = _eps(a[i], p)
        grown = _add_layer(c, eps, (r[i] - eps) % p, p)
        size += a[i]
        if _top_size(grown) != size:
            raise RuntimeError(f"layer growth on the Durfee rows {_parts(reversed(c))} grew to {_parts(reversed(grown))}, not by {a[i]} cells")
        if _has_hook_divisible(grown, p):
            raise RuntimeError(f"intermediate {_unfold(grown[::-1])} is not a BG-partition for p={p}")
        c = grown
    return _unfold(c[::-1])
