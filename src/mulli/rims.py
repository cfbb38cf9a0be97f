"""Rim peeling and rim growth on beta numbers.

The rim of a partition is its south-east border: every cell (i, j) of
the diagram with (i+1, j+1) outside it.  Row i holds the rim cells in
columns max(1, lam_{i+1}) .. lam_i, so reading the rim from top right to
bottom left and cutting runs of p cells (each new run restarting on the
next row down, see p_rim) selects the p-rim, the set peeled off in one
step of the symbol computations.  Every run starts at the right end of
a row, so the p-rim takes a right tail of every row.

The kernels work on beta numbers b_i = lam_i - i, which strictly
decrease exactly when the rows weakly decrease; partitions are converted
once on the way in and once on the way out, and a step is one
comparison per row.  Peeling: with t = b_1 - p, going down, row i keeps
b_{i+1} when b_{i+1} > t, else it takes t and t becomes b_{i+1} - p; the
last row keeps max(t, floor).  A p-rim has floor -l (l rows), a row at
-i is empty, and the step's symbol column is a = cells taken, r = l.
The symmetrized p-rim of a self-conjugate partition keeps the p-rim's
cells on or above the diagonal and mirrors them; they lie in the Durfee
rows (b_i >= 0), which determine the partition, so it is the same step
on the Durfee rows with floor -1, and its column is r_star = cells
taken, eps_star = [the last Durfee row ends at -1, a diagonal cell] and
a_star = 2 r_star - eps_star.  _peel yields each step with its column.
Growth mirrors peeling, bottom row first: with t = b_bottom + first,
going up, a row keeps the b of the row above when that is below t, else
it takes t and t becomes that b + p; row 1 takes t.  The kernels take
trusted input and check their invariants once per step with builtins.
"""

from functools import cached_property
from operator import gt, lt, sub

from .partitions import _Value, _arms, _betas, _partition_arg, _parts, _self_conjugate_arg, _unfold, as_partition


def _tail_cells(rows, counts) -> tuple:
    """The right tails of `counts` cells per row, in rim walk order."""
    return tuple(
        (i, part - j) for i, (part, count) in enumerate(zip(rows, counts), start=1) for j in range(count)
    )


def _mirrored(upper) -> tuple:
    """Upper-half cells plus their mirror images, sorted lexicographically."""
    return tuple(sorted(set(upper) | {(j, i) for i, j in upper}))


class PRim(_Value):
    """One p-rim of lam: counts[i] cells from the right end of row i + 1."""

    def __init__(self, lam, p, counts):
        self.__dict__.update(lam=lam, p=p, counts=counts)

    def __len__(self):
        return sum(self.counts)

    @cached_property
    def cells(self) -> tuple:
        """The cells in walk order: rows top down, each read right to left; listed once per object."""
        return _tail_cells(self.lam, self.counts)

    @property
    def segment_starts(self) -> tuple:
        # every run but the last holds exactly p cells
        return tuple(range(0, len(self), self.p))

    @property
    def segments(self) -> tuple:
        return tuple(self.cells[start : start + self.p] for start in self.segment_starts)


class PRimStar(_Value):
    """Symmetrized p-rim of a self-conjugate partition.

    counts[i] is the number of p-rim cells on or above the diagonal in
    Durfee row i + 1 of lam.  upper holds those cells, lower their
    mirror images; the two overlap in at most one diagonal cell, which
    is what the parity eps_star detects.
    """

    def __init__(self, lam, counts, a_star, r_star, eps_star):
        self.__dict__.update(lam=lam, counts=counts, a_star=a_star, r_star=r_star, eps_star=eps_star)

    @cached_property
    def upper(self) -> tuple:
        return tuple(sorted(_tail_cells(self.lam, self.counts)))

    @property
    def lower(self) -> tuple:
        return tuple(sorted((j, i) for i, j in self.upper))

    @property
    def cells(self) -> tuple:
        """Union of upper and lower, sorted lexicographically."""
        return _mirrored(self.upper)


def rim(lam) -> tuple:
    """Border cells from (1, lam_1) down-left to (len(lam), 1).

    Within row i these are the columns max(1, lam_{i+1}) .. lam_i, listed
    right to left; consecutive cells differ by one step left or down.
    """
    lam = as_partition(lam)
    if not lam:
        raise ValueError("the empty partition has no rim")
    return _tail_cells(lam, [part - end + 1 for part, end in zip(lam, lam[1:] + (1,))])


def _peel(lam, p, star=False):
    """Yield (b, out, a, r) per peeling step of a trusted partition: beta numbers before and after, and the column.

    Row i loses b_i - out_i cells (out keeps the rows that leave, at the
    floor).  star=False peels p-rims: a = cells taken, r = len(b).  star=True
    peels symmetrized p-rims on the Durfee rows of a self-conjugate lam:
    r = cells taken, eps_star = [out ends at -1], a = 2 r - eps_star.
    Asking for the next step trims out in place (_left): read each step first.
    """
    b = _arms(lam) if star else _betas(lam)
    while b:
        floor = -1 if star else -len(b)
        out = []
        append = out.append
        # sum(b) - sum(out) telescopes to b_1 - out_l plus x - t over the rows that take t
        taken = b[0]
        t = taken - p
        for x in b[1:]:
            if x > t:
                append(x)
            else:
                append(t)
                taken += x - t
                t = x - p
        t = t if t > floor else floor
        append(t)
        taken -= t
        yield (b, out, 2 * taken - (t == -1), taken) if star else (b, out, taken, len(b))
        b = _left(b, out, star)


def _left(b, out, star=False) -> list:
    """The beta numbers a step from b leaves: out, checked and trimmed in place.

    out must strictly decrease, which with its last row at the floor or above keeps
    starred rows a Durfee prefix; a plain step drops its empty rows (row i at -i),
    a starred one a last Durfee row at -1, below the diagonal.
    """
    if not all(map(gt, out, out[1:])):
        if star:
            raise RuntimeError(f"rim* removal from the Durfee rows {_parts(b)} lost self-conjugacy: {list(_parts(out))}")
        raise RuntimeError(f"rim removal broke the diagram of {_parts(b)}: {list(_parts(out))}")
    while out and out[-1] == (-1 if star else -len(out)):
        out.pop()
    return out


def _first_step(lam, p, star=False) -> tuple:
    """(b, out, a, r) of _peel's first step on a trusted partition, so every rim is a symbol column."""
    if not lam:
        raise ValueError("the empty partition has no rim")
    return next(_peel(lam, p, star))


def p_rim(lam, p) -> PRim:
    """The cells peeled in one step: runs of p rim cells.

    The first run takes rim labels 1..p.  If a run's last cell sits in
    the last row the walk stops; otherwise the next run starts at the
    first rim cell of the following row (the remaining labels of the
    current row are skipped) and again takes p consecutive labels.
    Only the final run may be shorter than p.
    """
    lam = _partition_arg(lam, p)
    b, out, _, _ = _first_step(lam, p)
    return PRim(lam, p, tuple(map(sub, b, out)))


def remove_p_rim(lam, p) -> tuple:
    """Delete the p-rim; the result is a partition of |lam| - len(p_rim(lam, p))."""
    b, out, _, _ = _first_step(_partition_arg(lam, p), p)
    return _parts(_left(b, out))


def p_rim_star(lam, p) -> PRimStar:
    """Symmetrized p-rim of a self-conjugate partition.

    a_star counts the union of the above-diagonal part and its mirror;
    r_star counts only the cells on or above the diagonal, so
    r_star = (a_star + eps_star) / 2 with eps_star = a_star mod 2, and
    eps_star = 1 exactly when the rim* contains a diagonal cell.
    """
    lam = _self_conjugate_arg(lam, p)
    b, out, a_star, r_star = _first_step(lam, p, star=True)
    return PRimStar(lam, tuple(map(sub, b, out)), a_star, r_star, 2 * r_star - a_star)


def remove_p_rim_star(lam, p) -> tuple:
    """Delete the symmetrized p-rim; the result is again self-conjugate."""
    b, out, _, _ = _first_step(_self_conjugate_arg(lam, p), p, star=True)
    return _unfold(_left(b, out, star=True))


def _grow(c, first, p) -> list:
    """Grow one rim onto the beta numbers c, listed bottom row first; return the new ones.

    The first run holds `first` cells and starts at the first vacant
    column of the bottom row, every later run holds p cells and starts
    at the first vacant column of the row above the previous run's last
    cell; the walk stops after a run that ends in row 1.  Within a run
    each cell goes directly above the last one if that spot is vacant,
    else to its right (the module's growth step); c must strictly increase.
    """
    above = c[1:]
    if not all(map(lt, c, above)):
        raise RuntimeError(f"growth onto ragged rows {_parts(c[::-1])}")
    out = []
    append = out.append
    t = c[0] + first
    for x in above:
        if x < t:
            append(x)
        else:
            append(t)
            t = x + p
    append(t)
    return out
