"""Rim peeling and rim growth on row lengths.

The rim of a partition is its south-east border: every cell (i, j) of
the diagram with (i+1, j+1) outside it.  Row i holds the rim cells in
columns max(1, lam_{i+1}) .. lam_i, so reading the rim from top right to
bottom left and cutting runs of p cells (each new run restarting on the
next row down, see p_rim) selects the p-rim, the set peeled off in one
step of the symbol computations.  Every run starts at the right end of
a row, so the p-rim takes a right tail of every row: one pass over the
rows gives the row lengths left, and each peeling step yields the rows
and the rows left, whose differences are the cells taken.

For self-conjugate partitions the symmetrized variant keeps the cells
of the p-rim on or above the diagonal and mirrors them below it.  Those
cells lie in the Durfee rows (the rows i with lam_i >= i), which
determine the partition, so the symmetrized peel works on the Durfee
rows alone.

Growth is the reverse: cells are added at row ends, moving up whenever
the cell above is vacant, one tight pass per run of rows.  The kernels
here take trusted tuples and check their invariants once per step with
builtins; the public functions validate their input once.
"""

from dataclasses import dataclass
from operator import sub

from .partitions import _durfee, _is_weakly_decreasing, _partition_arg, _self_conjugate_arg, _symmetric, as_partition


def _tail_cells(rows, counts) -> tuple:
    """The right tails of `counts` cells per row, in rim walk order."""
    return tuple(
        (i, part - j) for i, (part, count) in enumerate(zip(rows, counts), start=1) for j in range(count)
    )


def _mirrored(upper) -> tuple:
    """Upper-half cells plus their mirror images, sorted lexicographically."""
    return tuple(sorted(set(upper) | {(j, i) for i, j in upper}))


@dataclass(frozen=True)
class PRim:
    """One p-rim of lam: counts[i] cells from the right end of row i + 1."""

    lam: tuple
    p: int
    counts: tuple

    def __len__(self):
        return sum(self.counts)

    @property
    def cells(self) -> tuple:
        """The cells in walk order: rows top down, each read right to left."""
        return _tail_cells(self.lam, self.counts)

    @property
    def segment_starts(self) -> tuple:
        # every run but the last holds exactly p cells
        return tuple(range(0, len(self), self.p))

    @property
    def segments(self) -> tuple:
        cells = self.cells
        return tuple(cells[start : start + self.p] for start in self.segment_starts)


@dataclass(frozen=True)
class PRimStar:
    """Symmetrized p-rim of a self-conjugate partition.

    counts[i] is the number of p-rim cells on or above the diagonal in
    Durfee row i + 1 of lam.  upper holds those cells, lower their
    mirror images; the two overlap in at most one diagonal cell, which
    is what the parity eps_star detects.
    """

    lam: tuple
    counts: tuple
    a_star: int
    r_star: int
    eps_star: int

    @property
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
    return _tail_cells(lam, _rim_lengths(lam))


def _rim_lengths(rows) -> list:
    """Rim cells per row of a partition."""
    return [part - end + 1 for part, end in zip(rows, rows[1:] + (1,))]


def _cut(rows, p, below=0) -> list:
    """Row lengths left after the p-rim is taken, zeros included, in one pass.

    Row i's rim holds the columns next .. lam_i, with next = lam_{i+1}
    (`below or 1` after the last row).  A run that uses up row i's rim
    leaves next - 1 cells and goes on in row i + 1; a run that stops
    inside it (or at its last rim cell) leaves lam_i - need, and the
    next run restarts on row i + 1.  Either way every row is entered
    once, in order.  Only the rows given are walked, so passing the top
    rows of a partition (with `below` the next row) cuts those rows.
    """
    rest = []
    need = p
    for part, nxt in zip(rows, rows[1:] + (below or 1,)):
        floor, left = nxt - 1, part - need
        if left < floor:
            rest.append(floor)
            need = floor - left
        else:
            rest.append(left)
            need = p
    return rest


def _star_cut(top, p) -> list:
    """Durfee rows left after the symmetrized p-rim takes its cells on or above the diagonal.

    top is the Durfee rows of a self-conjugate partition; its next row
    has one cell per top row reaching past the Durfee square.  Only the
    last Durfee row can reach the diagonal: the rim of any row i above
    it ends at column lam_{i+1} >= i + 1.
    """
    d = len(top)
    rest = _cut(top, p, sum(map(d.__lt__, top)))
    rest[-1] = max(rest[-1], d - 1)
    return rest


def _star_stats(top, rest) -> tuple:
    """(a_star, r_star, eps_star) of the symmetrized p-rim that leaves `rest` of the Durfee rows `top`."""
    r_star = sum(top) - sum(rest)
    eps_star = 1 if rest[-1] == len(top) - 1 else 0
    return 2 * r_star - eps_star, r_star, eps_star


def _remove(rows, rest) -> tuple:
    """The partition left when each row keeps rest[i] cells; rest must be weakly decreasing and >= 0."""
    if not _is_weakly_decreasing(rest) or rest[-1] < 0:
        raise RuntimeError(f"rim removal broke the diagram of {rows}: {rest}")
    return tuple(rest[: len(rest) - rest.count(0)])


def _remove_star(top, rest) -> tuple:
    """Durfee rows left after removing the symmetrized p-rim.

    Removing the cells above the diagonal and their mirrors leaves a
    self-conjugate partition of |lam| - a_star exactly when the rows
    still reaching the diagonal are a weakly decreasing prefix that is
    eps_star rows shorter than before (eps_star = 1 leaves row d with d - 1).
    """
    d = len(top)
    kept = d - 1 if rest[-1] == d - 1 else d
    if not _is_weakly_decreasing(rest[:kept]) or kept and rest[kept - 1] < kept:
        raise RuntimeError(f"rim* removal from the Durfee rows {top} lost self-conjugacy: {rest}")
    return tuple(rest[:kept])


def _peel(lam, p, star=False):
    """Yield (rows, rest) for each peeling step of a trusted partition.

    star=False peels p-rims: rows is the partition before the step and
    rest[i] the cells its row i + 1 keeps (zeros included), so the step
    takes rows[i] - rest[i] cells from the end of that row.  star=True
    peels symmetrized p-rims of a self-conjugate lam: rows is the Durfee
    rows before the step (the partition is _symmetric(rows)) and rest
    what they keep of the cells on or above the diagonal.
    """
    cut, remove = (_star_cut, _remove_star) if star else (_cut, _remove)
    rows = lam[: _durfee(lam)] if star else lam
    while rows:
        rest = cut(rows, p)
        yield rows, rest
        rows = remove(rows, rest)


def _first_step(lam, p, star=False) -> tuple:
    """(rows, rest) of _peel's first step on a trusted partition, so every rim is a symbol column."""
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
    rows, rest = _first_step(lam, p)
    return PRim(lam, p, tuple(map(sub, rows, rest)))


def remove_p_rim(lam, p) -> tuple:
    """Delete the p-rim; the result is a partition of |lam| - len(p_rim(lam, p))."""
    return _remove(*_first_step(_partition_arg(lam, p), p))


def p_rim_star(lam, p) -> PRimStar:
    """Symmetrized p-rim of a self-conjugate partition.

    a_star counts the union of the above-diagonal part and its mirror;
    r_star counts only the cells on or above the diagonal, so
    r_star = (a_star + eps_star) / 2 with eps_star = a_star mod 2, and
    eps_star = 1 exactly when the rim* contains a diagonal cell.
    """
    lam = _self_conjugate_arg(lam, p)
    top, rest = _first_step(lam, p, star=True)
    return PRimStar(lam, tuple(map(sub, top, rest)), *_star_stats(top, rest))


def remove_p_rim_star(lam, p) -> tuple:
    """Delete the symmetrized p-rim; the result is again self-conjugate."""
    return _symmetric(_remove_star(*_first_step(_self_conjugate_arg(lam, p), p, star=True)))


# Growth, shared by the symbol reconstruction and the layer construction.
# `rows` is a mutable list of row ends.


def _grow(rows, first, p) -> int:
    """Grow runs of cells onto the row ends `rows`; return how many were placed.

    The first run holds `first` cells and starts at the first vacant
    column of the last row, every later run holds p cells and starts at
    the first vacant column of the row above the previous run's last
    cell; the walk stops after a run that ends in row 1.  Within a run
    each cell goes directly above the last one if that spot is vacant,
    else to its right, so on weakly decreasing rows a run places one
    batch per row: up to rows[i - 1] - rows[i] + 1 cells, then moves up.
    """
    if not _is_weakly_decreasing(rows):
        raise RuntimeError(f"growth onto ragged rows {rows}")
    before = sum(rows)
    need, end = first, rows[-1]
    for i in range(len(rows) - 1, 0, -1):
        above = rows[i - 1]
        here = above - end + 1
        if here >= need:
            # the run ends in this row; the next one starts in the row above
            rows[i] = end + need
            need = p
        else:
            rows[i] = above + 1
            need -= here
        end = above
    rows[0] += need
    return sum(rows) - before
