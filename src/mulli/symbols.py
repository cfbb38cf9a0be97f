"""Two-row symbols of partitions and the involution built from them.

The symbol of a p-regular partition records, column by column, the size
a_i of the i-th p-rim and the number of rows r_i left just before that
rim is peeled.  Four inequalities characterize exactly which two-row
arrays arise this way, and a partition can be rebuilt from its symbol by
reversing the peeling (reconstruct).  Replacing each r_i by
s_i = a_i + eps_i - r_i and rebuilding gives an involution on p-regular
partitions (mullineux_map); its fixed points are recognized directly on
the symbol by a_i = 2 r_i - eps_i.
"""

from dataclasses import dataclass

from .partitions import _is_p_regular, _is_weakly_decreasing, as_partition, check_odd_p
from .rims import _grow, _peel, p_rim  # noqa: F401 - bench/test_bench.py reads mulli.symbols.p_rim


@dataclass(frozen=True)
class Symbol:
    """Two-row array (a_0 .. a_l ; r_0 .. r_l) attached to an odd modulus p.

    kind is "mullineux" for symbols of p-regular partitions and "bg" for
    the symmetrized statistics of self-conjugate partitions; the two
    share this one representation because the bijection between the
    families is literally "reinterpret the columns, then reconstruct".
    """

    p: int
    a: tuple
    r: tuple
    kind: str = "mullineux"

    def __post_init__(self):
        check_odd_p(self.p)
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "r", tuple(self.r))
        if len(self.a) != len(self.r):
            raise ValueError("symbol rows must have equal length")
        for x in self.a + self.r:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise ValueError(f"symbol entries must be positive integers, got {x!r}")
        if self.kind not in ("mullineux", "bg"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")

    def __len__(self):
        return len(self.a)

    @property
    def size(self) -> int:
        return sum(self.a)

    def eps(self, i) -> int:
        return 0 if self.a[i] % self.p == 0 else 1

    def columns(self) -> tuple:
        return tuple(zip(self.a, self.r))

    def as_mullineux(self) -> "Symbol":
        return self if self.kind == "mullineux" else Symbol(self.p, self.a, self.r)

    def to_text(self) -> str:
        """The matrix form, e.g. '9 5 5 / 4 2 2' ('/' alone when empty)."""
        top = " ".join(str(x) for x in self.a)
        bottom = " ".join(str(x) for x in self.r)
        return f"{top} / {bottom}".strip() if self.a else "/"

    @classmethod
    def from_text(cls, text: str, p: int, kind: str = "mullineux") -> "Symbol":
        top, sep, bottom = text.partition("/")
        if not sep:
            raise ValueError(f"symbol text needs a '/': {text!r}")
        return cls(p, tuple(int(x) for x in top.split()), tuple(int(x) for x in bottom.split()), kind)

    def to_json_dict(self) -> dict:
        d = {"p": self.p, "a": list(self.a), "r": list(self.r)}
        if self.kind == "bg":
            d["kind"] = "bg"
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Symbol":
        return cls(d["p"], tuple(d["a"]), tuple(d["r"]), d.get("kind", "mullineux"))


def mullineux_symbol(lam, p) -> Symbol:
    """Peel p-rims until nothing is left, recording (a_i; r_i) per step.

    Defined on p-regular partitions; the empty partition gives the empty
    symbol (zero columns).
    """
    lam = as_partition(lam)
    check_odd_p(p)
    if not _is_p_regular(lam, p):
        raise ValueError(f"{lam} is not {p}-regular")
    a, r = [], []
    for rows, counts in _peel(lam, p):
        a.append(sum(counts))
        r.append(len(rows))
    return Symbol(p, tuple(a), tuple(r))


def validate_symbol(sym: Symbol) -> tuple[bool, str]:
    """Check the four column inequalities of symbols of p-regular partitions.

    With eps_i = 0 if p | a_i else 1 and l the last column index:
      (1) eps_i <= r_i - r_{i+1} < p + eps_i          for i < l
      (2) 1 <= r_l < p + eps_l
      (3) r_i - r_{i+1} + eps_{i+1} <= a_i - a_{i+1}
                        < p + r_i - r_{i+1} + eps_{i+1} for i < l
      (4) r_l <= a_l < p + r_l

    Returns (ok, diagnostic); the diagnostic names the first violated
    condition and is empty when the symbol is valid.
    """
    a, r, p = sym.a, sym.r, sym.p
    if not a:
        return True, ""
    last = len(a) - 1
    eps = [sym.eps(i) for i in range(len(a))]
    for i in range(last):
        d = r[i] - r[i + 1]
        if not eps[i] <= d < p + eps[i]:
            return False, f"condition (1) fails at column {i}: r_{i}-r_{i+1} = {d}, allowed [{eps[i]}, {p + eps[i]})"
    if not 1 <= r[last] < p + eps[last]:
        return False, f"condition (2) fails: r_l = {r[last]}, allowed [1, {p + eps[last]})"
    for i in range(last):
        lo = r[i] - r[i + 1] + eps[i + 1]
        d = a[i] - a[i + 1]
        if not lo <= d < p + lo:
            return False, f"condition (3) fails at column {i}: a_{i}-a_{i+1} = {d}, allowed [{lo}, {p + lo})"
    if not r[last] <= a[last] < p + r[last]:
        return False, f"condition (4) fails: a_l = {a[last]}, allowed [{r[last]}, {r[last] + p})"
    return True, ""


def _add_rim(rows, total, start_row, p):
    """Grow one peeled rim back onto the row ends `rows`, bottom group first.

    The walk starts at the first vacant column of start_row.  The bottom
    group holds total mod p cells (a full p when the remainder is zero),
    every later group exactly p; within a group each cell goes directly
    above the last one if that spot is vacant, else to its right, and
    between groups the walk jumps one row up to the first vacant column.
    The final cell must land in row 1 with exactly `total` cells placed.
    """
    rows.extend([0] * (start_row - len(rows)))
    placed = _grow(rows, start_row, total % p or p, p)
    if placed != total:
        raise RuntimeError(f"rim growth reached row 1 with {placed} of {total} cells placed")


def reconstruct(sym: Symbol) -> tuple:
    """Rebuild the unique partition whose symbol this is.

    Starts from the hook (a_l - r_l + 1, 1^(r_l - 1)) and re-adds the
    rims right to left via _add_rim.  Raises ValueError on an invalid
    symbol and RuntimeError if growth ever leaves a non-partition shape
    (which would mean a bug, not bad input).
    """
    ok, why = validate_symbol(sym)
    if not ok:
        raise ValueError(f"invalid symbol: {why}")
    if not sym.a:
        return ()
    a, r, p = sym.a, sym.r, sym.p
    last = len(a) - 1
    rows = [a[last] - r[last] + 1] + [1] * (r[last] - 1)
    for i in range(last - 1, -1, -1):
        _add_rim(rows, a[i], r[i], p)
        if len(rows) != r[i]:
            raise RuntimeError(f"growth of column {i} produced the wrong row count")
    if 0 in rows or not _is_weakly_decreasing(rows):
        raise RuntimeError(f"growth broke row monotonicity: {rows}")
    return tuple(rows)


def mullineux_map(lam, p) -> tuple:
    """The symbol involution: replace each r_i by s_i = a_i + eps_i - r_i."""
    sym = mullineux_symbol(lam, p)
    if not sym.a:
        return ()
    flipped = Symbol(p, sym.a, tuple(sym.a[i] + sym.eps(i) - sym.r[i] for i in range(len(sym))))
    return reconstruct(flipped)


def is_self_mullineux(lam, p) -> bool:
    """Fixed-point test via the symbol: a_i = 2 r_i - eps_i in every column."""
    lam = as_partition(lam)
    check_odd_p(p)
    if not _is_p_regular(lam, p):
        raise ValueError(f"{lam} is not {p}-regular")
    return _is_self_mullineux(lam, p)


def _is_self_mullineux(lam, p) -> bool:
    """is_self_mullineux on a trusted p-regular partition; stops at the first failing column."""
    for rows, counts in _peel(lam, p):
        a = sum(counts)
        if a != 2 * len(rows) - (1 if a % p else 0):
            return False
    return True
