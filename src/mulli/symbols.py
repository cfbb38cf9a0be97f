"""Two-row symbols of partitions and the involution built from them.

The symbol of a p-regular partition records, column by column, the size
a_i of the i-th p-rim and the number of rows r_i left just before that
rim is peeled.  Two inequalities per column, each read against the
column to its right (past the last, the empty column), characterize
exactly which two-row arrays arise this way, and a partition can be
rebuilt from its symbol by reversing the peeling (reconstruct).
Replacing each r_i by s_i = a_i + eps_i - r_i and rebuilding gives an
involution on p-regular partitions (mullineux_map); its fixed points are
recognized directly on the symbol by a_i = 2 r_i - eps_i.

Symbol is the public boundary type: inside the library a symbol travels
as its trusted columns (a, r), from _columns to _reconstruct.
"""

from operator import lt

from .partitions import MAX_CELLS, _Value, _as_tuple, _is_int, _parts, _regular_arg, check_odd_p
from .rims import _grow, _peel, p_rim  # noqa: F401 - bench/test_bench.py reads mulli.symbols.p_rim


def _eps(a, p) -> int:
    """eps of a column with rim size a: 0 when p divides a, else 1."""
    return 0 if a % p == 0 else 1


def _is_fixed(a, r, p) -> bool:
    """The fixed-point rule of one column: a = 2 r - eps."""
    return a == 2 * r - _eps(a, p)


def _columns(lam, p, star=False) -> tuple:
    """Columns (a, r) of a trusted partition, one per peeling step; star=True gives the bg columns."""
    columns = [(a, r) for _, _, a, r in _peel(lam, p, star)]
    return tuple(zip(*columns)) if columns else ((), ())


class Symbol(_Value):
    """Two-row array (a_0 .. a_l ; r_0 .. r_l) attached to an odd modulus p.

    kind is "mullineux" for symbols of p-regular partitions and "bg" for
    the symmetrized statistics of self-conjugate partitions; the two
    share this one representation because the bijection between the
    families is literally "reinterpret the columns, then reconstruct".
    """

    def __init__(self, p, a, r, kind="mullineux"):
        check_odd_p(p)
        a, r = (_as_tuple(row, "a symbol row must be an iterable of positive integers") for row in (a, r))
        if len(a) != len(r):
            raise ValueError("symbol rows must have equal length")
        for x in a + r:
            if not _is_int(x) or x < 1:
                raise ValueError(f"symbol entries must be positive integers, got {x!r}")
        if kind not in ("mullineux", "bg"):
            raise ValueError(f"unknown symbol kind {kind!r}")
        self.__dict__.update(p=p, a=a, r=r, kind=kind)

    def __len__(self):
        return len(self.a)

    @property
    def size(self) -> int:
        return sum(self.a)

    def eps(self, i) -> int:
        return _eps(self.a[i], self.p)

    def columns(self) -> tuple:
        return tuple(zip(self.a, self.r))

    def to_text(self) -> str:
        """The matrix form, e.g. '9 5 5 / 4 2 2' ('/' alone when empty)."""
        top = " ".join(str(x) for x in self.a)
        bottom = " ".join(str(x) for x in self.r)
        return f"{top} / {bottom}".strip()

    @classmethod
    def from_text(cls, text: str, p: int, kind: str = "mullineux") -> "Symbol":
        if not isinstance(text, str):
            raise ValueError(f"a symbol text must be a string, got {text!r}")
        top, sep, bottom = text.partition("/")
        if not sep:
            raise ValueError(f"symbol text needs a '/': {text!r}")
        a, r = (tuple(_entry(x, text) for x in row.split()) for row in (top, bottom))
        return cls(p, a, r, kind)

    def to_json_dict(self) -> dict:
        d = {"p": self.p, "a": list(self.a), "r": list(self.r)}
        if self.kind == "bg":
            d["kind"] = "bg"
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Symbol":
        if not isinstance(d, dict) or not d.keys() >= {"p", "a", "r"}:
            raise ValueError(f"a symbol object needs the keys p, a and r, got {d!r}")
        return cls(d["p"], d["a"], d["r"], d.get("kind", "mullineux"))


def _entry(x, text) -> int:
    """One entry of a symbol text, as int() reads it."""
    try:
        return int(x)
    except ValueError:
        raise ValueError(f"cannot parse symbol entry {x!r} in {text!r}") from None


def mullineux_symbol(lam, p) -> Symbol:
    """Peel p-rims until nothing is left, recording (a_i; r_i) per step.

    Defined on p-regular partitions; the empty partition gives the empty
    symbol (zero columns).
    """
    return Symbol(p, *_columns(_regular_arg(lam, p), p))


def validate_symbol(sym: Symbol) -> tuple[bool, str]:
    """Check the column inequalities of symbols of p-regular partitions.

    With eps_i = 0 if p | a_i else 1, every column i is read against the
    column to its right, and the last column l against the empty column
    (a_{l+1}, r_{l+1}) = (0, 0), whose eps is 0:
      (1) eps_i <= r_i - r_{i+1} < p + eps_i
      (3) r_i - r_{i+1} + eps_{i+1} <= a_i - a_{i+1} < p + r_i - r_{i+1} + eps_{i+1}
    At the last column they are named (2) and (4).

    Returns (ok, diagnostic); the diagnostic names the first violated
    condition, (1)/(2) over all columns before (3)/(4), and is empty
    when the symbol is valid.
    """
    if not isinstance(sym, Symbol):
        raise ValueError(f"expected a Symbol, got {sym!r}")
    a, r, p = sym.a + (0,), sym.r + (0,), sym.p
    eps = [_eps(x, p) for x in a]
    last = len(sym) - 1
    for i in range(len(sym)):
        d = r[i] - r[i + 1]
        if not eps[i] <= d < p + eps[i]:
            return False, f"condition ({1 + (i == last)}) fails at column {i}: r_{i}-r_{i+1} = {d}, allowed [{eps[i]}, {p + eps[i]})"
    for i in range(len(sym)):
        lo = r[i] - r[i + 1] + eps[i + 1]
        d = a[i] - a[i + 1]
        if not lo <= d < p + lo:
            return False, f"condition ({3 + (i == last)}) fails at column {i}: a_{i}-a_{i+1} = {d}, allowed [{lo}, {p + lo})"
    return True, ""


def reconstruct(sym: Symbol) -> tuple:
    """Rebuild the unique partition whose symbol this is.

    Raises ValueError on an invalid symbol or one of more than MAX_CELLS
    cells, and RuntimeError if growth ever leaves a non-partition shape
    (which would mean a bug, not bad input).
    """
    ok, why = validate_symbol(sym)
    if not ok:
        raise ValueError(f"invalid symbol: {why}")
    if sym.size > MAX_CELLS:
        raise ValueError(f"symbol of size {sym.size} exceeds the size cap {MAX_CELLS}")
    return _reconstruct(sym.a, sym.r, sym.p)


def _reconstruct(a, r, p) -> tuple:
    """reconstruct on trusted columns: from the empty partition, one rim per column, right to left.

    The rim of column i starts at the first vacant column of row r_i;
    its bottom group holds a_i mod p cells (a full p when the remainder
    is zero), every later group exactly p; within a group each cell goes
    directly above the last one if that spot is vacant, else to its
    right, and between groups the walk jumps one row up to the first
    vacant column.  The last cell must land in row 1 as the a_i-th.
    Rows are beta numbers, bottom row first: new empty rows prepend -r_i .. -len(c) - 1.
    """
    c, size = [], 0
    for i in range(len(a) - 1, -1, -1):
        rows = r[i]
        if rows > len(c):
            c = [*range(-rows, -len(c)), *c]
        if len(c) != rows:
            raise RuntimeError(f"growth of column {i} produced the wrong row count")
        c = _grow(c, a[i] % p or p, p)
        # the size sum(b) + l (l + 1) / 2 does not change when empty rows join
        placed = sum(c) + rows * (rows + 1) // 2 - size
        if placed != a[i]:
            raise RuntimeError(f"rim growth reached row 1 with {placed} of {a[i]} cells placed")
        size += placed
    if c and (c[0] < 1 - len(c) or not all(map(lt, c, c[1:]))):
        raise RuntimeError(f"growth broke row monotonicity: {list(_parts(reversed(c)))}")
    return _parts(reversed(c))


def mullineux_map(lam, p) -> tuple:
    """The symbol involution: replace each r_i by s_i = a_i + eps_i - r_i."""
    a, r = _columns(_regular_arg(lam, p), p)
    return _reconstruct(a, tuple(x + _eps(x, p) - y for x, y in zip(a, r)), p)


def is_self_mullineux(lam, p) -> bool:
    """Fixed-point test via the symbol: a_i = 2 r_i - eps_i in every column."""
    return _is_self_mullineux(_regular_arg(lam, p), p)


def _is_self_mullineux(lam, p) -> bool:
    """is_self_mullineux on a trusted p-regular partition; stops at the first failing column."""
    for _, _, a, r in _peel(lam, p):
        if not _is_fixed(a, r, p):
            return False
    return True
