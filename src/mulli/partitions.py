"""Integer partitions and elementary Young diagram statistics.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the unique partition of 0.  The Young diagram of
lam = (lam_1, ..., lam_l) is the cell set {(i, j) : 1 <= j <= lam_i},
drawn with row 1 on top.

Conventions:
  * cells are (row, col) pairs, both 1-based
  * conjugation transposes the diagram; entry j of the conjugate counts
    the parts of size >= j
  * the hook of cell (i, j) is the cell itself, the cells to its right
    in row i, and the cells below it in column j
  * p always denotes an odd modulus >= 3; primality is deliberately not
    enforced (every definition here is well posed for odd p, though the
    deeper theorems about the maps built on top are proved for primes)
  * every integer argument is an int and not a bool (_is_int), every
    sequence an iterable (_as_tuple); public functions check their
    arguments once, here, and call trusted kernels
  * a self-conjugate partition is determined by its arms, the beta numbers
    b_i = lam_i - i of its Durfee rows; its diagonal hooks are 2 b_i + 1.
    Kernels convert it once in (_arms) and once out (_unfold)

Every function is pure and every value immutable.
"""

import sys
from itertools import accumulate
from operator import add, attrgetter, gt, le, sub

# Desk-scale tool: partitions are validated to at most this many cells,
# so all arithmetic stays in machine words.
MAX_CELLS = 10**6

# row indices 1, 2, ... for map, which stops at its shortest argument
_ROWS = range(1, sys.maxsize)


class _Value:
    """A frozen value: its fields are the parameters of its class's __init__, which stores them.

    Equal and hashed by type and fields (uncompared=(names,) leaves some out).
    """

    def __init_subclass__(cls, uncompared=()):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._key = attrgetter(*(f for f in cls._fields if f not in uncompared))

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def as_partition(parts) -> tuple[int, ...]:
    """Normalize to the canonical tuple form, validating the shape.

    Accepts any iterable of positive integers in weakly decreasing
    order.  Trailing zeros are rejected, not stripped: canonical input
    is expected from callers, so equality stays structural.
    """
    lam = _as_tuple(parts, "a partition must be an iterable of parts")
    # builtins accept plain int parts at once; the loop finds the first bad part
    if not lam or set(map(type, lam)) != {int} or lam[-1] < 1 or not _is_weakly_decreasing(lam):
        for x in lam:
            if not _is_int(x) or x < 1:
                raise ValueError(f"parts must be positive integers, got {x!r}")
        if not _is_weakly_decreasing(lam):
            raise ValueError(f"parts must be weakly decreasing, got {lam}")
    if sum(lam) > MAX_CELLS:
        raise ValueError(f"partition of {sum(lam)} exceeds the size cap {MAX_CELLS}")
    return lam


def _is_weakly_decreasing(rows) -> bool:
    # sorting an already sorted sequence is a single linear pass
    return sorted(rows, reverse=True) == list(rows)


def _is_int(x) -> bool:
    """The one integer rule of the public API: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _size_arg(n, cap=MAX_CELLS, name=None) -> int:
    """The one size rule of the public API: an int from 0 to MAX_CELLS, since a size counts cells.

    A function whose work grows fast with n also passes its own cap and name.
    """
    if not _is_int(n) or n < 0:
        raise ValueError(f"expected a size >= 0, got {n!r}")
    if n > MAX_CELLS:
        raise ValueError(f"size {n} exceeds the size cap {MAX_CELLS}")
    if n > cap:
        raise ValueError(f"n={n} exceeds the {name} cap {cap}")
    return n


def _as_tuple(items, what) -> tuple:
    """The one sequence rule of the public API: tuple(items), or ValueError(f"{what}, got {items!r}")."""
    try:
        return tuple(items)
    except TypeError:
        raise ValueError(f"{what}, got {items!r}") from None


def check_odd_p(p) -> int:
    """Validate the modulus: an odd integer >= 3 (primality not required)."""
    if not _is_int(p) or p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd integer >= 3, got {p!r}")
    return p


def _partition_arg(lam, p) -> tuple[int, ...]:
    """The validated partition of a function of (lam, p); p is checked after lam."""
    lam = as_partition(lam)
    check_odd_p(p)
    return lam


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse '5,2,2,1' or the exponent form '5,2^2,1'; '' and '-' give ().

    Whitespace around commas is ignored.  The result is validated, so
    '1,3' or '2^0' raise ValueError.
    """
    if not isinstance(text, str):
        raise ValueError(f"a partition text must be a string, got {text!r}")
    text = text.strip()
    if text in ("", "-"):
        return ()
    parts = []
    cells = 0
    for token in text.split(","):
        token = token.strip()
        base, _, exponent = token.partition("^")
        try:
            value = int(base)
            count = int(exponent) if exponent else 1
        except ValueError:
            raise ValueError(f"cannot parse partition piece {token!r}") from None
        if count < 1:
            raise ValueError(f"exponent must be positive in {token!r}")
        # check the cap before expanding, so '5^1000000000' allocates nothing
        cells += max(value, 1) * count
        if cells > MAX_CELLS:
            raise ValueError(f"partition of at least {cells} cells exceeds the size cap {MAX_CELLS}")
        parts.extend([value] * count)
    return as_partition(parts)


def format_partition(lam) -> str:
    """Canonical text form: plain comma-separated parts ('' for the empty partition)."""
    return ",".join(str(x) for x in as_partition(lam))


def conjugate(lam) -> tuple[int, ...]:
    """Transpose of the diagram: entry j counts the parts of size >= j."""
    return _conjugate(as_partition(lam))


def _conjugate(lam) -> tuple[int, ...]:
    """conjugate on a trusted partition, in O(len + lam_1)."""
    if not lam:
        return ()
    equal = [0] * lam[0]  # equal[j] = number of parts of size j + 1
    for part in lam:
        equal[part - 1] += 1
    return tuple(accumulate(reversed(equal)))[::-1]


def is_self_conjugate(lam) -> bool:
    lam = as_partition(lam)
    return lam == _conjugate(lam)


def durfee_length(lam) -> int:
    """Number of diagonal cells: the largest i with lam_i >= i (0 if empty)."""
    return _durfee(as_partition(lam))


def _durfee(lam) -> int:
    # lam_i - i strictly decreases, so the rows with lam_i >= i are a prefix
    return sum(map(le, range(1, len(lam) + 1), lam))


def _arms(lam) -> list:
    """The beta numbers of the Durfee rows of lam; for a self-conjugate lam they determine it (_unfold)."""
    return _betas(lam[: _durfee(lam)])


def _unfold(arms) -> tuple[int, ...]:
    """The self-conjugate partition with these arms, which must strictly decrease to a last entry >= 0."""
    if not all(map(gt, arms, arms[1:])) or (arms and arms[-1] < 0):
        raise RuntimeError(f"the rows {_parts(arms)} are not the Durfee rows of a self-conjugate partition")
    top = _parts(arms)
    return top + _conjugate(top)[len(top) :]


def _betas(rows) -> list:
    """Beta numbers b_i = rows_i - i: strictly decreasing exactly when the rows weakly decrease."""
    return list(map(sub, rows, _ROWS))


def _parts(betas) -> tuple:
    """The row lengths b_i + i of the beta numbers b_1, b_2, ... (any iterable)."""
    return tuple(map(add, betas, _ROWS))


def _top_size(arms) -> int:
    """Size of _unfold(arms): its diagonal hooks 2 b_i + 1 summed."""
    return 2 * sum(arms) + len(arms)


def _has_hook_divisible(arms, p) -> bool:
    """Whether p divides a diagonal hook 2 b_i + 1 of _unfold(arms)."""
    # p is odd, so p | 2 b_i + 1 exactly when b_i = (p - 1) / 2 mod p
    return (p - 1) // 2 in map(p.__rmod__, arms)


def hook_length(lam, row: int, col: int) -> int:
    """Cells of the hook based at (row, col): arm, leg, and the cell itself."""
    lam = as_partition(lam)
    _cell_arg(lam, (row, col))
    arm = lam[row - 1] - col
    leg = sum(map(col.__le__, lam[row:]))
    return arm + leg + 1


def _cell_arg(lam, cell) -> tuple:
    """The validated cell of a trusted partition: a (row, col) pair, tuple or list, of two ints inside its diagram."""
    try:
        row, col = cell
    except (TypeError, ValueError):
        raise ValueError(f"a cell must be a (row, col) pair, got {cell!r}") from None
    if not (_is_int(row) and _is_int(col) and 1 <= row <= len(lam) and 1 <= col <= lam[row - 1]):
        raise ValueError(f"cell ({row!r},{col!r}) lies outside the diagram of {lam}")
    return row, col


def diagonal_hook_lengths(lam) -> tuple[int, ...]:
    """Hook lengths at the diagonal cells (1,1), (2,2), ...

    For self-conjugate lam these are distinct odd numbers summing to the
    size, and they determine lam (see self_conjugate_from_diagonal_hooks).
    """
    lam = as_partition(lam)
    return tuple(b + c + 1 for b, c in zip(_arms(lam), _arms(_conjugate(lam))))


def self_conjugate_from_diagonal_hooks(hooks) -> tuple[int, ...]:
    """Rebuild the self-conjugate partition whose diagonal hooks are given.

    hooks must be strictly decreasing positive odd integers.  Hook i
    becomes the symmetric hook with arm = leg = (h_i - 1) / 2 based at
    the diagonal cell (i, i); nesting them left to right gives the
    unique self-conjugate preimage.
    """
    hooks = _as_tuple(hooks, "diagonal hooks must be an iterable of positive odd integers")
    for h in hooks:
        if not _is_int(h) or h < 1 or h % 2 == 0:
            raise ValueError(f"diagonal hooks must be positive odd integers, got {h!r}")
    if not all(map(gt, hooks, hooks[1:])):
        raise ValueError(f"diagonal hooks must be strictly decreasing, got {hooks}")
    if sum(hooks) > MAX_CELLS:
        raise ValueError(f"partition of {sum(hooks)} exceeds the size cap {MAX_CELLS}")
    arms = [(h - 1) // 2 for h in hooks]
    lam = _unfold(arms)
    if lam != _conjugate(lam) or _arms(lam) != arms:
        raise RuntimeError(f"the diagonal hooks {hooks} rebuilt {lam}, which does not have them")
    return lam


def is_p_regular(lam, p) -> bool:
    """True when no part value occurs p or more times."""
    return _is_p_regular(_partition_arg(lam, p), p)


def _regular_arg(lam, p) -> tuple[int, ...]:
    """The validated partition of a function defined on p-regular partitions."""
    lam = _partition_arg(lam, p)
    if not _is_p_regular(lam, p):
        raise ValueError(f"{lam} is not {p}-regular")
    return lam


def _self_conjugate_arg(lam, p) -> tuple[int, ...]:
    """The validated partition of a function defined on self-conjugate partitions."""
    lam = _partition_arg(lam, p)
    if lam != _conjugate(lam):
        raise ValueError(f"{lam} is not self-conjugate")
    return lam


def _is_p_regular(lam, p) -> bool:
    # parts are sorted, so a value repeats p times iff it spans p consecutive places
    return all(first != last for first, last in zip(lam, lam[p - 1 :]))


def is_bg_partition(lam, p) -> bool:
    """Self-conjugate with no diagonal hook length divisible by p."""
    return _is_bg(_partition_arg(lam, p), p)


def _is_bg(lam, p) -> bool:
    return lam == _conjugate(lam) and not _has_hook_divisible(_arms(lam), p)


def truncate_to_durfee(lam) -> tuple[int, ...]:
    """The first k rows, where k is the Durfee length."""
    lam = as_partition(lam)
    if not lam:
        raise ValueError("the empty partition has no rows to keep")
    return lam[: _durfee(lam)]
