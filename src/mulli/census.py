"""Census of the partition families at a fixed size.

For one (p, n) this collects the p-regular count, the self-conjugate
partitions, the BG-partitions, the self-Mullineux partitions, and the
partitions into distinct odd parts not divisible by p, then pairs each
BG-partition with its self-Mullineux partner.  The last two families
are equinumerous with the BG-partitions, which is also what the product
generating function prod (1 + t^q) over odd q with p not dividing q
counts.
"""

import csv
import io
from dataclasses import dataclass, fields

from .bg import bg_to_mull
from .partitions import _conjugate, _is_bg, _is_int, _is_p_regular, _size_arg, as_partition, check_odd_p, diagonal_hook_lengths, format_partition
from .partitions import is_p_regular
from .symbols import _is_self_mullineux


# Caps on n where one call takes about 10 s (2-vCPU x86 host, CPython 3.11, median of 3).
# census walks all p(n) partitions, peeling every p-regular one: at n = 60, 6.1 s
# at p = 3, 9.3 s at p = 61 and 8.4 s at p = 999.  The generating function is
# quadratic in n: at n = 18000, 4.7 s at p = 3 and 8.2 s at p = 999.
CENSUS_MAX_N = 60
GF_MAX_N = 18_000


def partitions_of(n, largest=None):
    """Yield the partitions of n in decreasing lexicographic order.

    largest caps the first part.  partitions_of(0) yields only ().
    """
    _size_arg(n)
    if largest is not None and (not _is_int(largest) or largest < 0):
        raise ValueError(f"expected a largest part >= 0, got {largest!r}")
    if n == 0:
        yield ()
        return
    top = n if largest is None else min(n, largest)
    if top == 0:
        return
    lam, big, k, cells = [], 0, top, n  # big counts the parts > 1, which lead lam
    while True:
        # fill `cells` more cells greedily with parts <= k
        q, r = divmod(cells, k)
        lam += [k] * q
        if r:
            lam.append(r)
        big += (q if k > 1 else 0) + (r > 1)
        yield tuple(lam)
        if not big:
            return
        # the successor lowers the last part > 1 by one: drop it and the
        # ones after it, then refill their cells with parts below it
        k = lam[big - 1] - 1
        cells = k + 1 + len(lam) - big
        del lam[big - 1 :]
        big -= 1


def has_distinct_odd_parts(lam, p=None):
    """True when all parts are odd and distinct; with p, none divisible by p."""
    lam = as_partition(lam)
    if p is not None:
        check_odd_p(p)
    return _has_distinct_odd_parts(lam, p)


def _has_distinct_odd_parts(lam, p=None) -> bool:
    if len(set(lam)) != len(lam) or any(part % 2 == 0 for part in lam):
        return False
    return p is None or all(part % p for part in lam)


def _listed(x):
    """x with every tuple in it, at any depth, turned into a list."""
    return [_listed(y) for y in x] if isinstance(x, tuple) else x


@dataclass(frozen=True)
class CensusReport:
    p: int
    n: int
    all_count: int
    p_regular_count: int
    self_conjugate: tuple
    bg: tuple
    self_mullineux: tuple
    distinct_odd_nondiv: tuple
    pairs: tuple  # (bg partition, self-Mullineux partner), bg side decreasing lex

    def to_json_dict(self):
        return {f.name: _listed(getattr(self, f.name)) for f in fields(self)}

    def to_csv(self):
        """One row per partition that appears in any listed family.

        Columns: partition, p_regular, self_conjugate, bg, self_mullineux,
        distinct_odd_nondiv, maps_to (the partner, bg rows only).
        """
        partner = dict(self.pairs)
        families = (set(self.self_conjugate), set(self.bg), set(self.self_mullineux), set(self.distinct_odd_nondiv))
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["partition", "p_regular", "self_conjugate", "bg", "self_mullineux", "distinct_odd_nondiv", "maps_to"])
        for lam in sorted(set().union(*families), reverse=True):
            flags = [int(is_p_regular(lam, self.p))] + [int(lam in fam) for fam in families]
            maps_to = format_partition(partner[lam]) if lam in partner else ""
            writer.writerow([format_partition(lam), *flags, maps_to])
        return out.getvalue()

    def to_text(self):
        def block(title, fam):
            body = "\n".join(f"  {format_partition(lam) or '(empty)'}" for lam in fam) or "  (none)"
            return f"{title} ({len(fam)}):\n{body}"

        head = (
            f"census for p={self.p}, n={self.n}\n"
            f"partitions: {self.all_count}\n"
            f"{self.p}-regular: {self.p_regular_count}"
        )
        pairing = "\n".join(
            f"  {format_partition(b) or '(empty)'}  ->  {format_partition(m) or '(empty)'}"
            for b, m in self.pairs
        ) or "  (none)"
        return "\n".join([
            head,
            block("self-conjugate", self.self_conjugate),
            block("BG-partitions", self.bg),
            block("self-Mullineux", self.self_mullineux),
            block(f"distinct odd parts, none divisible by {self.p}", self.distinct_odd_nondiv),
            f"BG -> self-Mullineux pairing:\n{pairing}",
        ])


def census(p, n) -> CensusReport:
    """The families and the pairing at size n, for n up to CENSUS_MAX_N."""
    check_odd_p(p)
    _size_arg(n, CENSUS_MAX_N, "census")
    all_count = 0
    p_regular_count = 0
    selfconj, bg, selfmull, distodd = [], [], [], []
    # partitions_of yields valid partitions, so they go to the kernels unchecked
    for lam in partitions_of(n):
        all_count += 1
        if _is_p_regular(lam, p):
            p_regular_count += 1
            if _is_self_mullineux(lam, p):
                selfmull.append(lam)
        if lam == _conjugate(lam):
            selfconj.append(lam)
            if _is_bg(lam, p):
                bg.append(lam)
        if _has_distinct_odd_parts(lam, p):
            distodd.append(lam)

    # The diagonal hooks of a self-conjugate partition are distinct and odd,
    # and the correspondence is 1:1; under it the BG condition matches the
    # no-part-divisible-by-p condition exactly.
    via_hooks = sorted(
        (tuple(diagonal_hook_lengths(s)) for s in bg),
        reverse=True,
    )
    if via_hooks != sorted(distodd, reverse=True):
        raise RuntimeError(f"diagonal-hook correspondence broke at p={p}, n={n}")

    pairs = tuple((b, bg_to_mull(b, p)) for b in bg)
    if sorted(m for _, m in pairs) != sorted(selfmull):
        raise RuntimeError(f"BG pairing does not cover the self-Mullineux family at p={p}, n={n}")
    return CensusReport(
        p=p,
        n=n,
        all_count=all_count,
        p_regular_count=p_regular_count,
        self_conjugate=tuple(selfconj),
        bg=tuple(bg),
        self_mullineux=tuple(selfmull),
        distinct_odd_nondiv=tuple(distodd),
        pairs=pairs,
    )


def bg_counts_from_gf(p, n_max):
    """Coefficients 0..n_max of prod (1 + t^q), q odd and not divisible by p.

    Coefficient n counts the BG-partitions of n (equally: the partitions
    of n into distinct odd parts none divisible by p); n_max is at most GF_MAX_N.
    """
    check_odd_p(p)
    _size_arg(n_max, GF_MAX_N, "bg_counts_from_gf")
    coeffs = [1] + [0] * n_max
    for q in range(1, n_max + 1, 2):
        if q % p == 0:
            continue
        for k in range(n_max, q - 1, -1):
            coeffs[k] += coeffs[k - q]
    return coeffs
