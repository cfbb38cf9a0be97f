"""Census of the partition families at a fixed size.

For one (p, n) this collects the p-regular count, the self-conjugate
partitions, the BG-partitions, the self-Mullineux partitions, and the
partitions into distinct odd parts not divisible by p, then pairs each
BG-partition with its self-Mullineux partner.  The last two families
are equinumerous with the BG-partitions, which is also what the product
generating function prod (1 + t^q) over odd q with p not dividing q
counts.
"""

from .bg import bg_to_mull
from .partitions import _Value, _conjugate, _is_bg, _is_int, _is_p_regular, _size_arg, as_partition, check_odd_p, diagonal_hook_lengths, format_partition
from .partitions import is_p_regular
from .symbols import _is_self_mullineux


# Caps on n where one call takes about 10 s (2-vCPU x86 host, CPython 3.11, median of 3).
# census walks all p(n) partitions, peeling every p-regular one: at n = 60, 6.1 s
# at p = 3, 9.3 s at p = 61 and 8.4 s at p = 999.  The generating function takes about
# n^1.5 steps on growing integers: at n = 80000, 8.6 s at p = 3 and 6.0 s at p = 999.
CENSUS_MAX_N = 60
GF_MAX_N = 80_000


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


class CensusReport(_Value):
    # pairs: (bg partition, self-Mullineux partner), bg side decreasing lex
    def __init__(self, p, n, all_count, p_regular_count, self_conjugate, bg, self_mullineux, distinct_odd_nondiv, pairs):
        self.__dict__.update(zip(self._fields, (p, n, all_count, p_regular_count, self_conjugate, bg, self_mullineux, distinct_odd_nondiv, pairs)))

    def to_json_dict(self):
        return {name: _listed(getattr(self, name)) for name in self._fields}

    def to_csv(self):
        """One row per partition that appears in any listed family.

        Columns: partition, p_regular, self_conjugate, bg, self_mullineux,
        distinct_odd_nondiv, maps_to (the partner, bg rows only).
        """
        import csv, io  # only the CSV format needs them

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
    all_count = p_regular_count = 0
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
    via_hooks = sorted((tuple(diagonal_hook_lengths(s)) for s in bg), reverse=True)
    if via_hooks != sorted(distodd, reverse=True):
        raise RuntimeError(f"diagonal-hook correspondence broke at p={p}, n={n}")

    pairs = tuple((b, bg_to_mull(b, p)) for b in bg)
    if sorted(m for _, m in pairs) != sorted(selfmull):
        raise RuntimeError(f"BG pairing does not cover the self-Mullineux family at p={p}, n={n}")
    return CensusReport(p, n, all_count, p_regular_count, *map(tuple, (selfconj, bg, selfmull, distodd)), pairs)


def bg_counts_from_gf(p, n_max):
    """Coefficients 0..n_max of prod (1 + t^q), q odd and not divisible by p.

    Coefficient n counts the BG-partitions of n (equally: the partitions
    of n into distinct odd parts none divisible by p); n_max is at most GF_MAX_N.
    """
    check_odd_p(p)
    _size_arg(n_max, GF_MAX_N, "bg_counts_from_gf")
    return _eta_quotient(n_max, (2, 2, p, 4 * p), (1, 4, 2 * p, 2 * p))


def _eta_quotient(n, top, bottom):
    """Coefficients 0..n of prod E_k over k in top divided by prod E_k over k in bottom.

    E_k(t) = prod_{j >= 1} (1 - t^(kj)); p(n) = [t^n] 1/E_1, and prod (1 + t^q) over odd q not
    divisible by p is E_2^2 E_p E_4p / (E_1 E_4 E_2p^2).  By Euler's pentagonal theorem E_k's only
    terms to t^n are 1 and (-1)^j t^(k j(3j -+ 1)/2) for j >= 1, about 2 sqrt(2n/3k) of them, so each
    factor takes one pass: a product from the top coefficient down, a quotient from the bottom up.
    """
    coeffs = [1] + [0] * n
    for k, times in [(k, True) for k in top] + [(k, False) for k in bottom]:
        gains, losses, j = [], [], 1  # the exponents g whose terms add coeffs[m - g] to coeffs[m], or subtract it; a quotient flips the signs
        while k * j * (3 * j - 1) // 2 <= n:
            (losses if j % 2 == times else gains).extend(g for g in (k * j * (3 * j - 1) // 2, k * j * (3 * j + 1) // 2) if g <= n)
            j += 1
        for m in range(n, 0, -1) if times else range(1, n + 1):
            coeffs[m] += sum([coeffs[m - g] for g in gains if g <= m]) - sum([coeffs[m - g] for g in losses if g <= m])
    return coeffs
