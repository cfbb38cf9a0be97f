"""Census of the partition families at a fixed size.

For one (p, n) this builds the families, not all p(n) partitions.  The
self-conjugate and BG-partitions unfold from their hook sets (distinct
odd parts, listed too when none is divisible by p).  The families pair
by symbol: the bg symbols must be the fixed-point symbols, and each is
rebuilt once into its self-Mullineux partner.  The last three families
are equinumerous, as prod (1 + t^q) over odd q with p not dividing q
counts.
"""

from functools import cache

from .partitions import _Value, _arms, _has_hook_divisible, _is_int, _is_p_regular, _size_arg, _unfold, as_partition, check_odd_p
from .partitions import diagonal_hook_lengths, format_partition
from .symbols import _columns, _eps, _reconstruct


# Caps on n, timed on a 2-vCPU x86 host (CPython 3.11, median of 3).  census grows with its families,
# largest once p > n makes every self-conjugate partition BG: at n = 150, 0.62 s at p = 3, 1.8 s at 15,
# 2.3 s at 999 and 2.0 s at 10^30 + 1 (4.4 s at 160), well under 10 s.  Its cap is held at 150 until it
# is re-timed (ROADMAP item 3), which must also weigh the report: 11.6 MB of text at (999, 150).
# The generating function takes about n^1.5 steps on growing integers; its cap is where one call takes
# about 10 s: at n = 80000, 8.6 s at p = 3 and 6.0 s at p = 999.
CENSUS_MAX_N = 150
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
            flags = [int(_is_p_regular(lam, self.p))] + [int(lam in fam) for fam in families]
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
    hook_sets = list(_distinct_odd(n, n))
    # row i <= d is (h_i + 1)/2 + i - 1: decreasing hook sets unfold to decreasing partitions
    selfconj = [_unfold([(h - 1) // 2 for h in hooks]) for hooks in hook_sets]
    bg = [lam for lam in selfconj if not _has_hook_divisible(_arms(lam), p)]  # _unfold built them self-conjugate
    distodd = [hooks for hooks in hook_sets if all(h % p for h in hooks)]

    # The diagonal hooks of a self-conjugate partition are distinct and odd,
    # and the correspondence is 1:1, in order; under it the BG condition
    # matches the no-part-divisible-by-p condition exactly.
    if [tuple(diagonal_hook_lengths(s)) for s in bg] != distodd:
        raise RuntimeError(f"diagonal-hook correspondence broke at p={p}, n={n}")

    # two independent enumerations of one symbol set: the DFS never calls the bijection
    symbols = [_columns(b, p, star=True) for b in bg]
    if sorted(symbols) != sorted(_fixed_points(p, n)):
        raise RuntimeError(f"BG pairing does not cover the self-Mullineux family at p={p}, n={n}")
    pairs = tuple((b, _reconstruct(a, r, p)) for b, (a, r) in zip(bg, symbols))
    selfmull = sorted((m for _, m in pairs), reverse=True)
    counts = _eta_quotient(n, (), (1,))[n], _eta_quotient(n, (p,), (1,))[n]  # 1/E_1, and E_p/E_1 (Glaisher)
    return CensusReport(p, n, *counts, *map(tuple, (selfconj, bg, selfmull, distodd)), pairs)


def _distinct_odd(n, largest):
    """Yield the partitions of n into distinct odd parts at most largest, in decreasing lexicographic order."""
    if n == 0:
        yield ()
    for h in range(min(n, largest) - 1 | 1, 0, -2):
        if n - h > (h // 2) ** 2:  # the odd parts below h sum to (h // 2)^2 at most
            return
        for rest in _distinct_odd(n - h, h - 2):
            yield (h, *rest)


def _fixed_points(p, n):
    """Columns (a, r) of every Mullineux symbol of size n with a_i = 2 r_i - eps_i in every column.

    Columns grow right to left, with r_{l+1} = 0 past the last: r_i - r_{i+1} runs over
    [eps_i, p + eps_i), and a_i = 2 r_i - eps_i must be positive with eps(a_i) = eps_i.  Under
    a = 2r - eps these are all four conditions of validate_symbol, so the next columns depend only
    on (r to their right, cells left).  steps works each such state out once and keeps the columns
    that can still finish, so every branch the walk enters ends in a symbol.
    """
    @cache
    def steps(below, cells):
        out = []
        for eps in (0, 1):
            for ri in range(below + eps, below + p + eps):
                ai = 2 * ri - eps
                if ai > cells:
                    break  # a_i grows with r_i
                if ai and _eps(ai, p) == eps and (ai == cells or steps(ri, cells - ai)):
                    out.append((ai, ri))
        return out

    out, todo = [], [((), (), n)]
    while todo:
        a, r, cells = todo.pop()
        if not cells:
            out.append((a, r))
        todo += [((ai, *a), (ri, *r), cells - ai) for ai, ri in steps(r[0] if r else 0, cells)]
    return out


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
