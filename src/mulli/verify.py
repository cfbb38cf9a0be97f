"""Exhaustive small-size verification of every documented invariant.

run_checks(p, n_max) enumerates the partitions of each size up to n_max
once and wraps each in a lazy record.  A record computes each value a
law asks for at most once, from a private kernel or from one call to
the public function whose law a check states, and every other check
reuses that result.  Each check is a row of LAWS run over the shared
records; it reports how many concrete cases it covered, its wall time
and, on failure, the first witness: the law's, or the ValueError a
library call raised in it (a RuntimeError, a broken kernel invariant,
escapes).  CHECKS holds one check_<name>(p, n_max) callable per row, in
report order; called on its own, a check enumerates only the sizes it sweeps.
"""

import time
from collections import namedtuple
from operator import attrgetter

from .bg import add_rim_star_layer, bg_symbol, bg_to_mull, mull_to_bg
from .census import _eta_quotient, _has_distinct_odd_parts, bg_counts_from_gf, partitions_of
from .partitions import _Value, _is_p_regular, conjugate, diagonal_hook_lengths, hook_length, is_bg_partition, is_p_regular, is_self_conjugate
from .partitions import _size_arg, check_odd_p, self_conjugate_from_diagonal_hooks, truncate_to_durfee
from .rims import p_rim, p_rim_star, remove_p_rim, remove_p_rim_star, rim
from .symbols import _is_fixed, is_self_mullineux, mullineux_map, mullineux_symbol, reconstruct, validate_symbol


# Cap on n for run_checks and every check, which keeps the sweep small (2-vCPU x86 host,
# CPython 3.11): n = 30 took 6.2 s at p = 3, 6.3 s at p = 7 and 8.2 s at p = 31.
VERIFY_MAX_N = 30


class CheckResult(_Value, uncompared=("seconds",)):
    def __init__(self, name, ok, detail, cases, seconds=0.0):
        self.__dict__.update(name=name, ok=ok, detail=detail, cases=cases, seconds=seconds)

    def to_json_dict(self):
        return {name: getattr(self, name) for name in self._fields}


# each value a law may ask a record for, computed from its partition
_VALUES = {
    "conj": lambda r: conjugate(r.lam),
    "regular": lambda r: _is_p_regular(r.lam, r.p),
    "selfconj": lambda r: r.lam == r.conj,
    "bg": lambda r: r.selfconj and is_bg_partition(r.lam, r.p),
    "distinct_odd": lambda r: _has_distinct_odd_parts(r.lam),
    "image": lambda r: mullineux_map(r.lam, r.p),
    "self_mull": lambda r: r.regular and is_self_mullineux(r.lam, r.p),
    "hooks": lambda r: diagonal_hook_lengths(r.lam),
    "star": lambda r: p_rim_star(r.lam, r.p),
    "star_rest": lambda r: remove_p_rim_star(r.lam, r.p),
    "bg_sym": lambda r: bg_symbol(r.lam, r.p),
    "partner": lambda r: bg_to_mull(r.lam, r.p),
}


class _Record:
    """One partition of size n; each value is computed on first use, then shared."""

    __slots__ = ("lam", "n", "p", "peers", *_VALUES)

    def __init__(self, lam, n, p, peers):
        # peers maps every partition of size n to its record: a law about an
        # image of the same size reads the image's own record
        self.lam, self.n, self.p, self.peers = lam, n, p, peers

    def __getattr__(self, name):
        # called only while a value's slot is still empty
        if name not in _VALUES:
            raise AttributeError(name)
        value = _VALUES[name](self)
        setattr(self, name, value)
        return value


class _Sweep(dict):
    """size -> {partition: record}, filled on first use: partitions_of runs once per size."""

    def __init__(self, p, n_max):
        super().__init__()
        self.p = check_odd_p(p)
        self.gf = bg_counts_from_gf(p, _size_arg(n_max, VERIFY_MAX_N, "run_checks"))
        self.counts = _eta_quotient(n_max, (), (1,))  # p(0..n_max), by Euler's pentagonal-number recurrence
        # the sweep's predicted time, in integer units of 0.01 us so that a huge p is refused too: about 10 us per
        # cell swept (6-12 us at p = 3..199, n = 26), plus p + 1 layers per self-conjugate base at 63 + 0.23p us each
        # (measured in the whole sweep: 57 us at (p, n) = (51, 30), 257 at (999, 16), 1172 at (5001, 0), 1562 at (6599, 0));
        # E_2^2 / (E_1 E_4) = prod (1 + t^q), q odd, counts the self-conjugate bases
        self.layers = (p + 1) * sum(_eta_quotient(n_max, (2, 2), (1, 4)))
        work = 1000 * sum(k * c for k, c in enumerate(self.counts)) + self.layers * (6300 + 23 * p)
        if work > 10**9:
            seconds = -(-work // 10**8)
            about = f"10^{len(str(seconds - 1))}" if seconds > 10**6 else seconds  # a power of ten, rounded up
            raise ValueError(f"p={p}, n={n_max} is too large for verify: its checks would take about {about} s")

    def __missing__(self, n):
        peers = self[n] = {}
        for lam in partitions_of(n):
            peers[lam] = _Record(lam, n, self.p, peers)
        return peers


# one check as a table row: each record in the domain counts `cases` cases; `law`, and per_size once
# per extra case of a size, give None or the witness text
_Law = namedtuple("_Law", "name law domain sizes per_size cases", defaults=(
    lambda r: None, lambda r: True, lambda p, n_max: range(1, n_max + 1), lambda sweep, n, recs: (), lambda r: 1))


_selfconj, _regular, _bg = attrgetter("selfconj"), attrgetter("regular"), attrgetter("bg")


def _from_zero(p, n_max):
    return range(n_max + 1)


def _partition_count(sweep, n, recs):
    """The enumeration against Euler's pentagonal-number recurrence."""
    found = len(sweep[n])
    yield None if found == sweep.counts[n] else f"n={n}: enumerated {found}, recurrence {sweep.counts[n]}"


def _conjugate_involution(r):
    back = r.peers.get(r.conj)  # None unless the conjugate is a partition of n
    return None if back is not None and back.conj == r.lam else f"lam={r.lam}"


def _hook_transpose(r):
    """hook(lam, i, j) against lam_i - j + lam'_j - i + 1, read off the conjugate."""
    lam, conj = r.lam, r.conj
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            if hook_length(lam, i, j) != part - j + conj[j - 1] - i + 1:
                return f"lam={lam}, cell=({i},{j})"


def _diagonal_hooks(r):
    hooks = r.hooks
    if sum(hooks) != r.n or any(h % 2 == 0 for h in hooks) or any(a <= b for a, b in zip(hooks, hooks[1:])):
        return f"lam={r.lam}: hooks {hooks} are not distinct odd numbers summing to {r.n}"


def _hook_correspondence(r):
    if self_conjugate_from_diagonal_hooks(r.hooks) != r.lam:
        return f"lam={r.lam} fails the round trip"
    if r.bg != all(h % r.p for h in r.hooks):
        return f"lam={r.lam}: BG flag disagrees with hooks {r.hooks}"


def _hook_image(sweep, n, recs):
    if sorted(r.hooks for r in recs) != sorted(r.lam for r in sweep[n].values() if r.distinct_odd):
        yield f"n={n}: image does not match the distinct-odd family"


def _p_rim_structure(r):
    lam, p = r.lam, r.p
    path, pr = rim(lam), p_rim(lam, p)
    cells, segments = pr.cells, pr.segments
    if segments[0] != path[: len(segments[0])]:
        return f"lam={lam}: first segment strays from the rim path"
    if any(len(seg) != p for seg in segments[:-1]) or not 1 <= len(segments[-1]) <= p:
        return f"lam={lam}: bad segment sizes {[len(s) for s in segments]}"
    # cells run down the rows, so a segment's rows run from its first cell's to its last's
    if any(b[0][0] != a[-1][0] + 1 for a, b in zip(segments, segments[1:])):
        return f"lam={lam}: segments do not step down one row"
    if not set(cells) <= set(path) or cells[-1][0] != len(lam):
        return f"lam={lam}: p-rim leaves the rim or misses the last row"
    if sum(remove_p_rim(lam, p)) != r.n - len(pr):
        return f"lam={lam}: removal size mismatch"


def _rim_star_structure(r):
    """a* counts the union of both halves, r* the upper one, eps* the diagonal cell."""
    star, upper = r.star, r.star.upper
    diagonal = sum(1 for i, j in upper if i == j)
    if star.eps_star != diagonal or star.a_star != len(star.cells) or 2 * star.r_star != star.a_star + diagonal:
        return f"lam={r.lam}: a*={star.a_star}, r*={star.r_star}, eps*={star.eps_star} disagree with the cells"
    if not is_self_conjugate(r.star_rest) or sum(r.star_rest) != r.n - star.a_star:
        return f"lam={r.lam}: removal broke symmetry or size"


def _rim_star_parity(r):
    """An even a* forces p | a*."""
    if r.star.a_star % 2 == 0 and r.star.a_star % r.p:
        return f"lam={r.lam}: a*={r.star.a_star} even but not divisible by {r.p}"


def _parity_converse(sweep, n, recs):
    """The converse fails: (5,3,2,1,1) has a* = 9 at p = 3, odd and divisible by 3."""
    if sweep.p == 3 and n == 12:
        a = sweep[12][(5, 3, 2, 1, 1)].star.a_star
        yield None if a == 9 else f"witness a*={a}, expected 9"


def _bg_four_way(r):
    """On BG-partitions: eps*=0, a* even, no diagonal rim cell, p | a* agree."""
    star = r.star
    flags = (star.eps_star == 0, star.a_star % 2 == 0, not any(i == j for i, j in star.upper), star.a_star % r.p == 0)
    if len(set(flags)) != 1:
        return f"lam={r.lam}: flags {flags} disagree"


def _bg_symbols_distinct(sweep, n, recs):
    seen = {}
    for r in recs:
        if r.bg_sym in seen:
            yield f"{seen[r.bg_sym]} and {r.lam} share {r.bg_sym.to_text()}"
            return
        seen[r.bg_sym] = r.lam


def _bg_symbol_validates(r):
    sym = r.bg_sym
    ok, why = validate_symbol(sym)
    if not ok:
        return f"lam={r.lam}: {why}"
    if not all(_is_fixed(x, y, r.p) for x, y in zip(sym.a, sym.r)):
        return f"lam={r.lam}: a != 2r - eps in {sym.to_text()}"


def _symbol_roundtrip(r):
    back = reconstruct(mullineux_symbol(r.lam, r.p))
    if back != r.lam:
        return f"lam={r.lam} reconstructs to {back}"


def _involution(r):
    back = r.peers.get(r.image)  # the image's own record: m(m(lam)) is its image, which rejects a p-singular one
    if back is None:
        return f"lam={r.lam}: image {r.image} leaves the domain"
    if back.image != r.lam:
        return f"lam={r.lam}: m(m(lam)) = {back.image}"


def _layer_postconditions(r):
    for eps, m in [(1, m) for m in range(r.p)] + ([(0, 0)] if r.lam else []):
        grown = add_rim_star_layer(r.lam, eps, m, r.p)
        star = p_rim_star(grown, r.p)
        if star.eps_star != eps or (star.r_star - star.eps_star) % r.p != m:
            return f"base={r.lam}, eps={eps}, m={m}: stats off"
        if remove_p_rim_star(grown, r.p) != r.lam:
            return f"base={r.lam}, eps={eps}, m={m}: removal misses the base"


def _bijection_roundtrip(r):
    if r.bg and (back := mull_to_bg(r.partner, r.p)) != r.lam:
        return f"lam={r.lam}: mull_to_bg(bg_to_mull) = {back}"
    if r.self_mull:
        back = r.peers.get(mull_to_bg(r.lam, r.p))  # its partner calls bg_to_mull, which rejects a non-BG partition
        if back is None or back.partner != r.lam:
            return f"mu={r.lam}: bg_to_mull(mull_to_bg) misses"


def _bijection_families(sweep, n, recs):
    """The image is the self-Mullineux family, and all three families have the gf coefficient's size."""
    image = [r.partner for r in recs if r.bg]
    mull = [r.lam for r in recs if r.self_mull]
    odd = [r for r in sweep[n].values() if r.distinct_odd and _has_distinct_odd_parts(r.lam, sweep.p)]
    if sorted(image) != sorted(mull):
        yield f"n={n}: image {image} is not the self-Mullineux family {mull}"
    elif not len(image) == len(mull) == len(odd) == sweep.gf[n]:
        yield f"n={n}: counts bg={len(image)}, mull={len(mull)}, distinct-odd={len(odd)}, gf={sweep.gf[n]}"
    else:
        yield None


LAWS = (
    _Law("partition-count", domain=lambda r: False, sizes=_from_zero, per_size=_partition_count),
    _Law("conjugate-involution", _conjugate_involution, sizes=_from_zero),
    _Law("hook-transpose", _hook_transpose, sizes=_from_zero, cases=lambda r: r.n),
    _Law("diagonal-hooks", _diagonal_hooks, _selfconj, _from_zero),
    _Law("diagonal-hook-correspondence", _hook_correspondence, _selfconj, _from_zero, _hook_image),
    _Law("p-rim-structure", _p_rim_structure),
    _Law("rim-star-structure", _rim_star_structure, _selfconj),
    _Law("rim-star-parity", _rim_star_parity, _selfconj, per_size=_parity_converse),
    _Law("bg-four-way", _bg_four_way, _bg),
    _Law("bg-truncation", lambda r: None if is_p_regular(truncate_to_durfee(r.lam), r.p) else f"lam={r.lam}", _bg),
    _Law("bg-closure", lambda r: None if is_bg_partition(r.star_rest, r.p) else f"lam={r.lam}", _bg),
    _Law("bg-symbol-injective", domain=_selfconj, sizes=_from_zero, per_size=_bg_symbols_distinct),
    _Law("bg-symbol-validates", _bg_symbol_validates, _bg),
    _Law("symbol-roundtrip", _symbol_roundtrip, _regular),
    _Law("mullineux-involution", _involution, _regular),
    _Law("self-mullineux-fixed-points", lambda r: None if r.self_mull == (r.image == r.lam) else f"lam={r.lam}", _regular),
    # below n = p every partition is p-regular and the map degenerates to conjugation
    _Law("small-size-conjugation", lambda r: None if r.image == r.conj else f"lam={r.lam}", sizes=lambda p, n: range(1, min(n, p - 1) + 1)),
    _Law("layer-postconditions", _layer_postconditions, _selfconj, _from_zero, cases=lambda r: r.p + bool(r.lam)),
    _Law("bijection-roundtrip", _bijection_roundtrip, lambda r: r.bg or r.self_mull, _from_zero, _bijection_families, lambda r: r.bg + r.self_mull),
)


def _check(law):
    """The row as a timed check_<name>(p, n_max, sweep=None) callable; a ValueError is a lam=... or n=... witness."""

    def check(p, n_max, sweep=None):
        start = time.perf_counter()
        sweep = _Sweep(p, n_max) if sweep is None else sweep
        cases, r = 0, None

        def result(witness=None):
            return CheckResult(law.name, not witness, witness or f"{cases} cases", cases, time.perf_counter() - start)

        try:
            for n in law.sizes(p, n_max):
                recs = [r for r in sweep[n].values() if law.domain(r)]
                for r in recs:
                    cases += law.cases(r)
                    if witness := law.law(r):
                        return result(witness)
                r = None  # past the records: a ValueError now comes from the size's per-size law
                for witness in law.per_size(sweep, n, recs):
                    cases += 1
                    if witness:
                        return result(witness)
        except ValueError as exc:
            return result(f"{f'n={n}' if r is None else f'lam={r.lam}'}: {exc}")
        return result()

    check.__name__ = check.__qualname__ = "check_" + law.name.replace("-", "_")
    return check


CHECKS = tuple(_check(law) for law in LAWS)


def run_checks(p, n_max):
    """Run every check at (p, n_max) over one shared sweep; the first check to need a record value pays for it."""
    sweep = _Sweep(p, n_max)
    return [check(p, n_max, sweep) for check in CHECKS]
