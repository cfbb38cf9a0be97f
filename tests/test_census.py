"""Enumeration, family filters, and the counting identities."""

import functools
import importlib
import itertools
import json
import operator
import time

import pytest

from mulli import MAX_CELLS, CensusReport, Symbol, bg_counts_from_gf, bg_to_mull, census, has_distinct_odd_parts, mull_to_bg, partitions_of, run_checks
from mulli import is_bg_partition, is_p_regular, is_self_conjugate, is_self_mullineux, reconstruct, validate_symbol
from mulli.census import _distinct_odd, _fixed_points, _has_distinct_odd_parts
from mulli.partitions import _conjugate, _is_bg, _is_p_regular
from mulli.symbols import _eps, _is_self_mullineux
from mulli.verify import CHECKS, _Sweep


@functools.cache
def partition_count(n, largest):
    """Independent counting oracle: p(n) by first-part recursion."""
    if n == 0:
        return 1
    return sum(partition_count(n - first, first) for first in range(1, min(n, largest) + 1))


def test_partitions_of_golden():
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(1)) == [(1,)]
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_of_counts():
    assert sum(1 for _ in partitions_of(10)) == 42
    assert sum(1 for _ in partitions_of(18)) == 385
    for n in range(15):
        assert sum(1 for _ in partitions_of(n)) == partition_count(n, n)


def test_partitions_of_order_and_uniqueness():
    for n in range(12):
        out = list(partitions_of(n))
        assert out == sorted(out, reverse=True)
        assert len(set(out)) == len(out)
        assert all(sum(lam) == n for lam in out)


def test_has_distinct_odd_parts():
    assert has_distinct_odd_parts((17, 1))
    assert has_distinct_odd_parts((17, 1), 3)
    assert has_distinct_odd_parts((3, 1))
    assert not has_distinct_odd_parts((3, 1), 3)
    assert not has_distinct_odd_parts((2, 1))
    assert not has_distinct_odd_parts((3, 3))
    assert has_distinct_odd_parts((), 3)


def test_census_n18_p3():
    report = census(3, 18)
    assert report.all_count == 385
    assert report.p_regular_count == 135
    assert set(report.self_conjugate) == {
        (5, 4, 4, 4, 1),
        (6, 5, 2, 2, 2, 1),
        (7, 4, 2, 2, 1, 1, 1),
        (8, 3, 2, 1, 1, 1, 1, 1),
        (9, 2, 1, 1, 1, 1, 1, 1, 1),
    }
    assert set(report.bg) == {
        (6, 5, 2, 2, 2, 1),
        (7, 4, 2, 2, 1, 1, 1),
        (9, 2, 1, 1, 1, 1, 1, 1, 1),
    }
    assert set(report.self_mullineux) == {
        (7, 5, 2, 2, 1, 1),
        (9, 4, 4, 1),
        (10, 4, 4),
    }
    assert dict(report.pairs) == {
        (6, 5, 2, 2, 2, 1): (10, 4, 4),
        (7, 4, 2, 2, 1, 1, 1): (7, 5, 2, 2, 1, 1),
        (9, 2, 1, 1, 1, 1, 1, 1, 1): (9, 4, 4, 1),
    }


def test_census_n0():
    report = census(3, 0)
    assert report.all_count == report.p_regular_count == 1
    assert report.self_conjugate == report.bg == report.self_mullineux == ((),)
    assert report.pairs == (((), ()),)


def test_census_p5_n20_pairing():
    report = census(5, 20)
    assert ((7, 5, 2, 2, 2, 1, 1), (7, 6, 3, 2, 2)) in report.pairs


def test_gf_golden():
    coeffs = bg_counts_from_gf(3, 18)
    assert coeffs[0] == 1
    assert coeffs[18] == 3
    assert bg_counts_from_gf(5, 0) == [1]


def test_gf_against_subset_sums():
    # brute oracle: count subsets of the allowed parts directly
    for p in (3, 5):
        n_max = 16
        allowed = [q for q in range(1, n_max + 1, 2) if q % p]
        counts = [0] * (n_max + 1)
        for size in range(len(allowed) + 1):
            for combo in itertools.combinations(allowed, size):
                if sum(combo) <= n_max:
                    counts[sum(combo)] += 1
        assert bg_counts_from_gf(p, n_max) == counts


def _bg_counts_by_product(p, n_max):
    """The product loop bg_counts_from_gf replaced, as an oracle: one factor (1 + t^q) per allowed q."""
    coeffs = [1] + [0] * n_max
    for q in range(1, n_max + 1, 2):
        if q % p:
            for k in range(n_max, q - 1, -1):
                coeffs[k] += coeffs[k - q]
    return coeffs


@pytest.mark.parametrize("p, n_max", [(3, 2000), (5, 2000), (7, 2000), (9, 2000), (15, 2000), (999, 2000), (10**400 + 1, 50)])
def test_gf_matches_the_product(p, n_max):
    # the series for the eta quotient against the product it equals; a smaller
    # call's coefficients are a prefix of this one's
    assert bg_counts_from_gf(p, n_max) == _bg_counts_by_product(p, n_max)


def test_sweep_counts_match_the_enumeration():
    assert _Sweep(3, 30).counts == [sum(1 for _ in partitions_of(n)) for n in range(31)]


def test_gf_matches_census():
    coeffs = bg_counts_from_gf(3, 12)
    for n in range(13):
        assert len(census(3, n).bg) == coeffs[n]


def test_census_csv():
    import csv
    import io

    report = census(3, 18)
    blob = report.to_csv()
    lines = blob.splitlines()
    assert lines[0] == "partition,p_regular,self_conjugate,bg,self_mullineux,distinct_odd_nondiv,maps_to"
    # partition text is quoted, so the embedded commas survive a csv reader
    rows = {row[0]: row for row in csv.reader(io.StringIO(blob))}
    assert rows["17,1"][1:] == ["1", "0", "0", "0", "1", ""]
    assert rows["10,4,4"][1:] == ["1", "0", "0", "1", "0", ""]
    # three parts equal to 2, so not 3-regular, yet a BG-partition
    assert rows["6,5,2,2,2,1"][1:] == ["0", "1", "1", "0", "0", "10,4,4"]
    members = {lam for fam in (report.self_conjugate, report.bg, report.self_mullineux, report.distinct_odd_nondiv) for lam in fam}
    assert len(lines) == 1 + len(members)


def test_census_json_round_trips():
    report = census(3, 10)
    blob = json.dumps(report.to_json_dict())
    back = json.loads(blob)
    assert back["all_count"] == 42
    assert [tuple(x) for x in back["bg"]] == list(report.bg)
    for report in (report, census(3, 18)):
        d = report.to_json_dict()
        assert list(d) == [
            "p", "n", "all_count", "p_regular_count", "self_conjugate", "bg", "self_mullineux", "distinct_odd_nondiv", "pairs"
        ]
        for name in ("self_conjugate", "bg", "self_mullineux", "distinct_odd_nondiv"):
            assert type(d[name]) is list and all(type(lam) is list for lam in d[name]), name
        assert d["pairs"] == [[list(b), list(m)] for b, m in report.pairs]
        assert all(type(pair) is list and all(type(lam) is list for lam in pair) for pair in d["pairs"])
    assert d["pairs"] and d["bg"]


@pytest.mark.parametrize("n", [MAX_CELLS + 1, 2**63, 10**30])
def test_sizes_are_capped_before_any_work(n):
    message = f"size {n} exceeds the size cap {MAX_CELLS}"
    for call in (
        lambda: next(partitions_of(n)),
        lambda: census(3, n),
        lambda: bg_counts_from_gf(3, n),
        lambda: run_checks(3, n),
        lambda: CHECKS[0](3, n),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    with pytest.raises(ValueError, match=r"expected a size >= 0, got -1"):
        next(partitions_of(-1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: census(3, 151), "n=151 exceeds the census cap 150"),
        (lambda: bg_counts_from_gf(999, 80001), "n=80001 exceeds the bg_counts_from_gf cap 80000"),
        (lambda: run_checks(3, 31), "n=31 exceeds the run_checks cap 30"),
        *[(functools.partial(check, 3, 31), "n=31 exceeds the run_checks cap 30") for check in CHECKS],
        (functools.partial(run_checks, 999, 31), "n=31 exceeds the run_checks cap 30"),
        *[
            (functools.partial(check, 999, 17), "p=999, n=17 is too large for verify: its checks would take about 12 s")
            for check in (run_checks, *CHECKS)
        ],
        (functools.partial(run_checks, 199, 30), "p=199, n=30 is too large for verify: its checks would take about 12 s"),
    ],
)
def test_costly_calls_are_capped_before_any_work(call, message):
    # one past each cap is refused at once.  The gf cap is where one call takes about 10 s; census's 150
    # is held, well under that, until ROADMAP item 3 re-times it with its report size (verify's
    # whole sweep is predicted at 9.4 s for p = 199, n = 29 and 11.4 s at n = 30; 9.8 s and 11.3 s
    # for p = 999 at n = 16 and 17, and a refusal rounds its seconds up)
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        call()
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == message


def test_census_invariants_raise(monkeypatch):
    module = importlib.import_module("mulli.census")  # the package's `census` attribute is the function
    monkeypatch.setattr(module, "diagonal_hook_lengths", lambda lam: (3,))
    with pytest.raises(RuntimeError) as err:
        census(5, 1)
    assert str(err.value) == "diagonal-hook correspondence broke at p=5, n=1"
    monkeypatch.undo()
    # a bg symbol the DFS does not list: (3; 2) has size 3, not 1
    monkeypatch.setattr(module, "_columns", lambda lam, p, star=False: ((3,), (2,)))
    with pytest.raises(RuntimeError) as err:
        census(5, 1)
    assert str(err.value) == "BG pairing does not cover the self-Mullineux family at p=5, n=1"
    monkeypatch.undo()
    # the fixed points are enumerated apart from the BG family, so a symbol the DFS loses shows
    monkeypatch.setattr(module, "_fixed_points", lambda p, n: _fixed_points(p, n)[1:])
    with pytest.raises(RuntimeError) as err:
        census(3, 18)
    assert str(err.value) == "BG pairing does not cover the self-Mullineux family at p=3, n=18"


def _recursive_partitions(n, largest):
    """The recursive enumeration partitions_of replaced, as an order oracle."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _recursive_partitions(n - first, first):
            yield (first,) + rest


def test_partitions_of_matches_the_recursive_order():
    for n in range(21):
        assert list(partitions_of(n)) == list(_recursive_partitions(n, n))
        for largest in range(n + 2):
            assert list(partitions_of(n, largest)) == list(_recursive_partitions(n, largest)), (n, largest)


def test_partitions_of_needs_no_recursion():
    assert next(partitions_of(3000, 1)) == (1,) * 3000
    assert next(partitions_of(3000)) == (3000,)


@pytest.mark.parametrize("largest", [2.5, -3, True, "4"])
def test_partitions_of_rejects_a_bad_largest(largest):
    with pytest.raises(ValueError):
        next(partitions_of(4, largest))


@pytest.mark.parametrize("p", [0, 2, 4, 1, -3])
def test_has_distinct_odd_parts_checks_p(p):
    with pytest.raises(ValueError):
        has_distinct_odd_parts((3, 1), p)


def test_census_agrees_with_the_public_predicates():
    for p, n in itertools.product((3, 5, 7), range(17)):
        lams = list(partitions_of(n))
        report = census(p, n)
        assert report.p_regular_count == sum(is_p_regular(lam, p) for lam in lams)
        assert report.self_conjugate == tuple(lam for lam in lams if is_self_conjugate(lam))
        assert report.bg == tuple(lam for lam in lams if is_bg_partition(lam, p))
        assert report.self_mullineux == tuple(lam for lam in lams if is_p_regular(lam, p) and is_self_mullineux(lam, p))
        assert report.distinct_odd_nondiv == tuple(lam for lam in lams if has_distinct_odd_parts(lam, p))


def _census_by_filter(p, n):
    """The filter loop census replaced, as an oracle: classify all p(n) partitions of n."""
    all_count = p_regular_count = 0
    selfconj, bg, selfmull, distodd = [], [], [], []
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
    pairs = tuple((b, bg_to_mull(b, p)) for b in bg)
    return CensusReport(p, n, all_count, p_regular_count, *map(tuple, (selfconj, bg, selfmull, distodd)), pairs)


def test_census_matches_the_filter():
    # every field, the p(n) and p-regular counts included
    for p, n in itertools.product((3, 5, 7, 9, 15), range(31)):
        built, filtered = census(p, n), _census_by_filter(p, n)
        assert built == filtered, (p, n)
        if (p, n) in ((3, 18), (5, 30), (15, 25)):
            assert built.to_text() == filtered.to_text()
            assert built.to_csv() == filtered.to_csv()
            assert json.dumps(built.to_json_dict()) == json.dumps(filtered.to_json_dict())


@pytest.mark.parametrize("p, n", [(3, 80), (7, 60), (10**30 + 1, 60)])
def test_census_pairs_agree_with_the_bijection(p, n):
    # past the filter's reach, the pairs built by symbol are the public bijection's, both ways
    report = census(p, n)
    assert report.pairs and all(bg_to_mull(b, p) == m and mull_to_bg(m, p) == b for b, m in report.pairs)
    assert report.self_mullineux == tuple(sorted((m for _, m in report.pairs), reverse=True))
    assert all(map(operator.gt, report.self_conjugate, report.self_conjugate[1:]))
    if p > n:
        assert report.bg == report.self_conjugate


def _fixed_points_by_dfs(p, n):
    """The DFS _fixed_points replaced, as an oracle: grow every fixed-point symbol up to size n, keep size n."""
    out = []

    def grow(a, r, size):
        if size == n:
            out.append((a, r))
            return
        below = r[0] if r else 0
        for eps in (0, 1):
            for ri in range(below + eps, below + p + eps):
                ai = 2 * ri - eps
                if size + ai > n:
                    break
                if ai and _eps(ai, p) == eps:
                    grow((ai, *a), (ri, *r), size + ai)

    grow((), (), 0)
    return out


def test_fixed_points_match_the_dfs():
    # a memo keyed on too little could drop symbols at large p, where the count test below stops at n = 40
    cases = [(p, n) for p in (3, 5, 7, 9, 15, 61, 999, 10**30 + 1) for n in range(41)] + [(3, 80)]
    for p, n in cases:
        symbols = sorted(_fixed_points(p, n))
        assert symbols == sorted(_fixed_points_by_dfs(p, n)), (p, n)
        assert all(map(operator.lt, symbols, symbols[1:])), (p, n)


def test_enumerators_reach_past_the_filter():
    for p, n_max in ((3, 80), (5, 40), (7, 40), (9, 40), (15, 40)):
        counts = bg_counts_from_gf(p, n_max)
        for n in range(n_max + 1):
            symbols = [Symbol(p, a, r) for a, r in _fixed_points(p, n)]
            assert len(symbols) == counts[n], (p, n)
            assert all(validate_symbol(sym) == (True, "") for sym in symbols), (p, n)
            if n <= 24:
                assert all(is_self_mullineux(reconstruct(sym), p) for sym in symbols), (p, n)
    # with p past n every odd part is allowed, so the gf counts every hook set
    hook_counts = bg_counts_from_gf(101, 80)
    for n in range(81):
        hook_sets = list(_distinct_odd(n, n))
        assert len(hook_sets) == hook_counts[n] and hook_sets == sorted(set(hook_sets), reverse=True), n
        assert all(sum(q) == n and has_distinct_odd_parts(q) for q in hook_sets), n
