"""The check harness itself: all green on small sweeps, bookkeeping sane."""

import importlib
import json

import pytest

from mulli import Symbol, bg_symbol, cli, conjugate, mullineux_symbol, partitions_of, run_checks, verify
from mulli.census import _eta_quotient
from mulli.rims import PRim, PRimStar, p_rim, rim
from mulli.verify import CHECKS, LAWS, CheckResult, _Sweep

CHECK = {check.__name__: check for check in CHECKS}  # check_p_rim_structure -> its check


def test_all_checks_pass_small():
    results = run_checks(3, 14)
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    assert len(results) == len(CHECKS)
    assert all(r.cases > 0 for r in results)


@pytest.mark.parametrize("p", [5, 9, 15, 31])  # composite p, and p > n where every partition is p-regular
def test_all_checks_pass_at_n12(p):
    results = run_checks(p, 12)
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_check_names_unique():
    names = [r.name for r in run_checks(3, 6)]
    assert len(set(names)) == len(names)


def test_parity_converse_witness_is_exercised():
    with_witness = CHECK["check_rim_star_parity"](_Sweep(3, 12))
    without = CHECK["check_rim_star_parity"](_Sweep(3, 11))
    assert with_witness.ok and without.ok
    assert with_witness.cases == without.cases + sum(1 for _ in _selfconj_of_12()) + 1


def _selfconj_of_12():
    from mulli import is_self_conjugate, partitions_of

    return (lam for lam in partitions_of(12) if is_self_conjugate(lam))


def test_degeneration_check_respects_p():
    # only sizes below p are in scope, so cases stop growing there
    assert CHECK["check_small_size_conjugation"](_Sweep(5, 4)).cases == CHECK["check_small_size_conjugation"](_Sweep(5, 30)).cases


# per-check case counts of the 19 checks, in report order
CASES_3_12 = [13, 272, 2646, 18, 18, 271, 17, 18, 8, 8, 8, 18, 8, 144, 144, 144, 3, 71, 31]
CASES_7_12 = [13, 272, 2646, 18, 18, 271, 17, 17, 12, 12, 12, 18, 12, 252, 252, 252, 29, 143, 39]


def test_case_counts_are_pinned():
    for p, want in ((3, CASES_3_12), (7, CASES_7_12)):
        results = run_checks(p, 12)
        assert all(r.ok for r in results)
        assert [r.cases for r in results] == want


def test_seconds_are_measured_but_not_compared():
    results = run_checks(3, 8)
    assert all(r.seconds >= 0 for r in results) and sum(r.seconds for r in results) > 0
    assert results == [CheckResult(r.name, r.ok, r.detail, r.cases, seconds=0.0) for r in results]


def _off_by_one_on_one_cell(monkeypatch):
    real = verify.hook_length

    def wrong(lam, row, col):
        return real(lam, row, col) + (1 if (lam, row, col) == ((3, 2, 1), 1, 2) else 0)

    monkeypatch.setattr(verify, "hook_length", wrong)


def test_a_failing_law_reports_its_witness(monkeypatch):
    good = run_checks(3, 8)
    _off_by_one_on_one_cell(monkeypatch)
    bad = run_checks(3, 8)
    assert [r.name for r in bad if not r.ok] == ["hook-transpose"]
    failing = next(r for r in bad if not r.ok)
    assert failing.detail == "lam=(3, 2, 1), cell=(1,2)"
    assert [(r.name, r.cases) for r in bad if r.ok] == [(r.name, r.cases) for r in good if r.name != "hook-transpose"]


@pytest.mark.parametrize(
    "bottom, name, detail",
    [
        ((1,), "partition-count", "n=7: enumerated 15, recurrence 16"),
        ((1, 4, 6, 6), "bijection-roundtrip", "n=7: counts bg=1, mull=1, distinct-odd=1, gf=2"),
    ],
)
def test_a_wrong_series_fails_its_law(monkeypatch, bottom, name, detail):
    real = verify._eta_quotient

    def wrong(n, top, bottom_):
        coeffs = real(n, top, bottom_)
        if bottom_ == bottom:
            coeffs[7] += 1
        return coeffs

    # one helper feeds sweep.counts (1/E_1) and, through bg_counts_from_gf, sweep.gf (the BG series at p = 3)
    monkeypatch.setattr(verify, "_eta_quotient", wrong)
    monkeypatch.setattr(importlib.import_module("mulli.census"), "_eta_quotient", wrong)
    assert [(r.name, r.detail) for r in run_checks(3, 12) if not r.ok] == [(name, detail)]


def _p_rim_with_counts(target, counts):
    return lambda lam, p: PRim(lam, p, counts) if lam == target else p_rim(lam, p)


@pytest.mark.parametrize(
    "name, broken, detail",
    [
        ("rim", lambda lam: rim(lam)[::-1], "lam=(2,): first segment strays from the rim path"),
        ("p_rim", lambda lam, p: PRim(lam, p + 2, p_rim(lam, p).counts), "lam=(3, 1): bad segment sizes [4]"),
        ("p_rim", _p_rim_with_counts((3, 1, 1), (3, 0, 1)), "lam=(3, 1, 1): segments do not step down one row"),
        ("p_rim", _p_rim_with_counts((3, 1, 1), (3, 1, 0)), "lam=(3, 1, 1): p-rim leaves the rim or misses the last row"),
        ("remove_p_rim", lambda lam, p: lam, "lam=(1,): removal size mismatch"),
    ],
)
def test_each_p_rim_condition_reports_its_witness(monkeypatch, name, broken, detail):
    monkeypatch.setattr(verify, name, broken)
    result = CHECK["check_p_rim_structure"](_Sweep(3, 6))
    assert (result.ok, result.detail) == (False, detail)


def test_a_failing_law_exits_3(monkeypatch, capsys):
    _off_by_one_on_one_cell(monkeypatch)
    assert cli.main(["verify", "-p", "3", "-n", "8", "--format", "json"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in out if not r["ok"]] == ["hook-transpose"]
    assert all(set(r) == {"name", "ok", "detail", "cases", "seconds"} for r in out)


def _broken_at(real, at, value):
    """real, except on the partition at, where it returns value, or raises it if it is an exception."""

    def broken(lam, *p):
        if lam != at:
            return real(lam, *p)
        if isinstance(value, Exception):
            raise value
        return value

    return broken


@pytest.mark.parametrize(
    "name, p, value, failing",
    [
        ("diagonal_hook_lengths", 3, (4,), [
            ("diagonal-hooks", "lam=(2, 1): hooks (4,) are not distinct odd numbers summing to 3"),
            ("diagonal-hook-correspondence", "lam=(2, 1): diagonal hooks must be positive odd integers, got 4"),
        ]),
        ("bg_to_mull", 5, (3,), [("bijection-roundtrip", "lam=(2, 1): (3,) is not self-Mullineux for p=5 (column 0)")]),
        ("bg_symbol", 5, ValueError("broken"), [("bg-symbol-injective", "n=3: broken"), ("bg-symbol-validates", "lam=(2, 1): broken")]),
    ],
)
def test_a_value_the_library_rejects_is_the_laws_witness(monkeypatch, capsys, name, p, value, failing):
    # the rejection fails only the checks that met it, each with its record or size; every other check still reports
    monkeypatch.setattr(verify, name, _broken_at(getattr(verify, name), (2, 1), value))
    results = run_checks(p, 6)
    assert len(results) == len(CHECKS)
    assert [(r.name, r.detail) for r in results if not r.ok] == failing
    assert cli.main(["verify", "-p", str(p), "-n", "6"]) == 3
    assert len(capsys.readouterr().out.splitlines()) == len(CHECKS)


# law -> the rows that fail it: (verify name to break, the partition it breaks at, its value there, p, n,
# every failing (check, witness) in report order); where no single break fails a law alone, the row pins the others
LAW_FAILURES = {
    "partition-count": [("partitions_of", 0, (), 3, 4, [
        ("partition-count", "n=0: enumerated 0, recurrence 1"),
        ("bijection-roundtrip", "n=0: counts bg=0, mull=0, distinct-odd=0, gf=1"),
    ])],
    "conjugate-involution": [("conjugate", (2, 1), (1, 2), 3, 4, [
        ("conjugate-involution", "lam=(2, 1)"),
        ("hook-transpose", "lam=(2, 1), cell=(1,1)"),
        ("diagonal-hook-correspondence", "n=3: image does not match the distinct-odd family"),
    ])],
    "hook-transpose": [("hook_length", (2, 1), 5, 3, 4, [("hook-transpose", "lam=(2, 1), cell=(1,1)")])],
    "diagonal-hooks": [("diagonal_hook_lengths", (2, 1), (1,), 3, 4, [
        ("diagonal-hooks", "lam=(2, 1): hooks (1,) are not distinct odd numbers summing to 3"),
        ("diagonal-hook-correspondence", "lam=(2, 1) fails the round trip"),
    ])],
    "diagonal-hook-correspondence": [
        ("is_bg_partition", (1,), False, 3, 1, [
            ("diagonal-hook-correspondence", "lam=(1,): BG flag disagrees with hooks (1,)"),
            ("bijection-roundtrip", "n=1: image [] is not the self-Mullineux family [(1,)]"),
        ]),
        ("_has_distinct_odd_parts", (3,), False, 3, 4, [
            ("diagonal-hook-correspondence", "n=3: image does not match the distinct-odd family"),
        ]),
    ],
    "p-rim-structure": [("remove_p_rim", (1,), (1,), 3, 4, [("p-rim-structure", "lam=(1,): removal size mismatch")])],
    "rim-star-structure": [("remove_p_rim_star", (2, 1), (2,), 3, 4, [
        ("rim-star-structure", "lam=(2, 1): removal broke symmetry or size"),
        ("layer-postconditions", "base=(), eps=1, m=1: removal misses the base"),
    ])],
    # a forged a* keeps eps* and r* - eps* mod p, which the layer law reads, but not the cells
    "rim-star-parity": [("p_rim_star", (2, 1), PRimStar((2, 1), (2,), 4, 2, 1), 3, 4, [
        ("rim-star-structure", "lam=(2, 1): a*=4, r*=2, eps*=1 disagree with the cells"),
        ("rim-star-parity", "lam=(2, 1): a*=4 even but not divisible by 3"),
    ])],
    "bg-four-way": [("p_rim_star", (1,), PRimStar((1,), (1,), 3, 1, 1), 3, 4, [
        ("rim-star-structure", "lam=(1,): a*=3, r*=1, eps*=1 disagree with the cells"),
        ("bg-four-way", "lam=(1,): flags (False, False, False, True) disagree"),
    ])],
    "bg-truncation": [("truncate_to_durfee", (1,), (1, 1, 1), 3, 4, [("bg-truncation", "lam=(1,)")])],
    "bg-closure": [("is_bg_partition", (), False, 3, 4, [
        ("diagonal-hook-correspondence", "lam=(): BG flag disagrees with hooks ()"),
        ("bg-closure", "lam=(1,)"),
        ("bijection-roundtrip", "n=0: image [] is not the self-Mullineux family [()]"),
    ])],
    "bg-symbol-injective": [("bg_symbol", (3, 3, 2), bg_symbol((4, 2, 1, 1), 3), 3, 8, [
        ("bg-symbol-injective", "(4, 2, 1, 1) and (3, 3, 2) share 7 1 / 4 1"),
    ])],
    "bg-symbol-validates": [
        ("bg_symbol", (1,), Symbol(3, (1,), (2,), "bg"), 3, 4, [
            ("bg-symbol-validates", "lam=(1,): condition (4) fails at column 0: a_0-a_1 = 1, allowed [2, 5)"),
        ]),
        ("bg_symbol", (1,), Symbol(3, (2,), (1,), "bg"), 3, 4, [("bg-symbol-validates", "lam=(1,): a != 2r - eps in 2 / 1")]),
    ],
    "symbol-roundtrip": [("reconstruct", mullineux_symbol((2, 1), 3), (3,), 3, 4, [
        ("symbol-roundtrip", "lam=(2, 1) reconstructs to (3,)"),
    ])],
    "mullineux-involution": [
        ("mullineux_map", (4,), (1,), 3, 4, [("mullineux-involution", "lam=(4,): image (1,) leaves the domain")]),
        ("mullineux_map", (4,), (3, 1), 3, 4, [("mullineux-involution", "lam=(4,): m(m(lam)) = (2, 1, 1)")]),
    ],
    "self-mullineux-fixed-points": [("is_self_mullineux", (3,), True, 3, 4, [
        ("self-mullineux-fixed-points", "lam=(3,)"),
        ("bijection-roundtrip", "lam=(3,): (3,) is not self-Mullineux for p=3 (column 0)"),
    ])],
    "small-size-conjugation": [("mullineux_map", (2, 1), (3,), 5, 4, [
        ("mullineux-involution", "lam=(2, 1): m(m(lam)) = (1, 1, 1)"),
        ("self-mullineux-fixed-points", "lam=(2, 1)"),
        ("small-size-conjugation", "lam=(2, 1)"),
    ])],
    "layer-postconditions": [("add_rim_star_layer", (), (2, 1), 3, 4, [("layer-postconditions", "base=(), eps=1, m=0: stats off")])],
    "bijection-roundtrip": [
        ("mull_to_bg", (1,), (2, 1), 3, 4, [("bijection-roundtrip", "lam=(1,): mull_to_bg(bg_to_mull) = (2, 1)")]),
        # (4, 1, 1) comes before its BG partner (3, 2, 1) in the sweep, so its own half of the law fails first
        ("mull_to_bg", (4, 1, 1), (), 3, 6, [("bijection-roundtrip", "mu=(4, 1, 1): bg_to_mull(mull_to_bg) misses")]),
    ],
}


def test_every_law_has_a_failing_case():
    assert list(LAW_FAILURES) == [law.name for law in LAWS]


@pytest.mark.parametrize(
    "law, name, at, value, p, n, failing",
    [(law, *row) for law, rows in LAW_FAILURES.items() for row in rows],
)
def test_each_law_fails_with_its_witness(monkeypatch, law, name, at, value, p, n, failing):
    monkeypatch.setattr(verify, name, _broken_at(getattr(verify, name), at, value))
    results = run_checks(p, n)
    assert law in dict(failing)
    assert [(r.name, r.detail) for r in results if not r.ok] == failing
    # every other check still ran to its end and reports its cases
    assert [r.name for r in results] == [law.name for law in LAWS]
    assert all(r.detail == f"{r.cases} cases" for r in results if r.ok)


def test_the_injectivity_law_names_one_collision_per_size(monkeypatch):
    # the three self-conjugate partitions of 12 share one symbol: the law names each collision in turn,
    # and the check, which stops at a law's first witness, reports only the first
    real = verify.bg_symbol
    monkeypatch.setattr(verify, "bg_symbol", lambda lam, p: Symbol(p, (1,), (1,), "bg") if sum(lam) == 12 else real(lam, p))
    sweep = _Sweep(3, 12)
    recs = [r for r in sweep[12].values() if r.selfconj]
    assert [r.lam for r in recs] == [(6, 2, 1, 1, 1, 1), (5, 3, 2, 1, 1), (4, 4, 2, 2)]
    first, second = "(6, 2, 1, 1, 1, 1) and (5, 3, 2, 1, 1) share 1 / 1", "(5, 3, 2, 1, 1) and (4, 4, 2, 2) share 1 / 1"
    assert list(verify._bg_symbols_distinct(sweep, 12, recs)) == [first, second]
    # its 18 self-conjugate records up to 12 (CASES_3_12) and the one collision it read
    result = CHECK["check_bg_symbol_injective"](_Sweep(3, 12))
    assert (result.ok, result.detail, result.cases) == (False, first, 18 + 1)


def test_the_sweep_computes_each_shared_value_once(monkeypatch):
    # one enumeration per size 0..12, one map per 3-regular partition of 1..12 (CASES_3_12), and one
    # bg_to_mull per BG-partition of size <= 12, the empty one included
    calls = {"partitions_of": 0, "mullineux_map": 0, "bg_to_mull": 0}
    for name in calls:
        def counted(*args, real=getattr(verify, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(verify, name, counted)
    assert all(r.ok for r in run_checks(3, 12))
    assert calls == {"partitions_of": 13, "mullineux_map": 144, "bg_to_mull": 9}


def test_a_record_has_only_the_values_it_lists():
    record = _Sweep(3, 2)[2][(2,)]
    assert not hasattr(record, "nope")
    assert record.conj == (1, 1)

def test_verify_bounds_p_before_any_work():
    # the predicted time of the whole sweep bounds p: at n = 0 its layer term alone passes 10 s at p = 6459
    for p in (6459, 10**9 + 7, 10**400 + 1):
        with pytest.raises(ValueError, match="too large for verify") as err:
            run_checks(p, 0)
    # past 10^6 s the time is a power of ten, so the message stays short although p has 401 digits
    assert len(str(err.value)) < 500 and str(err.value).endswith("its checks would take about 10^794 s")
    # the prediction is only just past 10 s, and rounds up
    with pytest.raises(ValueError) as err:
        run_checks(6459, 0)
    assert str(err.value) == "p=6459, n=0 is too large for verify: its checks would take about 11 s"
    assert all(r.ok for r in run_checks(999, 1))
    results = run_checks(1001, 2)
    assert len(results) == len(CHECKS) and all(r.ok for r in results)


@pytest.mark.parametrize("p, n", [(3, 20), (7, 20), (31, 12)])
def test_the_work_bound_counts_the_layers_the_layer_check_grows(p, n):
    # p + 1 layers on every self-conjugate base, less the eps = 0 layer the empty base cannot grow
    selfconj = [sum(lam == conjugate(lam) for lam in partitions_of(k)) for k in range(n + 1)]
    assert _eta_quotient(n, (2, 2), (1, 4)) == selfconj
    assert CHECK["check_layer_postconditions"](_Sweep(p, n)).cases == (p + 1) * sum(selfconj) - 1 == _Sweep(p, n).layers - 1
