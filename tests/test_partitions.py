"""Partition basics checked against brute-force cell-set oracles."""

import copy
import inspect
import pickle

import pytest
from hypothesis import given, strategies as st

from mulli import (
    MAX_CELLS,
    CensusReport,
    CheckResult,
    PRim,
    PRimStar,
    Symbol,
    add_rim_star_layer,
    as_partition,
    bg_counts_from_gf,
    conjugate,
    diagonal_hook_lengths,
    durfee_length,
    format_partition,
    hook_length,
    is_bg_partition,
    is_p_regular,
    is_self_conjugate,
    census,
    mullineux_map,
    mullineux_symbol,
    p_rim,
    p_rim_star,
    parse_partition,
    partitions_of,
    reconstruct,
    render_diagram,
    run_checks,
    self_conjugate_from_diagonal_hooks,
    truncate_to_durfee,
    validate_symbol,
)


def cells(lam):
    return {(i, j) for i, part in enumerate(lam, start=1) for j in range(1, part + 1)}


partitions = st.lists(st.integers(1, 12), max_size=8).map(lambda xs: tuple(sorted(xs, reverse=True)))

# strictly decreasing positive odd numbers, the free coordinates of a
# self-conjugate partition
odd_hook_tuples = st.sets(st.integers(0, 10), max_size=6).map(
    lambda ks: tuple(sorted((2 * k + 1 for k in ks), reverse=True))
)


def test_as_partition_normalizes():
    assert as_partition([5, 2, 2, 1]) == (5, 2, 2, 1)
    assert as_partition(()) == ()
    assert as_partition(iter((3, 1))) == (3, 1)


@pytest.mark.parametrize("bad", [(2, 3), (0,), (-1,), (3, 0), (1.5,), (True,)])
def test_as_partition_rejects(bad):
    with pytest.raises(ValueError):
        as_partition(bad)


def test_as_partition_size_cap():
    with pytest.raises(ValueError):
        as_partition((MAX_CELLS + 1,))


def test_parse_partition():
    assert parse_partition("5,2,2,1") == (5, 2, 2, 1)
    assert parse_partition("7,5,2^3,1^2") == (7, 5, 2, 2, 2, 1, 1)
    assert parse_partition(" 9 , 2 , 1^7 ") == (9, 2, 1, 1, 1, 1, 1, 1, 1)
    assert parse_partition("") == ()
    assert parse_partition("-") == ()


@pytest.mark.parametrize("bad", ["1,3", "2^0", "x", "3,^2", "2^-1"])
def test_parse_partition_rejects(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)


def test_parse_partition_checks_the_cap_before_expanding():
    # an expanded list of 10^12 parts would not fit in memory
    for huge in ("1^1000000000000", "5^1000000000", "0^1000000000000", f"1^{MAX_CELLS + 1}", "600000,600000"):
        with pytest.raises(ValueError, match="size cap"):
            parse_partition(huge)
    assert len(parse_partition(f"1^{MAX_CELLS}")) == MAX_CELLS


def test_format_partition():
    assert format_partition((5, 2, 2, 1)) == "5,2,2,1"
    assert format_partition(()) == ""


@given(partitions)
def test_parse_inverts_format(lam):
    assert parse_partition(format_partition(lam)) == lam


def test_conjugate_golden():
    # transpose by hand: (5,2,2,1) has columns of heights 4,3,1,1,1
    assert conjugate((5, 2, 2, 1)) == (4, 3, 1, 1, 1)
    assert conjugate(()) == ()


@given(partitions)
def test_conjugate_is_the_transpose(lam):
    assert cells(conjugate(lam)) == {(j, i) for i, j in cells(lam)}


@given(partitions)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_is_self_conjugate():
    assert is_self_conjugate((3, 2, 1))
    assert is_self_conjugate(())
    assert not is_self_conjugate((3, 1))


def test_durfee_length():
    assert durfee_length(()) == 0
    assert durfee_length((1,)) == 1
    assert durfee_length((3, 2, 1)) == 2
    assert durfee_length((4, 3, 1, 1, 1)) == 2
    assert durfee_length((3, 3, 3)) == 3


def test_hook_length_golden():
    # (3,2,1) at the corner: arm 2, leg 2, plus the cell
    assert hook_length((3, 2, 1), 1, 1) == 5
    assert hook_length((3, 2, 1), 2, 2) == 1
    with pytest.raises(ValueError):
        hook_length((3, 2, 1), 3, 2)
    with pytest.raises(ValueError):
        hook_length((3, 2, 1), 0, 1)


@given(partitions.filter(bool))
def test_hook_length_counts_the_hook(lam):
    box = cells(lam)
    for i, j in box:
        hook = {(i, jj) for jj in range(j, lam[i - 1] + 1)} | {(ii, j) for ii in range(i, len(lam) + 1) if (ii, j) in box}
        assert hook_length(lam, i, j) == len(hook)


def test_diagonal_hook_lengths():
    assert diagonal_hook_lengths((6, 5, 2, 2, 2, 1)) == (11, 7)
    assert diagonal_hook_lengths((9, 2, 1, 1, 1, 1, 1, 1, 1)) == (17, 1)
    assert diagonal_hook_lengths(()) == ()


def test_self_conjugate_from_diagonal_hooks_golden():
    assert self_conjugate_from_diagonal_hooks((17, 1)) == (9, 2, 1, 1, 1, 1, 1, 1, 1)
    assert self_conjugate_from_diagonal_hooks((11, 7)) == (6, 5, 2, 2, 2, 1)
    assert self_conjugate_from_diagonal_hooks(()) == ()


@pytest.mark.parametrize("bad", [(4,), (3, 3), (1, 3), (5, -1)])
def test_self_conjugate_from_diagonal_hooks_rejects(bad):
    with pytest.raises(ValueError):
        self_conjugate_from_diagonal_hooks(bad)


def test_self_conjugate_from_diagonal_hooks_caps_the_size():
    with pytest.raises(ValueError) as err:
        self_conjugate_from_diagonal_hooks([1999999, 1])
    assert str(err.value) == f"partition of 2000000 exceeds the size cap {MAX_CELLS}"


@given(odd_hook_tuples)
def test_diagonal_hooks_round_trip(hooks):
    lam = self_conjugate_from_diagonal_hooks(hooks)
    assert is_self_conjugate(lam)
    assert diagonal_hook_lengths(lam) == hooks
    assert sum(lam) == sum(hooks)


def test_is_p_regular():
    assert is_p_regular((9, 6, 3, 1), 3)
    assert not is_p_regular((2, 1, 1, 1), 3)
    assert is_p_regular((1, 1), 3)
    assert is_p_regular((), 3)


def test_is_bg_partition():
    # diagonal hooks 13, 5, 1
    assert is_bg_partition((7, 4, 3, 2, 1, 1, 1), 3)
    assert not is_bg_partition((5, 4, 4, 4, 1), 3)  # h_11 = 9
    assert not is_bg_partition((3, 3, 3), 3)  # h_22 = 3
    assert not is_bg_partition((2, 1), 3)  # h_11 = 3
    assert not is_bg_partition((3, 1), 3)  # not self-conjugate
    assert is_bg_partition((), 3)


def test_truncate_to_durfee():
    assert truncate_to_durfee((3, 2, 1)) == (3, 2)
    assert truncate_to_durfee((1,)) == (1,)
    with pytest.raises(ValueError):
        truncate_to_durfee(())


@pytest.mark.parametrize("p", [2, 1, 0, -3, 4, 3.0])
def test_odd_p_is_enforced(p):
    with pytest.raises(ValueError):
        is_p_regular((2, 1), p)


def test_as_partition_messages_name_the_first_bad_part():
    from enum import IntEnum

    class Part(IntEnum):
        BIG = 3
        SMALL = 1

    messages = {
        (3, "a"): "parts must be positive integers, got 'a'",
        (True,): "parts must be positive integers, got True",
        (0,): "parts must be positive integers, got 0",
        (1, 2): "parts must be weakly decreasing, got (1, 2)",
        (2.0,): "parts must be positive integers, got 2.0",
        (MAX_CELLS, 1): f"partition of {MAX_CELLS + 1} exceeds the size cap {MAX_CELLS}",
    }
    for bad, message in messages.items():
        with pytest.raises(ValueError) as err:
            as_partition(bad)
        assert str(err.value) == message
    assert as_partition((Part.BIG, Part.SMALL, 1)) == (3, 1, 1)


# Every integer argument of the public API, as (call with x in that slot, a valid x).
INTEGER_ARGUMENTS = {
    "p": (lambda x: is_p_regular((2, 1), x), 3),
    "p of a layer": (lambda x: add_rim_star_layer((1,), 1, 0, x), 3),
    "p of a symbol": (lambda x: Symbol(x, (), ()), 3),
    "p of the generating function": (lambda x: bg_counts_from_gf(x, 3), 3),
    "n": (lambda x: list(partitions_of(x)), 1),
    "largest": (lambda x: list(partitions_of(3, x)), 1),
    "n_max": (lambda x: bg_counts_from_gf(3, x), 1),
    "m": (lambda x: add_rim_star_layer((1,), 1, x, 3), 1),
    "eps = 1": (lambda x: add_rim_star_layer((1,), x, 0, 3), 1),
    "eps = 0": (lambda x: add_rim_star_layer((1,), x, 0, 3), 0),
    "row": (lambda x: hook_length((3, 2), x, 1), 1),
    "col": (lambda x: hook_length((3, 2), 1, x), 1),
    "symbol entry a": (lambda x: Symbol(3, (x,), (1,)), 1),
    "symbol entry r": (lambda x: Symbol(3, (1,), (x,)), 1),
    "diagonal hook": (lambda x: self_conjugate_from_diagonal_hooks((x,)), 1),
    "part": (lambda x: as_partition((x,)), 1),
}


@pytest.mark.parametrize("kind", ["bool", "float", "str"])
@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_must_be_ints(argument, kind):
    call, valid = INTEGER_ARGUMENTS[argument]
    call(valid)
    bad = {"bool": bool(valid), "float": float(valid), "str": str(valid)}[kind]
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("bad", [5, None])
def test_a_partition_must_be_iterable(bad):
    calls = [as_partition, lambda x: p_rim(x, 3), lambda x: mullineux_map(x, 3), lambda x: add_rim_star_layer(x, 1, 0, 3)]
    for call in calls:
        with pytest.raises(ValueError, match=f"a partition must be an iterable of parts, got {bad!r}"):
            call(bad)


# Calls whose argument is not even the right kind of value, and the ValueError each raises.
WRONG_KINDS = {
    "diagonal hooks": (lambda: self_conjugate_from_diagonal_hooks(5), "diagonal hooks must be an iterable of positive odd integers, got 5"),
    "symbol row": (lambda: Symbol(3, 5, (1,)), "a symbol row must be an iterable of positive integers, got 5"),
    "highlight": (lambda: render_diagram((2, 1), highlight=5), "highlight must be an iterable of cells, got 5"),
    "symbol to validate": (lambda: validate_symbol((1, 2)), "expected a Symbol, got (1, 2)"),
    "symbol to rebuild": (lambda: reconstruct("x"), "expected a Symbol, got 'x'"),
    "partition text": (lambda: parse_partition(5), "a partition text must be a string, got 5"),
    "symbol text": (lambda: Symbol.from_text(5, 3), "a symbol text must be a string, got 5"),
    "symbol object": (lambda: Symbol.from_json_dict({"p": 3}), "a symbol object needs the keys p, a and r, got {'p': 3}"),
}


@pytest.mark.parametrize("argument", sorted(WRONG_KINDS))
def test_an_argument_of_the_wrong_kind_raises_value_error(argument):
    call, message = WRONG_KINDS[argument]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_unfold_rejects_arms_that_miss_the_diagonal():
    from mulli.partitions import _arms, _unfold

    assert _unfold([2, 0]) == (3, 2, 1) and _arms((3, 2, 1)) == [2, 0]
    assert _unfold([]) == ()
    for arms in ([1, 1], [0, 1], [2, -1]):
        with pytest.raises(RuntimeError) as err:
            _unfold(arms)
        assert "are not the Durfee rows of a self-conjugate partition" in str(err.value)


def test_the_hook_postcondition_raises_without_asserts(monkeypatch):
    import mulli.partitions

    monkeypatch.setattr(mulli.partitions, "_unfold", lambda arms: (3, 1, 1))
    with pytest.raises(RuntimeError) as err:
        self_conjugate_from_diagonal_hooks((3, 1))
    assert str(err.value) == "the diagonal hooks (3, 1) rebuilt (3, 1, 1), which does not have them"


@pytest.mark.parametrize(
    "cls, make, fields, changed, uncompared",
    [
        (PRim, lambda: p_rim((9, 6, 3, 1), 3), ["lam", "p", "counts"], {}, ()),
        (PRimStar, lambda: p_rim_star((6, 5, 5, 3, 3, 1), 3), ["lam", "counts", "a_star", "r_star", "eps_star"], {}, ()),
        # Symbol validates its fields, so each changed field gets a valid value
        (Symbol, lambda: mullineux_symbol((9, 6, 3, 1), 3), ["p", "a", "r", "kind"],
         {"p": 5, "a": (1, 1, 1), "r": (9, 9, 9), "kind": "bg"}, ()),
        (CensusReport, lambda: census(3, 6), ["p", "n", "all_count", "p_regular_count", "self_conjugate", "bg",
                                              "self_mullineux", "distinct_odd_nondiv", "pairs"], {}, ()),
        (CheckResult, lambda: run_checks(3, 4)[0], ["name", "ok", "detail", "cases", "seconds"], {}, ("seconds",)),
    ],
)
def test_record_types_are_frozen_values(cls, make, fields, changed, uncompared):
    value = make()
    assert type(value) is cls and list(inspect.signature(cls).parameters) == fields
    kwargs = {name: getattr(value, name) for name in fields}
    for same in (cls(**kwargs), cls(*kwargs.values()), pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(same) is cls and same == value and hash(same) == hash(value) and repr(same) == repr(value)
        assert {name: getattr(same, name) for name in fields} == kwargs
    assert repr(value) == f"{cls.__name__}({', '.join(f'{name}={x!r}' for name, x in kwargs.items())})"
    # equality reads the type and every compared field
    assert value != tuple(kwargs.values()) and value != type(cls.__name__, (cls,), {})(**kwargs)
    for name in fields:
        other = cls(**{**kwargs, name: changed.get(name, object())})
        assert (other == value) is (name in uncompared) and (other != value) is (name not in uncompared)
        if name in uncompared:
            assert hash(other) == hash(value)
    for name in fields + ["other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert {name: getattr(value, name) for name in fields} == kwargs
