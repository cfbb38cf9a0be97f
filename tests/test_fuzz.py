"""Junk at the public boundary: every call returns or raises ValueError, and the CLI never ends in a traceback."""

import contextlib
import inspect
import io
import itertools

from hypothesis import given, settings, strategies as st

import mulli
from mulli import cli

PUBLIC = sorted(name for name in mulli.__all__ if callable(getattr(mulli, name)))

# sizes stay small (run_checks(3, 9) takes a few hundredths of a second); 2**61 - 1 is a prime p
JUNK = [
    None, True, False, 0.5, -1.0, float("nan"), float("inf"), "", "x", "3,2,1", "1 / 1", "/",
    [], ["a"], [3, [1]], [[1, 2], [3]], [[1, 1]], (), (1,), (4, 1), (2, 1, 1), (3, 2, 1), (5, 3, 2, 1, 1),
    -1, 0, 1, 2, 3, 5, 9, 2**61 - 1, 2**63, 10**30, -(10**30),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_public_calls_return_or_raise_value_error(data):
    f = getattr(mulli, data.draw(st.sampled_from(PUBLIC)))
    params = inspect.signature(f).parameters.values()
    required = sum(p.default is p.empty for p in params)
    args = data.draw(st.lists(st.sampled_from(JUNK), min_size=required, max_size=len(params)))
    try:
        result = f(*args)
        if inspect.isgenerator(result):
            list(itertools.islice(result, 3))
    except ValueError:
        pass


SUBCOMMANDS = ["symbol", "bg-symbol", "map", "bijection", "census", "gf", "verify", "render"]
PIECES = SUBCOMMANDS + [
    "-p", "-n", "3", "5", "9", "4", "-1", "0", "12", "31", "2305843009213693951", "x",
    "--format", "json", "csv", "--direction", "bg2m", "m2bg", "--star", "--strict-prime",
    "9,6,3,1", "-", "1,3", "6,5,5,3,3,1", "5^1000000000", "--help",
]


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(PIECES), max_size=6),
        st.tuples(st.sampled_from(SUBCOMMANDS), st.sampled_from(PIECES), st.lists(st.sampled_from(PIECES), max_size=4)).map(
            lambda t: [t[0], "-p", t[1], *t[2]]
        ),
    )
)
def test_cli_never_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse: usage errors exit 2, --help exits 0
            code = stop.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
