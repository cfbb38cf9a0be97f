"""End-to-end CLI runs through the real interpreter."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mulli import bg_counts_from_gf, census


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mulli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_symbol_text():
    out = run_cli("symbol", "-p", "5", "9,6,3,1")
    assert out.returncode == 0
    assert out.stdout == "9 5 5 / 4 2 2\n"


def test_symbol_json():
    out = run_cli("symbol", "-p", "5", "--format", "json", "9,6,3,1")
    assert json.loads(out.stdout) == {"p": 5, "a": [9, 5, 5], "r": [4, 2, 2]}


def test_bg_symbol():
    out = run_cli("bg-symbol", "-p", "3", "6,5,5,3,3,1")
    assert out.stdout == "11 6 5 1 / 6 3 3 1\n"
    blob = json.loads(run_cli("bg-symbol", "-p", "3", "--format", "json", "6,5,5,3,3,1").stdout)
    assert blob["kind"] == "bg"


def test_map():
    out = run_cli("map", "-p", "5", "9,6,3,1")
    assert out.returncode == 0
    assert out.stdout == "5,5,5,2,1,1\n"


def test_exponent_form_accepted():
    out = run_cli("map", "-p", "3", "7,5,2^2,1^2")
    assert out.returncode == 0
    assert out.stdout == "7,5,2,2,1,1\n"
    out = run_cli("bg-symbol", "-p", "3", "9,2,1^7")
    assert out.returncode == 0
    assert out.stdout == "7 6 5 / 4 3 3\n"


def test_map_empty_partition():
    out = run_cli("map", "-p", "3", "-")
    assert out.returncode == 0
    assert out.stdout == "\n"


def test_bijection_both_directions():
    out = run_cli("bijection", "-p", "5", "--direction", "m2bg", "7,6,3,2,2")
    assert out.stdout == "7,5,2,2,2,1,1\n"
    back = run_cli("bijection", "-p", "5", "--direction", "bg2m", "7,5,2,2,2,1,1")
    assert back.stdout == "7,6,3,2,2\n"


def test_census_text_and_csv():
    text = run_cli("census", "-p", "3", "-n", "18")
    assert "partitions: 385" in text.stdout
    assert "3-regular: 135" in text.stdout
    csv_out = run_cli("census", "-p", "3", "-n", "18", "--format", "csv")
    assert csv_out.stdout.splitlines()[0].startswith("partition,")


def test_census_json():
    blob = json.loads(run_cli("census", "-p", "3", "-n", "18", "--format", "json").stdout)
    assert blob["p_regular_count"] == 135
    assert len(blob["pairs"]) == 3


def test_gf():
    out = run_cli("gf", "-p", "3", "-n", "18")
    assert out.stdout.splitlines()[-1] == "18 3"
    assert json.loads(run_cli("gf", "-p", "3", "-n", "18", "--format", "json").stdout)[18] == 3


def test_verify_passes():
    out = run_cli("verify", "-p", "3", "-n", "10")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)


def test_render():
    out = run_cli("render", "-p", "5", "9,6,3,1")
    assert out.stdout.splitlines()[0] == "[2][2][2][2][1][0][0][0][0]"
    star = run_cli("render", "-p", "3", "--star", "6,5,5,3,3,1")
    assert star.stdout.splitlines()[0] == "[3][2][2][1][0][0]"


def test_render_json_layers_are_sorted_pairs():
    layers = json.loads(run_cli("render", "-p", "5", "--format", "json", "9,6,3,1").stdout)
    assert layers[0] == sorted(layers[0])
    assert [1, 9] in layers[0]


def test_domain_error_text():
    out = run_cli("map", "-p", "3", "2,1,1,1")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")


def test_domain_error_json():
    out = run_cli("map", "-p", "3", "--format", "json", "2,1,1,1")
    assert out.returncode == 1
    assert "error" in json.loads(out.stdout)


def test_bad_partition_text():
    assert run_cli("symbol", "-p", "3", "1,3").returncode == 1


def test_even_p_is_domain_error():
    assert run_cli("symbol", "-p", "4", "3,1").returncode == 1


def test_usage_error():
    out = run_cli("symbol", "9,6,3,1")  # missing -p
    assert out.returncode == 2
    assert run_cli("bogus").returncode == 2


def test_composite_p_warns():
    out = run_cli("symbol", "-p", "9", "3,1")
    assert out.returncode == 0
    assert "not prime" in out.stderr


def test_strict_prime_rejects_composite():
    out = run_cli("symbol", "-p", "9", "--strict-prime", "3,1")
    assert out.returncode == 1
    out = run_cli("symbol", "-p", "7", "--strict-prime", "3,1")
    assert out.returncode == 0


def test_enumeration_cap():
    # the CLI's only caps are the library's: its size cap
    out = run_cli("gf", "-p", "3", "-n", str(10**25))
    assert out.returncode == 1
    assert out.stderr == "error: size 10000000000000000000000000 exceeds the size cap 1000000\n"
    # and its caps on n
    out = run_cli("census", "-p", "3", "-n", "151")
    assert out.returncode == 1
    assert out.stderr == "error: n=151 exceeds the census cap 150\n"
    out = run_cli("verify", "-p", "3", "-n", "31")
    assert out.returncode == 1
    assert out.stderr == "error: n=31 exceeds the run_checks cap 30\n"
    # negative sizes are the library's to reject
    out = run_cli("gf", "-p", "3", "-n", "-1")
    assert out.returncode == 1
    assert out.stderr == "error: expected a size >= 0, got -1\n"
    # below them, every size runs
    out = run_cli("gf", "-p", "3", "-n", "31")
    assert out.returncode == 0
    assert out.stdout.splitlines() == [f"{n} {c}" for n, c in enumerate(bg_counts_from_gf(3, 31))]
    out = run_cli("census", "-p", "3", "-n", "31", "--format", "json")
    assert out.returncode == 0
    assert json.loads(out.stdout) == census(3, 31).to_json_dict()
    # no environment variable sets a cap
    assert run_cli("gf", "-p", "3", "-n", "10", env_extra={"MULLI_MAX_N": "5"}).returncode == 0


def modules_after_importing_the_cli(expression):
    """Print `expression` of sys.modules in a bare interpreter that has just imported mulli.cli."""
    # -S skips the site hooks, which may import third-party modules before any user code;
    # -B keeps the run from writing bytecode next to the sources
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = f"import sys; sys.path.insert(0, sys.argv[1]); import mulli.cli; print(sorted({expression}))"
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, src], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_runtime_imports_only_the_standard_library():
    expression = "{m.partition('.')[0] for m in sys.modules} - set(sys.stdlib_module_names) - {'mulli', '__main__'}"
    assert modules_after_importing_the_cli(expression) == "[]\n"


def test_runtime_imports_no_dataclasses_inspect_typing_or_csv():
    # each costs every CLI process milliseconds at start-up; census imports csv only when it writes CSV
    assert modules_after_importing_the_cli("{'dataclasses', 'inspect', 'typing', 'csv'} & set(sys.modules)") == "[]\n"


def test_out_writes_file(tmp_path):
    target = tmp_path / "sym.txt"
    out = run_cli("symbol", "-p", "5", "--out", str(target), "9,6,3,1")
    assert out.returncode == 0
    assert out.stdout == ""
    assert target.read_text() == "9 5 5 / 4 2 2\n"


def test_output_is_deterministic():
    a = run_cli("census", "-p", "3", "-n", "18", "--format", "json").stdout
    b = run_cli("census", "-p", "3", "-n", "18", "--format", "json").stdout
    assert a == b


def test_out_to_unwritable_path_is_a_domain_error(tmp_path):
    target = str(tmp_path / "missing" / "x")
    out = run_cli("symbol", "-p", "3", "--out", target, "5")
    assert out.returncode == 1
    assert out.stderr.startswith("error: cannot write ")
    out = run_cli("symbol", "-p", "3", "--format", "json", "--out", target, "5")
    assert out.returncode == 1
    assert "cannot write" in json.loads(out.stdout)["error"]


def test_closed_stdout_pipe_is_a_domain_error():
    with subprocess.Popen(
        [sys.executable, "-m", "mulli", "census", "-p", "3", "-n", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err.startswith("error: cannot write to stdout: ") and err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_full_stdout_is_a_domain_error(fmt):
    with open("/dev/full", "w") as full:
        out = subprocess.run(
            [sys.executable, "-m", "mulli", "gf", "-p", "3", "-n", "5", "--format", fmt],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert out.returncode == 1
    assert out.stderr.startswith("error: cannot write to stdout: ") and out.stderr.count("\n") == 1, out.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["census", "-h"]], ids=["help", "census-h"])
def test_help_into_a_full_stdout_is_a_domain_error(argv, unbuffered):
    # argparse's own help writer drops the OSError: exit 0 when unbuffered, 120 and an ignored exception when buffered
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        out = subprocess.run([sys.executable, "-m", "mulli", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert out.returncode == 1
    assert out.stderr.startswith("error: cannot write to stdout: ") and out.stderr.count("\n") == 1, out.stderr
    assert "Exception ignored" not in out.stderr and "Traceback" not in out.stderr


def test_help_into_a_pipe_lists_every_subcommand():
    out = run_cli("--help")
    assert (out.returncode, out.stderr) == (0, "")
    for name in ("symbol", "bg-symbol", "map", "bijection", "census", "gf", "verify", "render"):
        assert f"\n    {name} " in out.stdout, name


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_keeps_the_exit_code_of_an_internal_error():
    script = (
        "import sys\n"
        "from mulli import cli, rims\n"
        "def broken(b, out, star=False):\n"
        "    raise RuntimeError('rim removal broke')\n"
        "rims._left = broken\n"
        "sys.exit(cli.main(['map', '-p', '3', '--format', 'json', '5']))\n"
    )
    with open("/dev/full", "w") as full:
        out = subprocess.run([sys.executable, "-c", script], stdout=full, stderr=subprocess.PIPE, text=True)
    assert out.returncode == 4
    assert out.stderr.startswith("error: cannot write to stdout: ") and out.stderr.count("\n") == 1, out.stderr


def test_broken_invariant_exits_4(monkeypatch, capsys):
    from mulli import cli, rims
    from mulli.partitions import _parts

    def broken(b, out, star=False):
        raise RuntimeError(f"rim removal broke the diagram of {_parts(b)}")

    monkeypatch.setattr(rims, "_left", broken)
    assert cli.main(["symbol", "-p", "3", "5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: rim removal broke the diagram of (5,)\n"
    assert cli.main(["map", "-p", "3", "--format", "json", "5"]) == 4
    assert json.loads(capsys.readouterr().out) == {"error": "rim removal broke the diagram of (5,)", "internal": True}
    # verify turns only a ValueError into a law's witness: a broken invariant still stops the sweep
    assert cli.main(["verify", "-p", "3", "-n", "5"]) == 4
    assert capsys.readouterr().err.startswith("internal error: rim removal broke the diagram of ")


def test_large_prime_p_is_decided_at_once():
    out = run_cli("symbol", "-p", "2305843009213693951", "5")  # 2^61 - 1
    assert out.returncode == 0
    assert out.stderr == ""
    out = run_cli("symbol", "-p", "6917529027641081853", "5")  # 3 (2^61 - 1)
    assert out.returncode == 0
    assert "is not prime" in out.stderr


def test_strong_pseudoprime_to_the_first_twelve_bases_is_composite():
    from mulli.cli import _is_prime

    assert _is_prime(318665857834031151167461) is False
    assert _is_prime(1000000000000000003) is True


def test_p_beyond_the_primality_bound_is_not_known_prime():
    big = str(2**89 - 1)  # a Mersenne prime above the bound
    out = run_cli("symbol", "-p", big, "5")
    assert out.returncode == 0
    assert "not known to be prime" in out.stderr
    assert run_cli("symbol", "-p", big, "--strict-prime", "5").returncode == 1


def test_verify_json_reports_seconds():
    out = run_cli("verify", "-p", "3", "-n", "6", "--format", "json")
    assert out.returncode == 0
    checks = json.loads(out.stdout)
    assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in checks)


def test_verify_rejects_a_huge_p_at_once():
    for p in (10**9 + 7, 10**400 + 1):
        out = run_cli("verify", "-p", str(p), "-n", "0")
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert out.stderr.splitlines()[-1].startswith(f"error: p={p}, n=0 is too large for verify")


# README lines whose comment is the command's whole output
README_EXAMPLES = [
    line.partition("#")
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    if line.split()[:2] in (["mulli", "symbol"], ["mulli", "map"], ["mulli", "bg-symbol"], ["mulli", "bijection"])
]


def test_the_readme_examples_print_their_comment(capsys):
    from mulli import cli

    assert len(README_EXAMPLES) == 4
    for command, _, output in README_EXAMPLES:
        assert cli.main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().out == output.strip() + "\n", command
