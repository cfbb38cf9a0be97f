"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad partition, bad p, cap
exceeded, --out or stdout not writable), 2 usage error, 3 verify found a
failing property (a value a library call rejects inside a law is its
witness), 4 internal error (a broken invariant of the kernels, which is a
bug; it stops verify too).  Domain errors print `error: <msg>` to stderr in
text mode and an `{"error": <msg>}` object to stdout in json mode; internal
errors print `internal error: <msg>`, or `{"error": <msg>, "internal": true}`.
A stdout that cannot be written (a closed pipe, a full disk) prints
`error: cannot write to stdout: <reason>` to stderr in every mode, `--help`
and `-h` included; the run exits 1, or keeps its code 3 or 4 if it had
already failed.
"""

import argparse
import json
import os
import sys

from .bg import bg_symbol, bg_to_mull, mull_to_bg
from .census import bg_counts_from_gf, census
from .partitions import check_odd_p, format_partition, parse_partition
from .render import peel_iterations, render_peeled
from .symbols import mullineux_map, mullineux_symbol
from .verify import run_checks


# Miller-Rabin with the first 13 primes as bases is exact below PRIME_BOUND,
# the smallest strong pseudoprime to all of them (Sorenson and Webster, 2015);
# the first 12 bases alone are fooled by 318665857834031151167461.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p):
    """True or False below PRIME_BOUND; None (not known) for a larger p with no small factor."""
    if p < 2:
        return False
    for q in PRIME_BASES:
        if p % q == 0:
            return p == q
    if p >= PRIME_BOUND:
        return None
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own writer drops an OSError; this one lets it reach main (subparsers share the class)
        print(self.format_help(), end="", file=file, flush=True)


def _build_parser():
    parser = _Parser(
        prog="mulli",
        description="Mullineux symbols, BG-partitions, and the bijection between their fixed-point families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text, partition=False, n=False, csv=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("-p", type=int, required=True, metavar="P", help="odd modulus >= 3")
        formats = ("text", "json", "csv") if csv else ("text", "json")
        cmd.add_argument("--format", choices=formats, default="text")
        cmd.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
        cmd.add_argument("--strict-prime", action="store_true", help="reject composite p instead of warning")
        if partition:
            cmd.add_argument("partition", help="comma form, exponents allowed: 7,5,2^3,1^2 ('-' for the empty partition)")
        if n:
            cmd.add_argument("-n", type=int, required=True, metavar="N", help="size bound")
        return cmd

    add("symbol", "Mullineux symbol of a p-regular partition", partition=True)
    add("bg-symbol", "bg symbol of a self-conjugate partition", partition=True)
    add("map", "image under the Mullineux map", partition=True)
    add("bijection", "BG <-> self-Mullineux partner", partition=True).add_argument("--direction", choices=("bg2m", "m2bg"), required=True)
    add("census", "families and pairing at one size", n=True, csv=True)
    add("gf", "generating function coefficients up to n", n=True)
    add("verify", "run every invariant check up to size n", n=True)
    add("render", "diagram with cells labelled by peeling step", partition=True).add_argument(
        "--star", action="store_true", help="peel symmetrized rims (self-conjugate input)"
    )
    return parser


def _run(args):
    """Dispatch one parsed command; returns (payload, exit code)."""
    check_odd_p(args.p)
    prime = _is_prime(args.p)
    if not prime:
        verdict = "is not prime" if prime is False else f"is not known to be prime (primality is decided below {PRIME_BOUND})"
        if args.strict_prime:
            raise ValueError(f"p={args.p} {verdict}")
        print(f"warning: p={args.p} {verdict}; theorems are proved for prime p", file=sys.stderr)
    as_json = args.format == "json"

    if args.subcommand in ("symbol", "bg-symbol"):
        symbol_of = mullineux_symbol if args.subcommand == "symbol" else bg_symbol
        sym = symbol_of(parse_partition(args.partition), args.p)
        return (json.dumps(sym.to_json_dict()) if as_json else sym.to_text()), 0

    if args.subcommand in ("map", "bijection"):
        go = mullineux_map if args.subcommand == "map" else bg_to_mull if args.direction == "bg2m" else mull_to_bg
        image = go(parse_partition(args.partition), args.p)
        return (json.dumps(image) if as_json else format_partition(image)), 0

    if args.subcommand == "census":
        report = census(args.p, args.n)
        if args.format == "csv":
            return report.to_csv().rstrip("\n"), 0
        return (json.dumps(report.to_json_dict()) if as_json else report.to_text()), 0

    if args.subcommand == "gf":
        coeffs = bg_counts_from_gf(args.p, args.n)
        return (json.dumps(coeffs) if as_json else "\n".join(f"{n} {c}" for n, c in enumerate(coeffs))), 0

    if args.subcommand == "verify":
        results = run_checks(args.p, args.n)
        code = 0 if all(r.ok for r in results) else 3
        if as_json:
            return json.dumps([r.to_json_dict() for r in results]), code
        return "\n".join(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}" for r in results), code

    if args.subcommand == "render":
        lam = parse_partition(args.partition)
        if as_json:
            return json.dumps([sorted(layer) for layer in peel_iterations(lam, args.p, star=args.star)]), 0
        return render_peeled(lam, args.p, star=args.star), 0

    raise AssertionError(f"unhandled subcommand {args.subcommand}")


def _fail(args, message, internal=False):
    """Report an error in the requested format; return (payload for stdout or None, exit code)."""
    code = 4 if internal else 1
    if args.format == "json":
        return json.dumps({"error": message, "internal": True} if internal else {"error": message}), code
    print(f"{'internal error' if internal else 'error'}: {message}", file=sys.stderr)
    return None, code


def main(argv=None) -> int:
    """Run one command; with print_help the only stdout writer. A failed write leaves fd 1 on devnull."""
    code = 0
    try:
        args = _build_parser().parse_args(argv)
        try:
            payload, code = _run(args)
        except ValueError as exc:
            payload, code = _fail(args, str(exc))
        except RuntimeError as exc:
            payload, code = _fail(args, str(exc), internal=True)
        else:
            if args.out:
                try:
                    with open(args.out, "w", encoding="utf-8") as fh:
                        fh.write(payload + "\n")
                    payload = None
                except OSError as exc:
                    payload, code = _fail(args, f"cannot write {args.out}: {exc.strerror or exc}")
        if payload is not None:
            print(payload, flush=True)
    except OSError as exc:
        # stdout cannot be written: point fd 1 at devnull so that the flush at interpreter exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc.strerror or exc}", file=sys.stderr)
        return code if code > 1 else 1
    return code
