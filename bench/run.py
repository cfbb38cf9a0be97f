"""The mulli benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload mull-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ./src.

Workloads (closed loop, one client, nothing in parallel; a fixed op
list built from the seed by workloads.py, without calling mulli):
  verify-sweep  each op is a fresh `python -m mulli verify|census -p P -n N
                --format json` process, as people checking the laws run it
  mull-large    in-process mu = mullineux_map(lam, p), then the involution
                mullineux_map(mu, p) == lam, on p-regular partitions of
                1k-8k cells
  bg-large      in-process mu = bg_to_mull(lam, p), then the round trip
                mull_to_bg(mu, p) == lam, on BG-partitions of 1k-3k cells

A run executes the whole op list in passes, one per PASS_SECONDS of
--seconds and at least MIN_PASSES, so the work is fixed by --seconds
and never by the program's speed.  The op lists are sized so that a
pass takes about PASS_SECONDS at the seed code.  Each op's latency is
the fastest of its runs, one per pass: other work on a shared machine
only ever adds time.  Each result is checked with laws computed in
workloads.py, not by the library: in full on the first pass, and later
passes must reproduce the first.  A failed op counts in `failed` and
keeps its latency sample.

--trace 0 reports the end-to-end metrics:
  setup_s        fastest of the fresh processes that go from start to
                 inputs ready (python start, import mulli, build the op
                 list), probed PROBES_PER_PASS times between passes
  cells_per_s    cells of correctly processed inputs per second of op time
  cases_per_s    law cases checked per second of op time (verify: the sum
                 of CheckResult.cases; census: partitions classified;
                 library ops: one case each)
  op_p50_ms, op_p90_ms   per-op latency percentiles
  size_exponent  least-squares slope of log latency on log cells, one
                 intercept per shape class (or CLI command) and p
  peak_rss_mb    peak RSS from getrusage: this process, or for
                 verify-sweep the largest CLI child of the first pass
The error rate is `failed` / `attempted` in the result line; it is not a
metric because it is 0 on a correct program.

--trace 1 runs the checked first pass, then one untraced and one traced
pass that both only compare with the first, and reports the per-layer
metrics of layers.py from the traced pass, plus trace.overhead = the
sum of the traced pass's op latencies / the same sum of the untraced
one.  No end-to-end number comes from a traced pass.  The spans are
written to bench/out/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

import layers
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A run makes one pass of the op list per PASS_SECONDS of --seconds, and
# at least MIN_PASSES: the same work for every commit at the same --seconds.
PASS_SECONDS = 6
MIN_PASSES = 3
PROBES_PER_PASS = 2
CHILD_TIMEOUT_S = 60
# check_accounting tolerance: a share of the op's measured wall, plus 50 microseconds
ACCOUNTING_TOLERANCE = 1e-3


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("MULLI_MAX_N", None)
    return env


def import_mulli():
    """Import mulli from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "mulli", "__init__.py")):
        raise SystemExit(f"error: no mulli package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import mulli

    if os.path.realpath(os.path.dirname(os.path.dirname(mulli.__file__))) != os.path.realpath(SRC):
        raise SystemExit(f"error: imported mulli from {mulli.__file__}, not from {SRC}")
    return mulli


# ---------------------------------------------------------------- ops


class Outcome:
    __slots__ = ("op", "latency", "ok", "detail", "output", "trace", "traced_wall")

    def __init__(self, op, latency, ok, detail, output=None, trace=None, traced_wall=None):
        self.op = op
        self.latency = latency  # wall time measured around the op by the benchmark loop
        self.ok = ok
        self.detail = detail
        self.output = output  # the image (library ops) or parsed CLI output
        self.trace = trace  # spans of a traced CLI child
        # wall time around the traced region, measured outside the tracer:
        # the op itself for a library op, main() in the child for a CLI op
        self.traced_wall = latency if traced_wall is None else traced_wall


def run_library_op(mulli, op, tracer=None, op_id=0, expect=None):
    """Time the op's two library calls; check the result outside the timed region.

    The first run of an op is checked against the laws in full; with
    `expect` (that run's image) a repeat only has to reproduce it.
    """
    p, lam = op.p, op.arg
    if op.kind == "map":
        forward, back = mulli.mullineux_map, mulli.mullineux_map
    else:
        forward, back = mulli.bg_to_mull, mulli.mull_to_bg
    t0 = time.perf_counter()
    if tracer:
        tracer.begin_op(op_id)
    try:
        mu = forward(lam, p)
        ok_back = back(mu, p) == lam
        error = None
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        mu, ok_back, error = None, False, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.end_op()
    latency = time.perf_counter() - t0
    if error:
        return Outcome(op, latency, False, error)
    if expect is None:
        detail = check_library_result(op, mu, ok_back)
    else:
        detail = None if ok_back and mu == expect else "differs from the op's first run"
    return Outcome(op, latency, detail is None, detail, mu)


def check_library_result(op, mu, ok_back):
    p, lam = op.p, op.arg
    if not ok_back:
        return "round trip does not return the input" if op.kind == "bg" else "map is not an involution here"
    if not isinstance(mu, tuple) or sum(mu) != sum(lam):
        return "image has a different size"
    if not workloads.is_p_regular(mu, p):
        return "image is not p-regular"
    a, r = workloads.symbol(mu, p)
    if op.kind == "bg":
        if not workloads.is_self_mullineux_symbol(a, r, p):
            return "image's symbol is not self-Mullineux"
    else:
        a0, r0 = workloads.symbol(lam, p)
        flipped = [ai + (1 if ai % p else 0) - ri for ai, ri in zip(a0, r0)]
        if (a, r) != (a0, flipped):
            return "image's symbol is not the input's with each r_i flipped"
    return None


def cli_argv(op, traced):
    head = [sys.executable, os.path.join(HERE, "trace_cli.py")] if traced else [sys.executable, "-m", "mulli"]
    return head + [op.kind, "-p", str(op.p), "-n", str(op.arg), "--format", "json"]


def run_child(argv, stdout=subprocess.PIPE):
    """Run a child process in ROOT; returns (wall seconds, timed out, CompletedProcess).

    subprocess.run(timeout=...) polls for the child's exit with sleeps
    that grow to 50 ms, which rounds the measured wall time up to the next
    poll.  Here the wait blocks, and a timer kills a child that outlives
    CHILD_TIMEOUT_S.
    """
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=stdout, stderr=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    return wall, bool(killed), subprocess.CompletedProcess(argv, proc.returncode, out, err)


def run_cli_op(op, traced):
    latency, timed_out, proc = run_child(cli_argv(op, traced))
    if timed_out:
        return Outcome(op, latency, False, f"timed out after {CHILD_TIMEOUT_S} s")
    stdout, code, trace, traced_wall = proc.stdout, proc.returncode, None, None
    if traced and code == 0:
        try:
            wrapped = json.loads(stdout)
            stdout, code, trace, traced_wall = wrapped["stdout"], wrapped["code"], wrapped["trace"], wrapped["wall"]
        except (ValueError, KeyError) as exc:
            return Outcome(op, latency, False, f"unreadable trace output: {exc}")
    if code != 0:
        return Outcome(op, latency, False, f"exit code {code}: {proc.stderr.strip()[-300:]}")
    try:
        output = json.loads(stdout)
    except ValueError as exc:
        return Outcome(op, latency, False, f"output is not JSON: {exc}")
    detail = check_verify(op, output) if op.kind == "verify" else check_census(op, output)
    return Outcome(op, latency, detail is None, detail, output, trace, traced_wall)


def check_verify(op, output):
    want = layers.expected_cases()[f"{op.p}:{op.arg}"]
    names = [r.get("name") for r in output]
    if names != list(layers.check_names()):
        return f"checks reported {names}"
    failing = [r["name"] for r in output if r.get("ok") is not True]
    if failing:
        return f"FAIL {failing}"
    got = [r.get("cases") for r in output]
    if got != want:
        return f"case counts {got} differ from the seed code's {want}"
    return None


def check_census(op, output):
    p, n = op.p, op.arg
    families = ("bg", "self_mullineux", "distinct_odd_nondiv", "pairs")
    gf = workloads.distinct_odd_counts(p, n)[n]
    if output.get("all_count") != workloads.partition_counts(n)[n]:
        return f"all_count {output.get('all_count')} is not p({n})"
    if output.get("p_regular_count") != workloads.p_regular_counts(p, n)[n]:
        return f"p_regular_count {output.get('p_regular_count')} is wrong"
    sizes = [len(output.get(f, ())) for f in families]
    if sizes != [gf] * len(families):
        return f"family sizes {dict(zip(families, sizes))} differ from the gf coefficient {gf}"
    bg = [tuple(lam) for lam in output["bg"]]
    mull = {tuple(lam) for lam in output["self_mullineux"]}
    odd = {tuple(q) for q in output["distinct_odd_nondiv"]}
    if len(set(bg)) != gf or len(mull) != gf or len(odd) != gf:
        return "a family lists a partition twice"
    if not all(workloads.is_bg(lam, p) and sum(lam) == n for lam in bg):
        return "a listed BG-partition is not one"
    if not all(
        workloads.is_p_regular(lam, p) and sum(lam) == n and workloads.is_self_mullineux_symbol(*workloads.symbol(lam, p), p)
        for lam in mull
    ):
        return "a listed self-Mullineux partition is not one"
    if not all(
        sum(q) == n and len(set(q)) == len(q) and all(x % 2 == 1 and x % p for x in q) for q in odd
    ):
        return "a listed partition does not have distinct odd parts prime to p"
    if [tuple(b) for b, _ in output["pairs"]] != bg or {tuple(m) for _, m in output["pairs"]} != mull:
        return "the pairing does not match BG onto self-Mullineux"
    return None


def op_cases(op):
    if op.kind == "verify":
        return sum(layers.expected_cases()[f"{op.p}:{op.arg}"])
    if op.kind == "census":
        return workloads.partition_counts(op.arg)[op.arg]
    return 1


def run_pass(mulli, ops, traced=False, tracer=None, first=None):
    """Run every op once, in order; returns the outcomes.

    traced CLI ops run under trace_cli.py; library ops are traced when a
    Tracer is installed and given.  `first` holds the outcomes of the
    first pass, whose images later passes must reproduce.
    """
    outcomes = []
    for i, op in enumerate(ops):
        if op.kind in ("verify", "census"):
            outcomes.append(run_cli_op(op, traced))
        else:
            expect = first[i].output if first and first[i].ok else None
            outcomes.append(run_library_op(mulli, op, tracer, i, expect))
    return outcomes


# ------------------------------------------------------------- metrics


def size_exponent(ops, latencies):
    """Slope of log latency on log cells, one intercept per (shape class or command, p)."""
    groups = {}
    for op, latency in zip(ops, latencies):
        groups.setdefault((op.group, op.p), []).append((math.log(op.cells), math.log(latency)))
    sxy = sxx = 0.0
    for points in groups.values():
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
    return sxy / sxx if sxx else 0.0


def setup_probe(workload, seed):
    """Wall time of a fresh process that imports mulli and builds the inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"]
    wall, timed_out, proc = run_child(argv, stdout=subprocess.DEVNULL)
    if timed_out or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed (exit code {proc.returncode}): {proc.stderr.strip()[-300:]}")
    return wall


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "verify-sweep" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(ops, passes, setup_times, rss_mb):
    """End-to-end metrics from the untraced passes.

    Each op's latency is the fastest of its runs, one per pass, and
    setup_s the fastest of the set-up probes: other work on a shared
    machine only ever adds time, and a slow spell during one pass then
    does not move the figure.  An op counts as correct only if
    it was correct in every pass.
    """
    latencies = [min(p[i].latency for p in passes) for i in range(len(ops))]
    busy = sum(latencies)
    good = [op for i, op in enumerate(ops) if all(p[i].ok for p in passes)]
    return {
        "setup_s": (min(setup_times), "s"),
        "cells_per_s": (sum(op.cells for op in good) / busy, "cells/s"),
        "cases_per_s": (sum(op_cases(op) for op in good) / busy, "cases/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
        "size_exponent": (size_exponent(ops, latencies), "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def merged_trace(outcomes, tracer):
    """Spans of the traced pass; CLI children's op 0 becomes the op's index."""
    if tracer is not None:
        return tracer.dump()
    trace = {"ops": [], "edges": []}
    for i, o in enumerate(outcomes):
        if o.trace is None:
            continue
        trace["ops"] += [[i, *rest] for _, *rest in o.trace["ops"]]
        trace["edges"] += [[i, *rest] for _, *rest in o.trace["edges"]]
    return trace


def per_layer(ops, outcomes, tracer, overhead):
    trace = merged_trace(outcomes, tracer)
    walls = {i: o.traced_wall for i, o in enumerate(outcomes)}
    failures = spans.check_accounting(trace, walls, ACCOUNTING_TOLERANCE)
    verify_ops = {}
    for i, o in enumerate(outcomes):
        if o.op.kind == "verify" and o.output is not None:
            regular = sum(workloads.p_regular_counts(o.op.p, o.op.arg)[1:])
            verify_ops[i] = ([r["cases"] for r in o.output], regular)
    values = layers.derive(trace["edges"], len(ops), verify_ops, overhead)
    units = {name: unit for name, unit, _ in layers.metric_specs()}
    return {name: (values[name], units[name]) for name in units}, trace, failures


# ---------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="import mulli, build the inputs and exit")
    return parser.parse_args(argv)


def build_ops(workload, seed):
    ops = workloads.WORKLOADS[workload](seed)
    bad = [op for op in ops if not workloads.valid_input(op)]
    if bad:
        raise SystemExit(f"error: the generator built {len(bad)} invalid inputs")
    return ops


def report(lines):
    for line in lines:
        print(line, flush=True)


def main(argv=None):
    args = parse_args(argv)
    mulli = import_mulli()
    ops = build_ops(args.workload, args.seed)
    if args.setup_only:
        return 0

    props = workloads.property_report(ops)
    report([
        f"workload {args.workload}, seed {args.seed}: {len(ops)} ops, {props['cells']} cells per pass",
        f"  inputs by shape {props['shape']}",
        f"  inputs by size band {props['size_band']}",
        f"  inputs by p {props['p']}",
    ])

    start = time.perf_counter()
    first = run_pass(mulli, ops)
    if args.trace:
        # both sides skip the first pass's oracle checks and its cold start
        untraced = run_pass(mulli, ops, first=first)
        tracer = None if args.workload == "verify-sweep" else spans.Tracer().install()
        traced = run_pass(mulli, ops, traced=True, tracer=tracer, first=first)
        if tracer:
            tracer.uninstall()
        untraced_s = sum(o.latency for o in untraced)
        traced_s = sum(o.latency for o in traced)
        overhead = traced_s / untraced_s
        metrics, trace, failures = per_layer(ops, traced, tracer, overhead)
        if failures:
            report(["trace accounting failed:"] + [f"  {f}" for f in failures[:10]])
            return 1
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, **trace}, fh)
        report([
            f"traced pass {traced_s:.2f} s vs untraced {untraced_s:.2f} s of op time: overhead x{overhead:.2f}",
            f"  spans add up to each op's measured wall within {ACCOUNTING_TOLERANCE:.1%} + 50 us; written to {os.path.relpath(path, ROOT)}",
        ])
        outcomes = first + untraced + traced
        samples = f"{len(ops)} ops, 1 traced pass"
    else:
        # peak RSS before the set-up probes add children of their own
        rss_mb = peak_rss_mb(args.workload)
        passes, setup_times = [first], []
        for _ in range(max(MIN_PASSES, round(args.seconds / PASS_SECONDS)) - 1):
            # probes are spread between passes so one slow spell cannot hold all of them
            setup_times += [setup_probe(args.workload, args.seed) for _ in range(PROBES_PER_PASS)]
            passes.append(run_pass(mulli, ops, first=first))
        setup_times += [setup_probe(args.workload, args.seed) for _ in range(PROBES_PER_PASS)]
        metrics = end_to_end(ops, passes, setup_times, rss_mb)
        outcomes = [o for p in passes for o in p]
        samples = f"{len(ops)} ops x {len(passes)} passes"
        report([f"{len(passes)} passes of {len(ops)} ops, {len(setup_times)} set-up probes, {time.perf_counter() - start:.2f} s"])

    failed = [o for o in outcomes if not o.ok]
    report([f"  {name:<58} {value:>14.6g} {unit:<14} ({samples})" for name, (value, unit) in metrics.items()])
    report([f"  error_rate {len(failed) / len(outcomes):.4g} ({len(failed)}/{len(outcomes)} op runs)"])
    for o in failed[:5]:
        report([f"  FAILED {o.op.kind} p={o.op.p} cells={o.op.cells}: {o.detail}"])
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
