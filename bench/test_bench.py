"""Tests of the benchmark itself: inputs, oracles, trace accounting, metric names.

    python3 -m pytest bench/test_bench.py      (or: python3 bench/test_bench.py)
"""

import json
import os
import subprocess
import sys
import types
import unittest
from itertools import product

import layers
import run
import spans
import workloads

MULLI = run.import_mulli()


def all_partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first,) + rest


def smallest(ops, k):
    return sorted(ops, key=lambda op: op.cells)[:k]


class InputTests(unittest.TestCase):
    def test_same_seed_same_ops_and_other_seed_other_ops(self):
        for build in workloads.WORKLOADS.values():
            def key(ops):
                return [(op.kind, op.p, op.arg) for op in ops]

            self.assertEqual(key(build(7)), key(build(7)))
            self.assertNotEqual(key(build(7)), key(build(8)))

    def test_every_input_is_valid(self):
        for build, seed in product(workloads.WORKLOADS.values(), (1, 2, 3)):
            for op in build(seed):
                self.assertTrue(workloads.valid_input(op), (op.kind, op.p, op.cells))

    def test_mix_is_the_same_for_every_seed(self):
        for build in workloads.WORKLOADS.values():
            reports = [workloads.property_report(build(seed)) for seed in (1, 2)]
            self.assertEqual(reports[0]["shape"], reports[1]["shape"])
            self.assertEqual(reports[0]["p"], reports[1]["p"])


class OracleTests(unittest.TestCase):
    """The benchmark's own checks agree with the library on small cases."""

    def test_symbol_matches_the_library(self):
        for p, n in product((3, 5, 7), range(13)):
            for lam in all_partitions(n):
                if workloads.is_p_regular(lam, p):
                    sym = MULLI.mullineux_symbol(lam, p)
                    self.assertEqual(workloads.symbol(lam, p), (list(sym.a), list(sym.r)), (lam, p))

    def test_counting_formulas(self):
        n_max = 16
        parts = [list(all_partitions(n)) for n in range(n_max + 1)]
        self.assertEqual(workloads.partition_counts(n_max), [len(ps) for ps in parts])
        for p in (3, 5, 7):
            regular = [sum(workloads.is_p_regular(lam, p) for lam in ps) for ps in parts]
            self.assertEqual(workloads.p_regular_counts(p, n_max), regular)
            bg = [sum(workloads.is_bg(lam, p) for lam in ps) for ps in parts]
            self.assertEqual(workloads.distinct_odd_counts(p, n_max), bg)

    def test_bg_construction_matches_the_library(self):
        for hooks in ((1,), (5, 1), (11, 7, 5), (13, 11, 1)):
            self.assertEqual(
                workloads.self_conjugate_from_hooks(hooks), MULLI.self_conjugate_from_diagonal_hooks(hooks)
            )
            self.assertEqual(workloads.diagonal_hooks(workloads.self_conjugate_from_hooks(hooks)), hooks)


class TraceTests(unittest.TestCase):
    def traced_pass(self, ops):
        tracer = spans.Tracer().install()
        try:
            outcomes = run.run_pass(MULLI, ops, traced=True, tracer=tracer)
        finally:
            tracer.uninstall()
        return outcomes, tracer.dump()

    def test_accounting_and_repeatable_counts(self):
        ops = smallest(workloads.mull_ops(1), 3) + smallest(workloads.bg_ops(1), 3)
        counts = []
        for _ in range(2):
            outcomes, trace = self.traced_pass(ops)
            self.assertTrue(all(o.ok for o in outcomes))
            walls = {i: o.latency for i, o in enumerate(outcomes)}
            self.assertEqual(spans.check_accounting(trace, walls, run.ACCOUNTING_TOLERANCE), [])
            counts.append({k: v["calls"] for k, v in layers.function_totals(trace["edges"]).items()})
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["symbols.mullineux_map"], 6)
        self.assertEqual(counts[0]["bg.bg_to_mull"], 3)

    def test_every_binding_is_wrapped(self):
        public = {getattr(MULLI, a) for a in MULLI.__all__ if isinstance(getattr(MULLI, a), types.FunctionType)}
        modules = [m for name, m in sys.modules.items() if name == "mulli" or name.startswith("mulli.")]
        bindings = [(m, a) for m in modules for a, v in vars(m).items() if isinstance(v, types.FunctionType) and v in public]
        self.assertGreater(len(bindings), len(public))  # re-exports and `from .x import f` copies
        tracer = spans.Tracer().install()
        try:
            for module, attr in bindings:
                self.assertTrue(hasattr(getattr(module, attr), "__wrapped__"), f"{module.__name__}.{attr}")
            self.assertTrue(all(hasattr(fn, "__wrapped__") for fn in MULLI.verify.CHECKS))
        finally:
            tracer.uninstall()

    def test_uninstall_restores_every_binding(self):
        before = MULLI.symbols.p_rim, MULLI.verify.CHECKS, MULLI.mullineux_map
        spans.Tracer().install().uninstall()
        self.assertEqual(before, (MULLI.symbols.p_rim, MULLI.verify.CHECKS, MULLI.mullineux_map))

    def test_traced_cli_child(self):
        op = workloads.Op("verify", 3, 6, 0, "verify", "n=6")
        proc = subprocess.run(run.cli_argv(op, traced=True), cwd=run.ROOT, env=run.cli_env(), capture_output=True, text=True, check=True)
        out = json.loads(proc.stdout)
        self.assertEqual(out["code"], 0)
        totals = layers.function_totals(out["trace"]["edges"])
        self.assertEqual(totals["cli.main"]["calls"], 1)
        self.assertEqual(totals["verify.bijection-roundtrip"]["calls"], 1)
        # p(0) + ... + p(6) partitions, each enumerated once per process
        self.assertEqual(totals["census.partitions_of"]["items"], sum(workloads.partition_counts(6)))
        self.assertEqual(spans.check_accounting(out["trace"], {0: out["wall"]}, run.ACCOUNTING_TOLERANCE), [])
        self.assertNotEqual(spans.check_accounting(out["trace"], {0: out["wall"] + 0.01}, run.ACCOUNTING_TOLERANCE), [])


class ResultCheckTests(unittest.TestCase):
    def test_census_check_rejects_a_wrong_family_member(self):
        op = workloads.Op("census", 3, 12, 0, "census", "n=12")
        proc = subprocess.run(run.cli_argv(op, traced=False), cwd=run.ROOT, env=run.cli_env(), capture_output=True, text=True, check=True)
        output = json.loads(proc.stdout)
        self.assertEqual(len(output["self_mullineux"]), 2)
        self.assertIsNone(run.check_census(op, output))
        for family, wrong in (("self_mullineux", [12]), ("distinct_odd_nondiv", [9, 3])):
            bad = dict(output, **{family: [wrong] + output[family][1:]})
            self.assertIsNotNone(run.check_census(op, bad), family)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_names_match_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]], layers.metric_specs()
        )
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        ops = smallest(workloads.mull_ops(1), 2)
        outcomes = run.run_pass(MULLI, ops)
        metrics = run.end_to_end(ops, [outcomes], [0.1], 20.0)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, {k: u for k, (_, u) in metrics.items()})


if __name__ == "__main__":
    sys.exit(unittest.main())
