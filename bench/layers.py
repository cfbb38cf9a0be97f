"""Per-layer metrics: their names and how they are derived from the spans.

The layers are the modules of mulli.  Each metric is measured from
outside, at the boundary of a public function: `<module>.<function>.calls`
(spans), `.self_s` (time in the function but not in a traced callee),
`.total_s` (time from entry to return) and, for the partitions_of
generator, `.yields`.  `verify.<check>.total_s` times each of the 19
checks and `verify.<check>.cases` sums the cases they report.

The ratios give wasted or repeated work a base:
  partitions.as_partition.calls_per_op   per op of the traced pass
  rims.p_rim.calls_per_column            per Mullineux symbol column (peel
                                         step); 2 when each step peels twice
  rims.p_rim_star.calls_per_column       per bg symbol column
  bg.conjugate.calls_per_layer           per bg layer peeled (bg symbol
                                         column) or grown (add_rim_star_layer)
  verify.mullineux_map.calls_per_regular_partition
                                         in verify ops, per p-regular
                                         partition of size 1..n they sweep
  verify.partitions_enumerated_per_case  partitions_of yields in verify ops,
                                         per verify case
  trace.overhead                         traced pass op time / untraced pass
                                         op time; both passes are warm and
                                         only compare with the first pass
"""

import functools
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))


@functools.cache
def _expected():
    with open(os.path.join(HERE, "expected_cases.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_names():
    """The 19 verify checks, in the order `mulli verify` reports them."""
    return tuple(_expected()["checks"])


def expected_cases():
    """'p:n' -> verify's case count per check at the seed code."""
    return _expected()["cases"]


# (module, functions, statistics) for the public functions measured
FUNCTIONS = (
    ("partitions", ("as_partition", "conjugate", "is_p_regular", "is_self_conjugate", "is_bg_partition", "hook_length"), ("calls", "self_s")),
    ("rims", ("rim", "p_rim", "remove_p_rim", "p_rim_star", "remove_p_rim_star"), ("calls", "self_s", "total_s")),
    ("symbols", ("mullineux_symbol", "reconstruct", "validate_symbol", "mullineux_map", "is_self_mullineux"), ("calls", "self_s", "total_s")),
    ("bg", ("bg_symbol", "add_rim_star_layer", "bg_to_mull", "mull_to_bg"), ("calls", "self_s", "total_s")),
    ("census", ("partitions_of",), ("yields", "self_s")),
    ("census", ("census", "bg_counts_from_gf", "has_distinct_odd_parts"), ("calls", "self_s")),
    ("cli", ("main",), ("calls", "self_s")),
)
STAT_UNITS = {"calls": "count", "yields": "count", "self_s": "s", "total_s": "s"}

RATIOS = (
    ("partitions.as_partition.calls_per_op", "calls/op"),
    ("rims.p_rim.calls_per_column", "calls/column"),
    ("rims.p_rim_star.calls_per_column", "calls/column"),
    ("bg.conjugate.calls_per_layer", "calls/layer"),
    ("verify.mullineux_map.calls_per_regular_partition", "calls/partition"),
    ("verify.partitions_enumerated_per_case", "partitions/case"),
    ("trace.overhead", "ratio"),
)


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, functions, stats in FUNCTIONS:
        for fn in functions:
            specs += [(f"{module}.{fn}.{stat}", STAT_UNITS[stat], "lower") for stat in stats]
    for check in check_names():
        specs.append((f"verify.{check}.total_s", "s", "lower"))
        specs.append((f"verify.{check}.cases", "count", "higher"))
    specs += [(name, unit, "lower") for name, unit in RATIOS]
    return specs


def function_totals(edges, ops=None):
    """name -> {calls, total_s, self_s, items}, summed over edges (of `ops` if given)."""
    out = {}
    for op, parent, name, spans, total, self_s, items in edges:
        if ops is not None and op not in ops:
            continue
        t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0})
        t["calls"] += spans
        t["total_s"] += total
        t["self_s"] += self_s
        t["items"] += items
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def derive(edges, n_ops, verify_ops, overhead):
    """Every per-layer metric from the folded spans of one traced pass.

    verify_ops maps the op id of each `mulli verify` op to
    (cases per check from its output, p-regular partitions it sweeps),
    for the ratios that only mean something on verify runs.
    A layer that does no work on the workload reports 0.
    """
    totals = function_totals(edges)

    def get(name, stat):
        return totals.get(name, {}).get(stat, 0)

    values = {}
    for module, functions, stats in FUNCTIONS:
        for fn in functions:
            for stat in stats:
                values[f"{module}.{fn}.{stat}"] = get(f"{module}.{fn}", "items" if stat == "yields" else stat)

    check_cases = [0] * len(check_names())
    for cases, _ in verify_ops.values():
        check_cases = [a + b for a, b in zip(check_cases, cases)]
    for check, cases in zip(check_names(), check_cases):
        values[f"verify.{check}.total_s"] = get(f"verify.{check}", "total_s")
        values[f"verify.{check}.cases"] = cases

    columns = get("symbols.mullineux_symbol", "items")
    bg_columns = get("bg.bg_symbol", "items")
    in_verify = function_totals(edges, set(verify_ops))
    values["partitions.as_partition.calls_per_op"] = _ratio(get("partitions.as_partition", "calls"), n_ops)
    values["rims.p_rim.calls_per_column"] = _ratio(get("rims.p_rim", "calls"), columns)
    values["rims.p_rim_star.calls_per_column"] = _ratio(get("rims.p_rim_star", "calls"), bg_columns)
    values["bg.conjugate.calls_per_layer"] = _ratio(
        get("partitions.conjugate", "calls"), bg_columns + get("bg.add_rim_star_layer", "calls")
    )
    values["verify.mullineux_map.calls_per_regular_partition"] = _ratio(
        in_verify.get("symbols.mullineux_map", {}).get("calls", 0), sum(reg for _, reg in verify_ops.values())
    )
    values["verify.partitions_enumerated_per_case"] = _ratio(
        in_verify.get("census.partitions_of", {}).get("items", 0), sum(check_cases)
    )
    values["trace.overhead"] = overhead
    return values
