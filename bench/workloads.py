"""Seeded inputs and independent result checks for the three workloads.

Nothing here imports mulli.  Inputs are built by construction (p-regular
partitions by bounding each part's multiplicity, BG-partitions from sets
of distinct odd diagonal hooks), so a later change to the library's
predicates cannot change what the benchmark feeds it.  The checks below
use laws and counting formulas computed here, not the library's own
algorithms.

The library workloads are stratified: sizes are spread over
equal-probability strata of their range, and each block of consecutive
strata holds every (shape class, p) pair once.  The seed picks the size
inside each stratum, the shape inside each class and the op order, so
different seeds give different inputs with the same mix.  verify-sweep
runs a fixed grid of (command, p, n); its seed picks the op order.
"""

import math
import random
from collections import Counter

PRIMES = (3, 5, 7)

MULL_SHAPES = ("row", "mix", "stair", "short")
MULL_SIZES = (1000, 8000)
MULL_BLOCKS = 9

BG_SHAPES = ("thin", "mix", "square")
BG_SIZES = (1000, 3000)
BG_BLOCKS = 12

# verify-sweep: each op is a fresh CLI process of 0.1-0.8 s, so that a
# pass takes about run.PASS_SECONDS.  verify runs every n of VERIFY_N and
# census the two sizes of CENSUS_N, each for every p: census time at one n
# differs by up to 2x between primes, so a seeded choice of p would move
# the size exponent from seed to seed.
VERIFY_N = (12, 15)
CENSUS_N = (20, 26)


class Op:
    """One unit of work: the input, its cost basis and its report labels."""

    __slots__ = ("kind", "p", "arg", "cells", "group", "band")

    def __init__(self, kind, p, arg, cells, group, band):
        self.kind = kind  # "map", "bg", "verify" or "census"
        self.p = p
        self.arg = arg  # a partition, or n for the CLI ops
        self.cells = cells  # cells the op processes, the size axis of every metric
        self.group = group  # shape class or CLI command
        self.band = band  # size band label for the property report


# ---------------------------------------------------------------- partitions


def is_partition(lam):
    return all(isinstance(x, int) and x >= 1 for x in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


def is_p_regular(lam, p):
    return is_partition(lam) and all(c < p for c in Counter(lam).values())


def pad_top(parts, n):
    """Sort decreasing and add the missing cells to row 1.

    Raising the top part only can never create a repeat of p or more,
    so a p-regular list stays p-regular.
    """
    parts = sorted(parts, reverse=True)
    if not parts:
        return (n,)
    parts[0] += n - sum(parts)
    return tuple(parts)


def _stair(n, rng, p):
    """Distinct parts k, k-1, ..., 1 (the top rows raised by one to reach n)."""
    k = int((math.isqrt(8 * n + 1) - 1) // 2)
    r = n - k * (k + 1) // 2
    return tuple([k - i + 1 for i in range(r)] + [k - i for i in range(r, k)])


def _short(n, rng, p):
    """Many short rows: every value 1, 2, ... repeated p-1 or nearly p-1 times."""
    parts, v, size = [], 1, 0
    lo = max(1, p // 2)
    while True:
        mult = rng.randint(lo, p - 1)
        if size + v * mult > n:
            break
        parts += [v] * mult
        size += v * mult
        v += 1
    return pad_top(parts, n)


def _mix(n, rng, p):
    """Random decreasing values with random gaps, each repeated 1..p-1 times."""
    while True:
        top = int(math.sqrt(n) * rng.uniform(1.6, 2.4))
        mean_mult = p / 2
        gap = max(1.0, mean_mult * top * top / (2 * n))
        parts, v = [], top
        while v >= 1:
            parts += [v] * rng.randint(1, p - 1)
            v -= rng.randint(1, max(1, int(2 * gap) - 1))
        parts.sort()
        size, drop = sum(parts), 0
        while size > n:
            size -= parts[drop]
            drop += 1
        if n - size <= n // 10:
            return pad_top(parts[drop:], n)


def _row(n, rng, p):
    """One long row (13-17 % of the cells) over a random mixed body."""
    length = int(n * rng.uniform(0.13, 0.17))
    body = _mix(n - length, rng, p)
    return (body[0] + length,) + body[1:]


MULL_MAKERS = {"row": _row, "mix": _mix, "stair": _stair, "short": _short}


def conjugate(lam):
    """Column lengths: entry j counts the parts of size >= j + 1."""
    if not lam:
        return ()
    ends = [0] * (lam[0] + 1)
    for part in lam:
        ends[part] += 1
    cols, count = [], 0
    for j in range(lam[0], 0, -1):
        count += ends[j]
        cols.append(count)
    return tuple(reversed(cols))


def self_conjugate_from_hooks(hooks):
    """The self-conjugate partition with these (strictly decreasing, odd) diagonal hooks.

    Hook i is the diagonal cell (i, i) with arm = leg = (h_i - 1) / 2, so
    row i has i - 1 + (h_i + 1) / 2 cells; the rows below the Durfee square
    mirror the columns to its right.
    """
    top = tuple(i + (h - 1) // 2 for i, h in enumerate(hooks, start=1))
    return top + conjugate(top)[len(top):]


def diagonal_hooks(lam):
    """Diagonal hook lengths, from the rows and the columns."""
    cols = conjugate(lam)
    return tuple(lam[i] + cols[i] - 2 * i - 1 for i in range(len(lam)) if lam[i] > i)


def is_bg(lam, p):
    return is_partition(lam) and lam == conjugate(lam) and all(h % p for h in diagonal_hooks(lam))


def _hooks(n, k, rng, p):
    """About k distinct odd hooks, none divisible by p, summing to about n.

    Random weights set each hook's share; a hook that would collide with
    the one above it, or be divisible by p, steps down to the next free odd.
    """
    weights = sorted((rng.uniform(0.5, 1.0) for _ in range(k)), reverse=True)
    scale = n / sum(weights)
    hooks = []
    for w in weights:
        h = int(w * scale) | 1
        if hooks:
            h = min(h, hooks[-1] - 2)
        while h > 0 and h % p == 0:
            h -= 2
        if h < 1:
            break
        hooks.append(h)
    return tuple(hooks)


def _hook_count(n, p, lo, hi, rng):
    """A hook count between lo and hi times the most that fit in n cells."""
    k_max = math.isqrt(n * (p - 1) // p)
    return max(2, int(k_max * rng.uniform(lo, hi)))


def _bg_thin(n, rng, p):
    """Few hooks with long arms: a wide, shallow shape."""
    return _hooks(n, _hook_count(n, p, 0.25, 0.29, rng), rng, p)


def _bg_mix(n, rng, p):
    return _hooks(n, _hook_count(n, p, 0.4, 0.46, rng), rng, p)


def _bg_square(n, rng, p):
    """Many hooks with short arms: a near-square Durfee block."""
    return _hooks(n, _hook_count(n, p, 0.7, 0.8, rng), rng, p)


BG_HOOK_MAKERS = {"thin": _bg_thin, "mix": _bg_mix, "square": _bg_square}


# --------------------------------------------------------------- op lists


def _stratified(rng, lo, hi, blocks, combos):
    """(size, combo) pairs over blocks * len(combos) equal strata of log size.

    Each block of len(combos) consecutive strata holds every combo once,
    in an order fixed for all seeds, so no seed puts one combo on the
    largest sizes; the seed picks the size inside each stratum.
    """
    layout = random.Random("layout")
    slots = []
    for _ in range(blocks):
        order = list(combos)
        layout.shuffle(order)
        slots += order
    return [
        (int(round(lo * (hi / lo) ** ((i + rng.random()) / len(slots)))), combo)
        for i, combo in enumerate(slots)
    ]


def _band(n, edges):
    for lo, hi in zip(edges, edges[1:]):
        if n < hi:
            return f"{lo}-{hi}"
    return f">={edges[-1]}"


def mull_ops(seed):
    rng = random.Random(f"mull-large:{seed}")
    combos = [(s, p) for s in MULL_SHAPES for p in PRIMES]
    ops = []
    for n, (shape, p) in _stratified(rng, *MULL_SIZES, MULL_BLOCKS, combos):
        lam = MULL_MAKERS[shape](n, rng, p)
        ops.append(Op("map", p, lam, sum(lam), shape, _band(n, (1000, 2000, 4000, 8000, 16000))))
    rng.shuffle(ops)
    return ops


def bg_ops(seed):
    rng = random.Random(f"bg-large:{seed}")
    combos = [(s, p) for s in BG_SHAPES for p in PRIMES]
    ops = []
    for n, (shape, p) in _stratified(rng, *BG_SIZES, BG_BLOCKS, combos):
        lam = self_conjugate_from_hooks(BG_HOOK_MAKERS[shape](n, rng, p))
        ops.append(Op("bg", p, lam, sum(lam), shape, _band(n, (1000, 2000, 4000, 8000, 16000))))
    rng.shuffle(ops)
    return ops


def partition_counts(n_max):
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    counts = [1]
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * counts[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * counts[n - k * (3 * k + 1) // 2]
            k += 1
        counts.append(total)
    return counts


def verify_ops(seed):
    """A verify op for every p and n of VERIFY_N and a census op for every
    p and n in CENSUS_N, in seeded order."""
    rng = random.Random(f"verify-sweep:{seed}")
    pc = partition_counts(CENSUS_N[1])
    ops = [
        Op("verify", p, n, sum(k * pc[k] for k in range(n + 1)), "verify", f"n={n}")
        for n in range(VERIFY_N[0], VERIFY_N[1] + 1)
        for p in PRIMES
    ]
    ops += [Op("census", p, n, n * pc[n], "census", f"n={n}") for n in CENSUS_N for p in PRIMES]
    rng.shuffle(ops)
    return ops


WORKLOADS = {"verify-sweep": verify_ops, "mull-large": mull_ops, "bg-large": bg_ops}


def property_report(ops):
    """Share of ops in each shape class, size band and p."""
    total = len(ops)

    def shares(key):
        counts = Counter(key(op) for op in ops)
        return {k: round(v / total, 4) for k, v in sorted(counts.items(), key=lambda kv: str(kv[0]))}

    return {
        "ops": total,
        "cells": sum(op.cells for op in ops),
        "shape": shares(lambda op: op.group),
        "size_band": shares(lambda op: op.band),
        "p": shares(lambda op: op.p),
    }


def valid_input(op):
    if op.kind == "map":
        return is_p_regular(op.arg, op.p) and sum(op.arg) == op.cells
    if op.kind == "bg":
        return is_bg(op.arg, op.p) and sum(op.arg) == op.cells
    return op.p in PRIMES and isinstance(op.arg, int) and op.arg >= 0


# ----------------------------------------------------------- independent oracles


def symbol(lam, p):
    """Mullineux symbol by row-length arithmetic, independent of mulli.rims.

    Row i's rim cells are its columns max(lam[i+1], 1) .. lam[i].  A run
    takes p consecutive rim cells from the start of a row; if it ends
    above the last row, the next run starts at the row below.
    """
    rows = list(lam)
    a, r = [], []
    while rows:
        length = len(rows)
        rim = [rows[i] - max(rows[i + 1] if i + 1 < length else 0, 1) + 1 for i in range(length)]
        gone = [0] * length
        i = 0
        while True:
            need = p
            while True:
                take = min(need, rim[i])
                gone[i] = take
                need -= take
                if need == 0 or i == length - 1:
                    break
                i += 1
            if i == length - 1:
                break
            i += 1
        a.append(sum(gone))
        r.append(length)
        rows = [x - g for x, g in zip(rows, gone)]
        while rows and rows[-1] == 0:
            rows.pop()
    return a, r


def is_self_mullineux_symbol(a, r, p):
    return all(ai == 2 * ri - (0 if ai % p == 0 else 1) for ai, ri in zip(a, r))


def p_regular_counts(p, n_max):
    """Coefficients of prod (1 - x^(pk)) / (1 - x^k): p-regular partitions of 0..n_max."""
    c = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for m in range(k, n_max + 1):
            c[m] += c[m - k]
    for k in range(1, n_max // p + 1):
        q = p * k
        for m in range(n_max, q - 1, -1):
            c[m] -= c[m - q]
    return c


def distinct_odd_counts(p, n_max):
    """Partitions of 0..n_max into distinct odd parts none divisible by p."""
    c = [1] + [0] * n_max
    for q in range(1, n_max + 1, 2):
        if q % p:
            for m in range(n_max, q - 1, -1):
                c[m] += c[m - q]
    return c
