"""Timing wrappers installed from outside on the public functions of mulli.

install() replaces every binding of each public function: the name in
the module that defines it, the copies made by `from .x import f` in
the other mulli modules, the package re-exports and the entries of
verify.CHECKS.  Nothing under src/ is edited.

Each wrapped call is a span (name, start, end, parent, op id).  The
kernel workloads make millions of calls per run, so spans are folded
on the fly into one record per (op id, parent name, name) edge holding
the span count, total time, self time and items; op spans are kept
whole.  A span's self time is its duration minus the durations of its
direct child spans, so the self times of one op, together with the op
span's own self time (the benchmark loop's time between library calls), add up
to the op span's duration; check_accounting() tests that this sum matches
the op's wall time measured outside the tracer.

partitions_of recurses through its module binding, so only its
outermost generator is timed, one span per next().
"""

import functools
import inspect
import sys
import time
import types

ROOT = "op"
# functions whose result length is recorded as the span's items: the
# number of symbol columns, i.e. peel steps.  Generators record yields.
ITEM_COUNTERS = ("symbols.mullineux_symbol", "bg.bg_symbol")


class Tracer:
    """Span recorder for one process: install(), then begin_op/end_op around each op."""

    def __init__(self):
        self.names = [ROOT]
        self.ids = {ROOT: 0}
        self.op = None
        self.op_start = 0.0
        self.stack = []
        self.edges = {}  # (op, parent id, name id) -> [spans, total_s, self_s, items]
        self.ops = []  # [op id, start, end, self_s]
        self.restore = []
        self.gen_active = set()

    # ------------------------------------------------------------ spans

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def begin_op(self, op_id):
        self.op = op_id
        self.stack = [[0, 0.0]]
        self.op_start = time.perf_counter()

    def end_op(self):
        end = time.perf_counter()
        root = self.stack.pop()
        if self.stack:
            raise RuntimeError(f"op {self.op}: a span was left open")
        self.ops.append([self.op, self.op_start, end, end - self.op_start - root[1]])
        self.op = None

    def _record(self, parent, nid, dur, self_s, items):
        key = (self.op, parent, nid)
        rec = self.edges.get(key)
        if rec is None:
            rec = self.edges[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += self_s
        rec[3] += items

    def _wrap(self, fn, name):
        nid = self.name_id(name)
        clock, record = time.perf_counter, self._record
        counts_items = name in ITEM_COUNTERS

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self.stack
            if not stack:  # called outside any op (e.g. while importing)
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [nid, 0.0]
            stack.append(frame)
            items = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if counts_items:
                    items = len(result)
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                record(parent[0], nid, dur, dur - frame[1], items)

        return timed

    def _wrap_generator(self, fn, name):
        nid = self.name_id(name)
        clock, record = time.perf_counter, self._record

        def resumes(it):
            while True:
                stack = self.stack
                parent = stack[-1]
                frame = [nid, 0.0]
                stack.append(frame)
                self.gen_active.add(nid)
                done = True
                t0 = clock()
                try:
                    item = next(it)
                    done = False
                except StopIteration:
                    pass
                finally:
                    dur = clock() - t0
                    self.gen_active.discard(nid)
                    stack.pop()
                    parent[1] += dur
                    # the resume that ends the generator yields nothing
                    record(parent[0], nid, dur, dur - frame[1], 0 if done else 1)
                if done:
                    return
                yield item

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            it = fn(*args, **kwargs)
            if nid in self.gen_active or not self.stack:
                return it
            return resumes(it)

        return timed

    # ------------------------------------------------------- installation

    def install(self):
        """Wrap every binding of each public mulli function; returns self."""
        import mulli
        from mulli import verify

        public = {}
        for attr in mulli.__all__:
            fn = getattr(mulli, attr)
            if isinstance(fn, types.FunctionType):
                public[fn] = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        for fn in verify.CHECKS:
            public[fn] = "verify." + check_name(fn)
        cli = sys.modules.get("mulli.cli")
        if cli is not None:
            public[cli.main] = "cli.main"

        wrappers = {}
        for fn, name in public.items():
            make = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap
            wrappers[fn] = make(fn, name)
        for modname, module in list(sys.modules.items()):
            if modname != "mulli" and not modname.startswith("mulli."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self.restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        self.restore.append((verify, "CHECKS", verify.CHECKS))
        verify.CHECKS = tuple(wrappers[fn] for fn in verify.CHECKS)
        return self

    def uninstall(self):
        for module, attr, value in reversed(self.restore):
            setattr(module, attr, value)
        self.restore = []

    # ------------------------------------------------------------ output

    def dump(self):
        """Spans as plain data: op spans and folded call edges, by name."""
        return {
            "ops": self.ops,
            "edges": [
                [op, self.names[parent], self.names[nid], *rec]
                for (op, parent, nid), rec in self.edges.items()
            ],
        }


def check_name(fn):
    """verify.check_p_rim_structure -> 'p-rim-structure', the CheckResult name."""
    return fn.__name__.removeprefix("check_").replace("_", "-")


def check_accounting(trace, walls, tolerance):
    """Check that the spans of each op account for its independently measured time.

    walls maps op id -> the wall time measured around the op from outside
    the tracer: by the benchmark loop for a library op, by trace_cli.py
    around the CLI's main() for a CLI op.  The self times of the op's
    spans, the op span's own self time (the time between traced calls)
    included, must add up to that wall within `tolerance` of it plus 50
    microseconds.  Self times telescope to the op span by construction,
    so this tests that the op span covers the measured time: time spent
    outside the traced calls shows in the op span's own self time, not
    as a gap.  Returns a list of failures, empty when the accounting holds.
    """
    self_sum = {}
    for op, parent, name, spans, total, self_s, items in trace["edges"]:
        if parent == name:
            return [f"op {op}: {name} nested in itself, so its total_s would double count"]
        self_sum[op] = self_sum.get(op, 0.0) + self_s
    failures = []
    for op, start, end, root_self in trace["ops"]:
        spans_sum = self_sum.get(op, 0.0) + root_self
        if abs(spans_sum - walls[op]) > tolerance * walls[op] + 5e-5:
            failures.append(f"op {op}: self times sum to {spans_sum:.6f} s, measured wall {walls[op]:.6f} s")
    return failures
