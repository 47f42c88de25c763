#!/usr/bin/env python3
"""Layered benchmark of ordopt's optimizer and external sort.

    python3 perfbench/run.py --workload plan_chain --seed 0 --seconds 25 --trace 0

One client issues one operation at a time (closed loop): a query for the plan
workloads, a sort for the sort workloads.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  Lines
before it give the same numbers for people, plus the run's environment.
Spans of a traced run go to `.perfbench/` at the root of the checkout.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import array
import bisect
import dataclasses
import hashlib
import importlib
import json
import logging
import math
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads as wl  # noqa: E402
import probe  # noqa: E402
from tracing import CLOCK, NullTracer, Tracer  # noqa: E402

WORKLOADS = ("plan_chain", "plan_fixtures", "sort_segmented")
#: Distinct inputs per seed; operations cycle through them.
POOL = {"plan_chain": 200, "plan_fixtures": 6, "sort_segmented": 32}
#: The first inputs of the pool, whose counts the traced run reports.  Each
#: is processed traced at least once, so the counts are fixed per seed.
COUNTED = {"plan_chain": len(wl.CHAIN_CYCLE), "plan_fixtures": 6, "sort_segmented": 8}
#: Tail percentile per workload, fixed so that parent and change compare the
#: same one.  Each leaves at least ten samples beyond it in a 25-second run
#: on a 2-core machine.  plan_fixtures could afford p99, but its p99 moved
#: 11% between identical runs (host noise on 1.5 ms operations); its p90
#: is the slowest fixture's typical time.
TAIL_PCT = {"plan_chain": 90, "plan_fixtures": 90, "sort_segmented": 75}
SETUP_REPEATS = 9
#: A seed no one tuned on; a later claim must also hold on it.
HELD_OUT_SEED = 9001
COUNTERS = (
    "comparisons",
    "positions_inspected",
    "run_blocks_written",
    "run_blocks_read",
    "runs_generated",
    "tuples_in_before_first_out",
)
EXPECTED_PATH = HERE / "expected.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


# --- the program under test ---------------------------------------------------


def load_program() -> types.SimpleNamespace:
    """Import ordopt afresh from this checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "ordopt" or m.startswith("ordopt.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ordopt")
    if Path(pkg.__file__).resolve().parent != SRC / "ordopt":
        raise ImportError(f"ordopt imported from {pkg.__file__}, not from {SRC}")
    # The favorable-order set warning is counted as sets_over_flag instead.
    quiet = logging.getLogger("ordopt")
    quiet.handlers = [logging.NullHandler()]
    quiet.propagate = False
    mod = lambda name: importlib.import_module(f"ordopt.{name}")  # noqa: E731
    return types.SimpleNamespace(
        cs=mod("catalog_stats"),
        cm=mod("cost_model"),
        lx=mod("logical_expr"),
        opt=mod("optimizer"),
        fo=mod("favorable_orders"),
        refine=mod("order_refinement"),
        extsort=mod("extsort"),
    )


def make_inputs(workload: str, seed: int) -> list:
    if workload == "plan_chain":
        return wl.chain_inputs(seed, POOL[workload])
    if workload == "plan_fixtures":
        return wl.fixture_inputs(ROOT)  # the same for every seed
    if workload == "sort_segmented":
        return [wl.segmented_plan(seed, i) for i in range(POOL[workload])]
    return [None] * POOL[workload]


# --- operations -------------------------------------------------------------------


@dataclasses.dataclass
class PlanOut:
    text: str
    optimized: object
    refined: object
    index: object
    query: object


def _refine_and_emit(p, tr, catalog, params, query, plan) -> PlanOut:
    with tr.span("favorable_orders.index"):
        index = p.fo.index_for_query(query, catalog)
        index.orders_for(query.root)
    with tr.span("order_refinement.refine_plan"):
        refined = p.refine.refine_plan(plan, query, catalog, params, index)
    with tr.span("optimizer.plan_document"):
        doc = p.opt.plan_document(refined, catalog, params, query)
    with tr.span("json.codec"):
        text = json.dumps(doc, sort_keys=True)
    return PlanOut(text, plan, refined, index, query)


def plan_op(p, tr, inp, round_trip: bool) -> list[PlanOut]:
    """`ordopt optimize --refine --json`, then for fixtures `refine --plan --json`
    on its output; the favorable-order pass is forced once before refinement."""
    catalog_text, query_text, params_text = inp
    with tr.span("catalog_stats.load_catalog"):
        catalog = p.cs.load_catalog(catalog_text)
    with tr.span("cost_model.load_params"):
        params = p.cm.load_params(params_text) if params_text is not None else p.cm.CostParams()
    with tr.span("logical_expr.parse_query"):
        query = p.lx.parse_query(query_text, catalog)
    with tr.span("optimizer.optimize_query"):
        plan = p.opt.optimize_query(catalog, params, query)
    outs = [_refine_and_emit(p, tr, catalog, params, query, plan)]
    if round_trip:
        with tr.span("json.codec"):
            doc = json.loads(outs[0].text)
        with tr.span("optimizer.load_plan_document"):
            catalog, params, query, plan = p.opt.load_plan_document(doc)
        outs.append(_refine_and_emit(p, tr, catalog, params, query, plan))
    return outs


@dataclasses.dataclass
class SortOut:
    first_s: float
    total_s: float
    metrics: object
    rows: int
    checksum: int
    unsorted: int
    source: list  # [rows, checksum] of the input, filled when it is exhausted


def _sort_setup(p, seed: int, index: int, sizes, sink: list):
    """`ordopt sort --algo mrs --keys 3 --prefix-len 1`: 64 blocks of 4 KiB."""
    cfg = p.cs.BlockConfig(block_bytes=wl.BLOCK_BYTES, memory_blocks=wl.SORT_BLOCKS)
    spec = p.extsort.SortSpec(target_order_len=3, known_prefix_len=1, cfg=cfg)
    records = wl.segmented_records(p.extsort.Record, seed, index, sizes, sink)
    return p.extsort.sort_mrs, records, spec


def sort_op(p, tr, workload: str, seed: int, index: int, sizes) -> SortOut:
    """`ordopt sort`: pull a lazily generated input through the sort and drain
    the output, checking order and a key checksum as it streams."""
    sink: list = []
    runner, records, spec = _sort_setup(p, seed, index, sizes, sink)
    t0 = CLOCK()
    with tr.span("extsort.first_out"):
        out, met = runner(records, spec)
        it = iter(out)
        first = next(it)
    t1 = CLOCK()
    with tr.span("extsort.drain"):
        prev = first.keys
        checksum = prev[1] ^ prev[2]
        rows = 1
        unsorted = 0
        for rec in it:
            keys = rec.keys
            if keys < prev:
                unsorted += 1
            checksum += keys[1] ^ keys[2]
            prev = keys
            rows += 1
    t2 = CLOCK()
    return SortOut(t1 - t0, t2 - t0, met, rows, checksum, unsorted, sink)


# --- correctness gate -----------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def plan_record(outs: list[PlanOut]) -> list:
    rec = []
    for o in outs:
        rec += [digest(o.text), o.refined.total_cost]
    return rec


def sort_record(out: SortOut) -> list:
    return [getattr(out.metrics, name) for name in COUNTERS]


def check_plan(outs: list[PlanOut]) -> list[str]:
    errors = []
    for o in outs:
        before, after = o.optimized.total_cost, o.refined.total_cost
        if not (math.isfinite(after) and after > 0):
            errors.append(f"plan cost {after!r} is not finite and positive")
        if after > before:
            errors.append(f"refinement raised the cost from {before!r} to {after!r}")
    return errors


def check_sort(out: SortOut, sizes) -> list[str]:
    errors = []
    rows, checksum = out.source
    if out.rows != rows or out.checksum != checksum:
        errors.append(f"output has {out.rows} rows, checksum {out.checksum}; input {rows}, {checksum}")
    if out.unsorted:
        errors.append(f"{out.unsorted} output rows out of order")
    seen = out.metrics.tuples_in_before_first_out
    if seen != sizes[0]:
        errors.append(f"first output after {seen} input rows, not after the first segment ({sizes[0]})")
    return errors


class Gate:
    """Checks every result against the recorded expectation for its input,
    or, for a seed with none recorded, against the first result of the run."""

    def __init__(self, workload: str, seed: int):
        expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
        by_seed = expected.get(workload, {})
        self.recorded = by_seed.get("*", by_seed.get(str(seed)))
        self.seen: dict[int, list] = {}
        self.errors: list[str] = []
        self.failed = 0

    def check(self, index: int, record: list, errors: list[str]) -> bool:
        want = None
        if self.recorded is not None:
            want = self.recorded[index]
        elif index in self.seen:
            want = self.seen[index]
        self.seen.setdefault(index, record)
        if want is not None and record != want:
            errors = errors + [f"result {record} differs from expected {want}"]
        if errors:
            self.failed += 1
            self.errors += [f"input {index}: {e}" for e in errors]
        return not errors


# --- measurement ----------------------------------------------------------------


def execute(p, tr, workload: str, seed: int, index: int, inp):
    """One operation: (seconds, first-output seconds, result, record, errors)."""
    if workload.startswith("plan_"):
        t0 = CLOCK()
        with tr.span("bench.op"):
            outs = plan_op(p, tr, inp, workload == "plan_fixtures")
        dt = CLOCK() - t0
        return dt, dt, outs, plan_record(outs), check_plan(outs)
    with tr.span("bench.op"):
        out = sort_op(p, tr, workload, seed, index, inp)
    return out.total_s, out.first_s, out, sort_record(out), check_sort(out, inp)


class Runner:
    """Runs checked operations and times the host-speed probe between them."""

    def __init__(self, workload: str, seed: int, program, inputs: list):
        self.workload = workload
        self.seed = seed
        self.p = program
        self.inputs = inputs
        self.gate = Gate(workload, seed)
        self.attempted = 0
        self.plan_kind = workload.startswith("plan_")
        self.probes: list[float] = []  # probe durations
        self.probed: list[float] = []  # their start times
        self._probed_at = -math.inf

    def probe(self) -> None:
        """Probe once for every PROBE_EVERY_S since the last probe (at least
        once, at most 5 times), so probes cover a fixed share of the run."""
        due = (CLOCK() - self._probed_at) / probe.PROBE_EVERY_S
        for _ in range(int(max(1, min(due, 5)))):
            self.probed.append(CLOCK())
            self.probes.append(probe.seconds())
        self._probed_at = CLOCK()

    def scale(self, window: tuple[float, float]) -> float:
        """Factor for an operation that ran during `window`: REF_S over the
        mean probe that started within PROBE_EVERY_S of either end, and at
        least the last probe before it and the first after it."""
        start, end = window
        last_before = bisect.bisect_right(self.probed, start) - 1
        first_after = bisect.bisect_right(self.probed, end)
        lo = min(bisect.bisect_left(self.probed, start - probe.PROBE_EVERY_S), max(last_before, 0))
        hi = max(bisect.bisect_right(self.probed, end + probe.PROBE_EVERY_S), first_after + 1)
        return probe.REF_S / statistics.fmean(self.probes[lo:hi])

    def schedule(self, seconds: float, at_least: int):
        """Input indices, cycling through the pool, until the time is up and
        at least `at_least` were given.  Ends with a probe, so every
        operation has one on each side."""
        deadline = CLOCK() + seconds
        i = 0
        while i < at_least or CLOCK() < deadline:
            yield i % len(self.inputs)
            i += 1
        self.probe()

    def run_one(self, index: int, tr) -> tuple[float, float, object, tuple] | None:
        """One checked operation: (seconds, first-output seconds, result,
        (start, end) on the clock), or None if it raised or failed."""
        if CLOCK() - self._probed_at >= probe.PROBE_EVERY_S:
            self.probe()
        self.attempted += 1
        tr.op = self.attempted
        try:
            t0 = CLOCK()
            secs, first, result, record, errors = execute(
                self.p, tr, self.workload, self.seed, index, self.inputs[index]
            )
            window = (t0, CLOCK())
        except Exception:  # a failing operation is counted, the run goes on
            self.gate.failed += 1
            self.gate.errors.append(f"input {index}: raised\n{traceback.format_exc()}")
            return None
        if not self.gate.check(index, record, errors):
            return None
        return secs, first, result, window


def run_untraced(r: Runner, seconds: float) -> dict:
    r.run_one(0, NullTracer())  # warm-up: first-call costs are not a user's steady state
    # Flat arrays keep the benchmark's own memory small next to peak_rss_mib.
    secs, firsts, starts, ends = (array.array("d") for _ in range(4))
    rows = 0
    for index in r.schedule(seconds, at_least=2):  # a tail needs two samples
        got = r.run_one(index, NullTracer())
        if got is not None:
            secs.append(got[0])
            firsts.append(got[1])
            starts.append(got[3][0])
            ends.append(got[3][1])
            rows += 0 if r.plan_kind else got[2].rows
    if len(secs) < 2:
        return {}
    scales = [r.scale(window) for window in zip(starts, ends)]
    times = [t * f for t, f in zip(secs, scales)]
    values = {
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_tail": (statistics.quantiles(times, n=100, method="inclusive")[TAIL_PCT[r.workload] - 1] * 1e3, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "first_out_ms_p50": (statistics.median(t * f for t, f in zip(firsts, scales)) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "_samples": len(times),
        "_raw_op_ms_p50": statistics.median(secs) * 1e3,
    }
    if rows:
        values["_tuples_per_s"] = rows / sum(times)
    return values


def _plan_counts(p, results: list[list[PlanOut]]) -> dict:
    """Favorable-set sizes, plan size and refinement effect per emitted plan,
    read through the public API after the timed calls.  All 0 for no plans."""
    max_set = members = over = nodes = changed = 0
    benefit = 0.0
    outs = [o for group in results for o in group]
    for o in outs:
        sizes = [len(o.index.orders_for(e)) for e in p.lx.preorder(o.query.root)]
        max_set = max(max_set, *sizes)
        members += sum(sizes)
        over += sum(1 for s in sizes if s > p.fo.SET_SIZE_FLAG)
        nodes += sum(1 for _ in o.refined.walk())
        changed += o.refined != o.optimized
        benefit += (o.optimized.total_cost - o.refined.total_cost) / o.optimized.total_cost
    n = max(len(outs), 1)
    return {
        "favorable_orders.max_set": (max_set, "count"),
        "favorable_orders.members": (members / n, "count"),
        "favorable_orders.sets_over_flag": (over / n, "count"),
        "optimizer.plan_nodes": (nodes / n, "count"),
        "order_refinement.changed_share": (changed / n, "ratio"),
        "order_refinement.benefit_delta": (benefit / n, "ratio"),
    }


def _sort_counts(results: list[SortOut], inputs: list) -> dict:
    """SortMetrics counters per sort, and the share of segments larger than
    the sort memory.  All 0 for no sorts."""
    n = max(len(results), 1)
    out = {
        f"extsort.{name}": (sum(getattr(r.metrics, name) for r in results) / n, "count")
        for name in COUNTERS
    }
    memory = wl.SORT_BLOCKS * wl.BLOCK_BYTES
    segs = [s for sizes in inputs for s in sizes] if results else []
    spilled = sum(1 for s in segs if s * wl.TUPLE_BYTES > memory)
    out["extsort.spilled_segment_share"] = (spilled / max(len(segs), 1), "ratio")
    return out


def gen_seconds(r: Runner, count: int) -> float:
    """Scaled time to make one sort input alone, without sorting it."""
    total = 0.0
    for index in range(count):
        r.probe()
        t0 = CLOCK()
        for _ in _sort_setup(r.p, r.seed, index, r.inputs[index], [])[1]:
            pass
        window = (t0, CLOCK())
        r.probe()
        total += (window[1] - window[0]) * r.scale(window)
    return total / count


def traced_peak_mib(r: Runner) -> float:
    """Peak traced allocation of one sort; tracemalloc slows it ~10x, so this
    pass gives no timing."""
    tracemalloc.start()
    try:
        sort_op(r.p, NullTracer(), r.workload, r.seed, 0, r.inputs[0])
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


SPANS = (
    "catalog_stats.load_catalog",
    "cost_model.load_params",
    "logical_expr.parse_query",
    "optimizer.optimize_query",
    "favorable_orders.index",
    "order_refinement.refine_plan",
    "optimizer.plan_document",
    "optimizer.load_plan_document",
    "json.codec",
    "extsort.first_out",
    "extsort.drain",
)


def run_traced(r: Runner, seconds: float, tracer: Tracer) -> dict:
    """Traced and untraced operations alternate on each input, so the gap
    between their medians is the tracing overhead."""
    r.run_one(0, NullTracer())
    traced, plain, counted, op_window = [], [], {}, {}
    comparisons = 0
    need = COUNTED[r.workload]
    for i, index in enumerate(r.schedule(seconds, need)):
        for tr in (tracer, NullTracer()) if i % 2 else (NullTracer(), tracer):
            got = r.run_one(index, tr)
            if got is None:
                continue
            secs, _, result, window = got
            if tr is not tracer:
                plain.append((secs, window))
                continue
            traced.append((secs, window))
            op_window[r.attempted] = window
            comparisons += 0 if r.plan_kind else result.metrics.comparisons
            if index < need:
                counted.setdefault(index, result)
    if not traced or not plain or len(counted) < need:
        return {}
    n = len(traced)
    self_s = tracer.self_times(lambda op: r.scale(op_window[op]))
    m = {f"{name}_s": (self_s.get(name, 0.0) / n, "s") for name in SPANS}
    results = [counted[k] for k in range(need)]
    m |= _plan_counts(r.p, results if r.plan_kind else [])
    m |= _sort_counts([] if r.plan_kind else results, r.inputs[:need])
    sort_s = self_s.get("extsort.first_out", 0.0) + self_s.get("extsort.drain", 0.0)
    m["extsort.comparisons_per_s"] = (comparisons / sort_s if sort_s else 0.0, "1/s")
    m["bench.gen_s"] = (0.0 if r.plan_kind else gen_seconds(r, need), "s")
    m["extsort.traced_peak_mib"] = (0.0 if r.plan_kind else traced_peak_mib(r), "MiB")
    med = lambda ops: statistics.median(secs * r.scale(w) for secs, w in ops)  # noqa: E731
    m["bench.trace_overhead_ms"] = ((med(traced) - med(plain)) * 1e3, "ms")
    m["bench.probe_ms"] = (statistics.median(r.probes) * 1e3, "ms")
    m["_samples"] = n
    return m


# --- reporting ------------------------------------------------------------------


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout; src_digest still names the code


def environment(workload: str, seed: int, trace: int, samples: int, gate: Gate) -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "ordopt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    clock = time.get_clock_info("perf_counter")
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "clock": f"time.perf_counter ({clock.implementation}, resolution {clock.resolution:g} s)",
        "commit": _commit(),
        "src_digest": h.hexdigest()[:16],
        "samples": samples,
        "tail_percentile": TAIL_PCT[workload],
        "expected_results": "recorded" if gate.recorded is not None else "first result of this run",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        load_program()
        spec = json.loads(BENCHMARK_JSON.read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up the program under test: {exc}", file=sys.stderr)
        return 2

    setup = []
    host = lambda: statistics.fmean(probe.seconds() for _ in range(3))  # noqa: E731
    before = host()
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK()
        program = load_program()
        inputs = make_inputs(args.workload, args.seed)
        secs = CLOCK() - t0
        after = host()
        setup.append(secs * probe.REF_S / ((before + after) / 2))
        before = after
    r = Runner(args.workload, args.seed, program, inputs)
    tracer = Tracer()
    if args.trace:
        values = run_traced(r, args.seconds, tracer)
    else:
        values = run_untraced(r, args.seconds)
        values["setup_s"] = (statistics.median(setup), "s")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    failed = r.gate.failed
    complete = all(name in values for name in names)
    metrics = {n: {"value": values[n][0], "unit": values[n][1]} for n in names if n in values}

    for err in r.gate.errors[:5]:
        print(f"perfbench: {err}", file=sys.stderr)
    env = environment(args.workload, args.seed, args.trace, values.get("_samples", 0), r.gate)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{r.attempted} operations, {failed} failed, fail_ratio={failed / max(r.attempted, 1):g}; "
          f"times scaled to a {probe.REF_S * 1e3:g} ms probe (median probe here "
          f"{statistics.median(r.probes) * 1e3:.3g} ms)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "_raw_op_ms_p50" in values:
        print(f"  unscaled op_ms_p50 = {values['_raw_op_ms_p50']:.6g} ms (not in BENCHMARK.json)")
    if values.get("_tuples_per_s"):
        print(f"  sort_tuples_per_s = {values['_tuples_per_s']:.6g} 1/s (not in BENCHMARK.json)")
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"environment": env, "spans": tracer.as_records()})
        )
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": r.attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
