"""Command-line surface: optimize, refine, explain-afm, sort, bench.

Exit codes: 0 success, 1 validation/usage errors, 2 guard violations, 141
when the reader of stdout stops early (`| head`), as for a writer killed by
SIGPIPE.
All randomness is seed-driven; identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from . import catalog_stats as cs
from . import cost_model as cm
from . import extsort
from . import favorable_orders as fo
from . import logical_expr as lx
from . import optimizer as opt
from . import order_refinement as refine
from .errors import ConfigError, OrdoptError, ParseError, TooLarge, ValidationError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:  # missing, a directory, unreadable
        raise ParseError(f"{path}: {exc.strerror}") from None


def _load_common(args):
    catalog = cs.load_catalog(_read(args.catalog))
    params = cm.load_params(_read(args.params)) if args.params else cm.CostParams()
    query = lx.parse_query(_read(args.query), catalog)
    return catalog, params, query


def _emit_plan(planner, plan, as_json: bool) -> None:
    if as_json:
        doc = opt.plan_document(plan, planner.catalog, planner.params, planner.query)
        print(json.dumps(doc, sort_keys=True))
    else:
        print(opt.format_plan(plan))


def _cmd_optimize(args) -> int:
    planner = opt.Optimizer(*_load_common(args), heuristic=args.heuristic)
    plan = planner.optimize()
    if args.refine:
        plan = refine.refine_with(planner, plan)
    _emit_plan(planner, plan, args.json)
    return 0


def _cmd_refine(args) -> int:
    planner, plan = opt.read_plan_document(_read(args.plan))
    _emit_plan(planner, refine.refine_with(planner, plan), args.json)
    return 0


def _cmd_explain_afm(args) -> int:
    catalog, params, query = _load_common(args)
    index = fo.index_for_query(query, catalog)

    def label(e) -> str:
        if isinstance(e, lx.Scan):
            return f"scan {e.relation}"
        if isinstance(e, lx.Select):
            return f"select selectivity={e.selectivity:g}"
        if isinstance(e, lx.Project):
            return "project {" + ",".join(sorted(e.cols)) + "}"
        if isinstance(e, lx.Join):
            kind = "full_outer_join" if e.full_outer else "join"
            return kind + " {" + ",".join(sorted(e.join_attrs)) + "}"
        return "group_by {" + ",".join(sorted(e.keys)) + "}"

    stack = [(query.root, 0)]
    while stack:  # preorder, with no frame per level
        e, depth = stack.pop()
        pad = "  " * depth
        print(pad + label(e))
        orders = sorted(index.orders_for(e))
        if not orders:
            print(pad + "  (no favorable orders)")
        for o in orders:
            print(pad + "  " + ",".join(o))
        stack += ((c, depth + 1) for c in reversed(lx.children(e)))
    return 0


#: The least value of each sort flag; `bench a3` has no --segment-rows.
_SORT_FLAG_MINIMA = (
    ("rows", 0), ("segment_rows", 1), ("keys", 1), ("payload", 1), ("mem_blocks", 2), ("block_bytes", 1)
)


def _check_sort_flags(args, mrs: bool) -> None:
    """Reject sort flag values that describe no sort, by flag name; `srs`
    ignores --prefix-len."""
    for name, least in _SORT_FLAG_MINIMA:
        if getattr(args, name, least) < least:
            raise ValidationError(f"--{name.replace('_', '-')} must be >= {least}")
    if mrs and not 0 <= args.prefix_len < args.keys:
        raise ValidationError("--prefix-len must be in [0, --keys)")


def _run_sort(args, algo: str, segment_rows: int):
    stream = extsort.gen_segmented_input(args.rows, segment_rows, args.keys, args.payload, args.seed)
    spec = extsort.SortSpec(
        target_order_len=args.keys,
        known_prefix_len=args.prefix_len if algo == "mrs" else 0,
        cfg=cs.BlockConfig(block_bytes=args.block_bytes, memory_blocks=args.mem_blocks),
        file_backed=getattr(args, "file_backed", False),  # bench a3 has no --file-backed
    )
    runner = extsort.sort_mrs if algo == "mrs" else extsort.sort_srs
    try:
        out, met = runner(stream, spec)
        for _ in out:
            pass
    except ConfigError as exc:  # raised only once a sort spills: too few blocks to merge
        raise ConfigError(f"--mem-blocks: {exc}") from None
    return met


def _cmd_sort(args) -> int:
    _check_sort_flags(args, mrs=args.algo == "mrs")
    met = _run_sort(args, args.algo, args.segment_rows)
    body = dataclasses.asdict(met)
    if args.json:
        print(json.dumps(body, sort_keys=True))
    else:
        for key in sorted(body):
            print(f"{key}={body[key]}")
    return 0


def _cmd_bench_a3(args) -> int:
    if args.rows < 1:
        raise ValidationError("--rows must be >= 1")
    _check_sort_flags(args, mrs=True)
    size = 1
    sizes = []
    while size < args.rows:
        sizes.append(size)
        size *= 10
    sizes.append(args.rows)
    table = []
    for segment_rows in sizes:
        for algo in ("srs", "mrs"):
            met = _run_sort(args, algo, segment_rows)
            table.append(
                [segment_rows, algo, met.run_blocks_written, met.run_blocks_read,
                 met.comparisons, met.tuples_in_before_first_out, met.runs_generated]
            )
    # written only once every sort has run, so a sort that fails leaves no
    # half-written CSV behind
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["segment_rows", "algo", "run_blocks_written", "run_blocks_read",
         "comparisons", "tuples_in_before_first_out", "runs_generated"]
    )
    writer.writerows(table)
    return 0


def _cmd_bench_b3(args) -> int:
    catalog, params, query = _load_common(args)
    index = fo.index_for_query(query, catalog)
    planners = {h: opt.Optimizer(catalog, params, query, h, order_source=index) for h in opt.HEURISTICS}
    plans = {h: planner.optimize() for h, planner in planners.items()}
    costs = {h: plan.total_cost for h, plan in plans.items()}
    costs["favorable+refine"] = refine.refine_with(planners["favorable"], plans["favorable"]).total_cost
    base = costs["exhaustive"]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["heuristic", "plan_cost", "normalized_to_exhaustive_100"])
    for heuristic in (*opt.HEURISTICS, "favorable+refine"):
        norm = 100.0 * costs[heuristic] / base if base else 0.0
        writer.writerow([heuristic, f"{costs[heuristic]:.6f}", f"{norm:.3f}"])
    return 0


def _add_sort_flags(p: _Parser, **rows) -> None:
    """The flags `sort` and `bench a3` share; `rows` sets --rows's default or requires it."""
    p.add_argument("--rows", type=int, **rows)
    p.add_argument("--keys", type=int, default=2)
    p.add_argument("--payload", type=int, default=200)
    p.add_argument("--mem-blocks", type=int, default=64)
    p.add_argument("--block-bytes", type=int, default=4096)
    p.add_argument("--prefix-len", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)


def _add_query_flags(p: _Parser) -> None:
    p.add_argument("--catalog", required=True, help="catalog JSON file")
    p.add_argument("--query", required=True, help="query JSON file")
    p.add_argument("--params", help="optional cost_params JSON file")


def build_parser() -> _Parser:
    parser = _Parser(prog="ordopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("optimize", help="optimize a query and print the plan")
    _add_query_flags(p)
    p.add_argument("--heuristic", choices=opt.HEURISTICS, default="favorable")
    p.add_argument("--refine", action="store_true", help="apply post-optimization order refinement")
    p.add_argument("--json", action="store_true", help="emit a machine-readable plan document")
    p.set_defaults(run=_cmd_optimize)

    p = sub.add_parser("refine", help="refine a previously emitted plan document")
    p.add_argument("--plan", required=True, help="plan JSON produced by optimize --json")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_refine)

    p = sub.add_parser("explain-afm", help="print favorable orders of every query node")
    _add_query_flags(p)
    p.set_defaults(run=_cmd_explain_afm)

    p = sub.add_parser("sort", help="run the simulated external sort")
    _add_sort_flags(p, required=True)
    p.add_argument("--segment-rows", type=int, default=1)
    p.add_argument("--algo", choices=("srs", "mrs"), required=True)
    p.add_argument("--file-backed", action="store_true",
                   help="spill runs to real temp files instead of simulating")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_sort)

    p = sub.add_parser("bench", help="benchmark sweeps")
    bench_sub = p.add_subparsers(dest="bench_command", required=True, parser_class=_Parser)

    a3 = bench_sub.add_parser("a3", help="segment-size sweep of srs vs mrs (CSV)")
    _add_sort_flags(a3, default=100000)
    a3.set_defaults(run=_cmd_bench_a3)

    b3 = bench_sub.add_parser("b3", help="plan cost per heuristic for one query (CSV)")
    _add_query_flags(b3)
    b3.set_defaults(run=_cmd_bench_b3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except BrokenPipeError:
        # The reader stopped early: not an error.  Output still buffered goes
        # to devnull, so the flush at exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except TooLarge as exc:
        print(f"ordopt: guard violation: {exc}", file=sys.stderr)
        return 2
    except (OrdoptError, OSError) as exc:
        print(f"ordopt: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
