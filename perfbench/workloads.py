"""Seeded inputs for the benchmark workloads.

Everything here is plain data made from a seed: catalog, query and cost
parameter documents as JSON text for the plan workloads, and record streams
for the sort workload.  Only the record type comes from the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

#: Attribute names shared by every synthetic relation; equal names join.
ATTRS = tuple(f"a{i:02d}" for i in range(12))

#: One plan_chain cycle as (join count, bushy) per query.  80% of queries
#: have 8 joins and 15% are 64-join left-deep chains, so the median lies well
#: inside the 8-join class and p90 inside the 64-join class.  Chains make
#: refinement take its exact path algorithm, bushy trees its tree
#: approximation.
CHAIN_CYCLE = ((8, False),) * 8 + ((8, True),) * 8 + ((24, True),) + ((64, False),) * 3

#: The fixture pairs the CLI tests use: (catalog, query).
FIXTURE_PAIRS = (
    ("example1_catalog.json", "example1_query.json"),
    ("postopt_catalog.json", "postopt_query.json"),
    ("q4_catalog.json", "q4_query.json"),
    ("q5_catalog.json", "q5_query.json"),
    ("tpch_catalog.json", "q2_query.json"),
    ("tpch_catalog.json", "q3_query.json"),
)

#: Sort memory of `ordopt sort`: 64 blocks of 4 KiB; fan-in is 63.
SORT_BLOCKS = 64
BLOCK_BYTES = 4096
TUPLE_BYTES = 200
#: sort_segmented: 19 segments that fit in memory and one that is 4-5x it.
SEG_FIT = (500, 600)
SEG_BIG = (5000, 7000)
SEG_COUNT = 20
KEY_SPACE = 2**31


def _relation(rng: random.Random, name: str, must_share: str | None) -> dict:
    cols = set(rng.sample(ATTRS, rng.randint(3, 5)))
    if must_share is not None:
        cols.add(must_share)
    cols = sorted(cols)
    rows = rng.choice((2000, 10000, 50000))
    distincts = {c: rows // rng.choice((1, 1, 2, 4)) for c in cols}
    clustering = rng.sample(cols, rng.randint(1, 2)) if rng.random() < 0.6 else []
    return {
        "name": name,
        "row_count": rows,
        "tuple_bytes": 16 * len(cols),
        "columns": cols,
        "clustering_order": clustering,
        "distincts": distincts,
    }


def _join(rng: random.Random, left, right, lcols: set, rcols: set) -> dict:
    common = sorted(lcols & rcols)
    attrs = rng.sample(common, min(len(common), rng.randint(1, 3)))
    return {"op": "join", "left": left, "right": right, "join_attrs": sorted(attrs), "full_outer": False}


def _leaf(rng: random.Random, rel: dict) -> dict:
    node = {"op": "scan", "relation": rel["name"]}
    if rng.random() < 0.2:
        touched = rng.sample(rel["columns"], 1)
        node = {"op": "select", "input": node, "selectivity": rng.choice((0.1, 0.5)), "touched": touched}
    return node


def _tree(rng: random.Random, rels: list[dict], lo: int, hi: int, bushy: bool):
    """Join tree over rels[lo:hi]; returns (node, schema)."""
    if hi - lo == 1:
        return _leaf(rng, rels[lo]), set(rels[lo]["columns"])
    split = rng.randint(lo + 1, hi - 1) if bushy else hi - 1
    left, lcols = _tree(rng, rels, lo, split, bushy)
    right, rcols = _tree(rng, rels, split, hi, bushy)
    return _join(rng, left, right, lcols, rcols), lcols | rcols


def chain_instance(rng: random.Random, joins: int, bushy: bool) -> tuple[str, str, str]:
    """(catalog, query, params) JSON text for one query of `joins` joins.

    Neighbouring relations share a column, so every split of the relation
    list has a join attribute.  Every column's distinct count is at least a
    quarter of its row count, which keeps join estimates and costs finite.
    """
    rels = []
    for i in range(joins + 1):
        share = None if not rels else rng.choice(rels[-1]["columns"])
        rels.append(_relation(rng, f"r{i:02d}", share))
    indices = []
    for rel in rels:
        if rng.random() < 0.3:
            key = rng.sample(rel["columns"], rng.randint(1, 2))
            included = [c for c in rel["columns"] if c not in key]
            indices.append({"relation": rel["name"], "key_order": key, "included_columns": included, "kind": "secondary"})
    expr, schema = _tree(rng, rels, 0, len(rels), bushy)
    out_cols = sorted(schema)
    if rng.random() < 0.3:
        keys = rng.sample(out_cols, rng.randint(1, 3))
        expr = {"op": "group_by", "input": expr, "keys": sorted(keys), "agg_width_bytes": 8}
        out_cols = sorted(keys)
    order_by = rng.sample(out_cols, min(len(out_cols), rng.randint(1, 3))) if rng.random() < 0.4 else []
    params = {"cost_params": {"block_bytes": 4096, "memory_blocks": rng.choice((16, 64, 256))}}
    return (
        json.dumps({"relations": rels, "indices": indices}),
        json.dumps({"expr": expr, "order_by": order_by}),
        json.dumps(params),
    )


def chain_inputs(seed: int, count: int) -> list[tuple[str, str, str]]:
    """`count` distinct plan_chain queries: whole cycles, each shuffled."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        cycle = list(CHAIN_CYCLE)
        rng.shuffle(cycle)
        out.extend(chain_instance(rng, joins, bushy) for joins, bushy in cycle)
    return out[:count]


def fixture_inputs(root: Path) -> list[tuple[str, str, None]]:
    """The shipped fixture pairs as text; the CLI runs them without --params."""
    fixtures = root / "fixtures"
    return [
        ((fixtures / cat).read_text(encoding="utf-8"), (fixtures / query).read_text(encoding="utf-8"), None)
        for cat, query in FIXTURE_PAIRS
    ]


def segmented_plan(seed: int, index: int) -> list[int]:
    """Segment sizes of one sort_segmented input, in arrival order."""
    rng = random.Random(f"segmented/{seed}/{index}")
    sizes = [rng.randint(*SEG_FIT) for _ in range(SEG_COUNT - 1)] + [rng.randint(*SEG_BIG)]
    rng.shuffle(sizes)
    return sizes


def segmented_records(record, seed: int, index: int, sizes: list[int], sink: list):
    """Records sorted on the first key, in segments of the given sizes.

    `sink` gets [rows, key checksum] once the stream is exhausted, so the
    output can be checked against the input without keeping it.
    """
    rng = random.Random(f"segmented-keys/{seed}/{index}")
    draw = rng.randrange
    total = 0
    rows = 0
    for seg, size in enumerate(sizes):
        for _ in range(size):
            b = draw(KEY_SPACE)
            c = draw(KEY_SPACE)
            total += b ^ c
            rows += 1
            yield record((seg, b, c), TUPLE_BYTES)
    sink[:] = [rows, total]
