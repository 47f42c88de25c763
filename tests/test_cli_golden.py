"""Exact CLI output bytes, pinned by sha256.

The plan commands must print the same bytes whatever the loaders do
internally: plan documents read back by `refine --plan` are re-costed, and
the re-costed plan must print exactly as the optimizer's own plan did.
"""

import hashlib
import json
import random

import pytest

from ordopt import catalog_stats as cs
from ordopt import cost_model as cm
from ordopt import logical_expr as lx
from ordopt.cli import main

from conftest import fixture_path, random_chain_query

FIXTURE_PAIRS = {
    "example1": ("example1_catalog.json", "example1_query.json"),
    "postopt": ("postopt_catalog.json", "postopt_query.json"),
    "q2": ("tpch_catalog.json", "q2_query.json"),
    "q3": ("tpch_catalog.json", "q3_query.json"),
    "q4": ("q4_catalog.json", "q4_query.json"),
    "q5": ("q5_catalog.json", "q5_query.json"),
}

# name -> sha256 of (optimize --refine --json, optimize, refine --plan --json)
FIXTURE_DIGESTS = {
    "example1": (
        "a9722e7be3f11a3075fdcdfc508dfc804c74a81166c6da812b7bc43c94893a95",
        "f68986a289f141e1b9d87685ae35294e243143ac072bfc2acccac35b48902bcb",
        "a9722e7be3f11a3075fdcdfc508dfc804c74a81166c6da812b7bc43c94893a95",
    ),
    "postopt": (
        "770a73f092b31acc15413270d3166bf74c76a5257bff145f8be134e80ba49511",
        "fd7eb1efc3ce1a792c439fa0acd4a5b007329dd8f0e3f209986ef8718f0d81ca",
        "770a73f092b31acc15413270d3166bf74c76a5257bff145f8be134e80ba49511",
    ),
    "q2": (
        "9af0044c38ea938eca7b1dfa2fbeca5c144082ca2440bf92dd478f3ac88e4a25",
        "afacec185dba244461052b9a7e30f67e439f4be367c32b9b6322e07f062b590d",
        "9af0044c38ea938eca7b1dfa2fbeca5c144082ca2440bf92dd478f3ac88e4a25",
    ),
    "q3": (
        "03e6181880e5f772e039a4303543141cc34980c4083d7c1cc52ab36e58cba342",
        "7f0dd60b1a57f30af3cfc447cbcfa67cc151061e525220e218dbd60d49c3f8d2",
        "03e6181880e5f772e039a4303543141cc34980c4083d7c1cc52ab36e58cba342",
    ),
    "q4": (
        "08551513d814d78ca05a124b0039ab33251938c55e0158b1c684b04c2a6fadee",
        "bfa2fb5a8ac68ca1eaff39372ef3fee891e3ced0f0e8aa93fbb2d93b3751a79a",
        "08551513d814d78ca05a124b0039ab33251938c55e0158b1c684b04c2a6fadee",
    ),
    "q5": (
        "941a7efd09ffd769db45249e52f2c7caf8c4b91d88af881c13e91753713fc820",
        "4c75062af949c07fedfb72ff89653bd47e70fce8084bead95668a8ad8a8e84b9",
        "941a7efd09ffd769db45249e52f2c7caf8c4b91d88af881c13e91753713fc820",
    ),
}

#: (catalog1 join catalog2) join (catalog1 join catalog2) over the example1
#: catalog: equal subtrees share one expr_id and one memo entry per goal.
SELF_JOIN_HALF = {
    "op": "join",
    "left": {"op": "scan", "relation": "catalog1"},
    "right": {"op": "scan", "relation": "catalog2"},
    "join_attrs": ["make", "year"],
}
SELF_JOIN_QUERY = {
    "expr": {"op": "join", "left": SELF_JOIN_HALF, "right": SELF_JOIN_HALF, "join_attrs": ["make", "year", "city"]},
    "order_by": ["year"],
}
SELF_JOIN_DIGESTS = (
    "4b0263dbc21101fb2341c40300319afe19ff5dbe9d7b9132cd46d5bf8af40778",
    "37f44d3434e3fb1d988b201a03181f8c91e484e96b59f209887018ed0f9a61e7",
    "4b0263dbc21101fb2341c40300319afe19ff5dbe9d7b9132cd46d5bf8af40778",
)

# random_chain_query seed (seed 5 draws no chain) -> sha256 of optimize --refine --json (with --params)
CHAIN_DIGESTS = {
    1: "959034b09d9b85c4b96712421751a6db7a1d60995e08bbd4cfb1270da5b5f418",
    2: "ea54264158f87815389e0335997ce4c83724c202e20284b03759bab772a429fc",
    3: "781427c3ddb56a10857abb70c54ba3dbb6e5e6b39e49c7c35b8e03ceb718278c",
    4: "2ef428b74488293a8ac3d768e87d55b4b72f2e654be99e4f8aa3e7dd69d0c554",
    6: "a2a7aff65e5f25848db980756615b684014e5c8a2b84de802fd83b3cabb8c549",
}


def _digest(capsys, *argv) -> tuple[str, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out, hashlib.sha256(out.encode()).hexdigest()


def _plan_digests(capsys, tmp_path, cat, qry) -> tuple[str, tuple[str, str, str]]:
    """The plan JSON of `optimize --refine --json`, and the digests of it, of
    plain `optimize` and of `refine --plan --json` on it."""
    plan_json, refined = _digest(capsys, "optimize", "--catalog", cat, "--query", qry, "--refine", "--json")
    _, plain = _digest(capsys, "optimize", "--catalog", cat, "--query", qry)
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan_json)
    _, again = _digest(capsys, "refine", "--plan", str(plan_file), "--json")
    return plan_json, (refined, plain, again)


@pytest.mark.parametrize("name", sorted(FIXTURE_PAIRS))
def test_fixture_cli_bytes(name, capsys, tmp_path):
    cat, qry = (str(fixture_path(f)) for f in FIXTURE_PAIRS[name])
    assert _plan_digests(capsys, tmp_path, cat, qry)[1] == FIXTURE_DIGESTS[name]


def test_self_join_cli_bytes(capsys, tmp_path):
    qry = tmp_path / "query.json"
    qry.write_text(json.dumps(SELF_JOIN_QUERY))
    plan_json, digests = _plan_digests(capsys, tmp_path, str(fixture_path("example1_catalog.json")), str(qry))
    left, right = json.loads(plan_json)["plan"]["children"]
    assert left == right and left["expr_id"] == 1
    assert digests == SELF_JOIN_DIGESTS


@pytest.mark.parametrize("seed", sorted(CHAIN_DIGESTS))
def test_random_chain_cli_bytes(seed, capsys, tmp_path):
    catalog, query, params = random_chain_query(random.Random(seed), n_rels=4)
    files = {}
    for flag, doc in (
        ("--catalog", cs.catalog_to_dict(catalog)),
        ("--query", lx.query_to_dict(query)),
        ("--params", cm.params_to_dict(params)),
    ):
        files[flag] = tmp_path / f"{flag[2:]}.json"
        files[flag].write_text(json.dumps(doc))
    argv = [str(x) for pair in files.items() for x in pair]
    _, digest = _digest(capsys, "optimize", *argv, "--refine", "--json")
    assert digest == CHAIN_DIGESTS[seed]
