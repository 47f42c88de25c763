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

#: bushy is perfbench's plan_chain instance of random.Random(23), 8 joins,
#: bushy, with default params: its join tree is no path, so refinement takes
#: the tree approximation's two-split branch.
FIXTURE_PAIRS = {
    "bushy": ("bushy_catalog.json", "bushy_query.json"),
    "example1": ("example1_catalog.json", "example1_query.json"),
    "postopt": ("postopt_catalog.json", "postopt_query.json"),
    "q2": ("tpch_catalog.json", "q2_query.json"),
    "q3": ("tpch_catalog.json", "q3_query.json"),
    "q4": ("q4_catalog.json", "q4_query.json"),
    "q5": ("q5_catalog.json", "q5_query.json"),
}

# name -> sha256 of (optimize --refine --json, optimize, refine --plan --json)
FIXTURE_DIGESTS = {
    "bushy": (
        "8c392b842b0666c26c8348f6479ea396523026ed543e03989a430b9e85f2b553",
        "be83034ca43684a5f6b67e0917dfcf930bb8d3fe65c152bdcdae8dd910d50fd9",
        "8c392b842b0666c26c8348f6479ea396523026ed543e03989a430b9e85f2b553",
    ),
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

# name -> sha256 of explain-afm
EXPLAIN_AFM_DIGESTS = {
    "bushy": "dd7327826023bf0e9cb658089a6a87992df4cf8dd2fb9bf57db24283cd81d5b0",
    "example1": "564a1252af60373d095d1218a998a5558ea4f505d292af93b9c3fa682ca2b017",
    "postopt": "36d93392521ebd188c32bf0f9bf4d9bf5ab841ea25cef9d5970ceab20f2a9864",
    "q2": "d0f4d8b059dc046261211ddb01fb4009a1e0b9eeaf17fab99891fba468c066cb",
    "q3": "4b00afd6466d0fc45199977c64668bb6efa6fc283d2992d78ac7ee5976ffc28a",
    "q4": "f1cc26d06b211b4c668fcab2c5ddefd3dcf39c65545b99a0857c2914b7c23cc1",
    "q5": "41251777afd288595ccf4b9d0b3005248c5075f0082af3ae965618eef55f37d7",
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

HEURISTIC_ORDER = ("favorable", "arbitrary", "postgres", "exhaustive")
#: Cost parameters under which hash operators win some goals.
HASH_PARAMS = {"cost_params": {"hashjoin_enabled": True, "hash_per_block_io_equiv": 0.01}}

# name -> sha256 of optimize --json per heuristic in HEURISTIC_ORDER, with default
# params and then with HASH_PARAMS
HEURISTIC_DIGESTS = {
    "bushy": (
        (
            "0d632153eda63bc941eadf76ead03caaee07823479cf0aab979c261ed17f8c79",
            "537c5e6a9438108965ec36a5dce28699295ac4329c7516e778498026d55545fe",
            "0d632153eda63bc941eadf76ead03caaee07823479cf0aab979c261ed17f8c79",
            "8c392b842b0666c26c8348f6479ea396523026ed543e03989a430b9e85f2b553",
        ),
        (
            "687efc4327c158d1a792dcc2e81e3d48c1bbdd647320300db3735de4a974d00b",
            "4867ddb54889716dfb93fc0aec2b81702af7c090ff6a13efa7e4679a7b82e73c",
            "687efc4327c158d1a792dcc2e81e3d48c1bbdd647320300db3735de4a974d00b",
            "f9e92c01000e2a367381e9ba0329c3a36d1d3aa212089e3714bc458ecb4cc7b5",
        ),
    ),
    "example1": (
        (
            "a9722e7be3f11a3075fdcdfc508dfc804c74a81166c6da812b7bc43c94893a95",
            "5dc24256f0ee66df744aee5cb6704b8c323aeff65042294e1f1f772e15cf26da",
            "fcb1275f136c94d1958656c3525730daa47ff866f11745bf54258799025d523c",
            "a9722e7be3f11a3075fdcdfc508dfc804c74a81166c6da812b7bc43c94893a95",
        ),
        (
            "71605a9399f8c291dd7e0e835f6f3fd5a244a5967b07a8b77d60801414709275",
            "71605a9399f8c291dd7e0e835f6f3fd5a244a5967b07a8b77d60801414709275",
            "71605a9399f8c291dd7e0e835f6f3fd5a244a5967b07a8b77d60801414709275",
            "71605a9399f8c291dd7e0e835f6f3fd5a244a5967b07a8b77d60801414709275",
        ),
    ),
    "postopt": (
        (
            "6cadddff864052bd767310756c3ae91ae4ddcc4105df50f7c1058aac3405659f",
            "6cadddff864052bd767310756c3ae91ae4ddcc4105df50f7c1058aac3405659f",
            "060ff940f2a14680475215c7427b5232b1ebb5ba1e80e98c31da1a08dfdd57e7",
            "770a73f092b31acc15413270d3166bf74c76a5257bff145f8be134e80ba49511",
        ),
        (
            "0f8f87a30b0a62a5750c6680b9c4a3288bbec14c27f47da4ef11176fad86c5e7",
            "0f8f87a30b0a62a5750c6680b9c4a3288bbec14c27f47da4ef11176fad86c5e7",
            "4f8b7da526241e7f6c470ca0c1c71a5201d32e05732c6233288c72eca8360e2f",
            "b29aebc06c3b20feea612c1b52c989cb7c1c4429f3929831172cb4c822f2b406",
        ),
    ),
    "q2": (
        ("9af0044c38ea938eca7b1dfa2fbeca5c144082ca2440bf92dd478f3ac88e4a25",) * 4,
        ("36fd98f7433783a8da8cba2e3e4271dc43bf67aae7a48dbe96333ecd23ddab27",) * 4,
    ),
    "q3": (
        (
            "03e6181880e5f772e039a4303543141cc34980c4083d7c1cc52ab36e58cba342",
            "06d4011cb4d4845e377d0f25b55b656896e7fa4c1c373bdabea6ad0b90d63eb5",
            "570e63c7b62beb5aea820b4dac50c2693364bc4432f0ea5c9afb840c01768855",
            "03e6181880e5f772e039a4303543141cc34980c4083d7c1cc52ab36e58cba342",
        ),
        (
            "45c73d71e1cb38407f89fbe9b6f9f7a0adc3d22c3812ba52bae333b384eb233c",
            "b737d5337c4e9ccce6b62bc3d4fa2abfd8712e7a22355393a6e712963e20023f",
            "701f66206c2224f16ec2883fa407c6754d22daa071cb9a51ddf1b2de8ddb37d7",
            "45c73d71e1cb38407f89fbe9b6f9f7a0adc3d22c3812ba52bae333b384eb233c",
        ),
    ),
    "q4": (
        (
            "bfef3e2407b35d733d62ad7be9d313f55de86f5b3d5bcf130fc8e111ef322a80",
            "bfef3e2407b35d733d62ad7be9d313f55de86f5b3d5bcf130fc8e111ef322a80",
            "7fd921f088b1460508f584b2ae591d0ac5176b714f3534ec2cbfb44e310fe489",
            "08551513d814d78ca05a124b0039ab33251938c55e0158b1c684b04c2a6fadee",
        ),
        (
            "1bc69a39f53eacf8be089e232de21409480949b14adebac555fe754a8eff74f8",
            "1bc69a39f53eacf8be089e232de21409480949b14adebac555fe754a8eff74f8",
            "2b86445e58273248fa60fdc2965a68c24f86397da66f3670ad21bcf19328da2a",
            "c1161cab29935cca20fd064a26d0c93f16738cc878073f25ebad34fd5077dcea",
        ),
    ),
    "q5": (
        (
            "941a7efd09ffd769db45249e52f2c7caf8c4b91d88af881c13e91753713fc820",
            "7c89c9221ae3d4e3927b9a65641decceec9cdf9ada740272ca5f3ea5cdc3b4a7",
            "ef9fc5f87f94054d5c1b879ceee9e283c2629d338adea2e673880df0a96af8e2",
            "941a7efd09ffd769db45249e52f2c7caf8c4b91d88af881c13e91753713fc820",
        ),
        (
            "5becdce77f17ede90817a285ca05292454ad023e263b6f9ccaae516506d9add6",
            "5bf6aafaf4f51bd6c4efab33d0603619b44f606474504859a50ff5290e65d0b5",
            "004452e439bb48d0324f2b3551c7c2789211f7150b670d8f7239616b66fdb133",
            "5becdce77f17ede90817a285ca05292454ad023e263b6f9ccaae516506d9add6",
        ),
    ),
}

# name -> sha256 of the `bench b3` CSV, with default params and then with
# HASH_PARAMS: one favorable-order index serves all four heuristics and
# refinement
BENCH_B3_DIGESTS = {
    "bushy": ("e490de2b14d25f079137322d2479350a272be0b8e21e9a66eaea0852dc2acef4",) * 2,
    "example1": (
        "da580a350029f45288f5465b0addf274b075d89c0523df2c7d997c79232b8d70",
        "714704e0740448ecdbdee311c07d9bcf23a408960f92ce2b5c042a1b0eb29033",
    ),
    "postopt": ("9429f9ab1937c177a1ed9482ee3e19465d956bddeffe38aa08456b4d42e5ef85",) * 2,
    "q2": ("3ffed969df6ac0cde0a3e00b994a7fd98d0811a8d6187f8f14452412b100c714",) * 2,
    "q3": (
        "80d7cd54afc082728877c135360799585341e3b4ed41f70ab78032532f599145",
        "5c596c958bf62682fce279e3841fd85785b903b96dc32bdc1bc74d53dde58146",
    ),
    "q4": ("e6b1c1c0fc8c5c0be2f6b8b8588b1e1d91b5603694ee80cfda7fb26ee6de12cf",) * 2,
    "q5": ("994f24f5595092e609449a25f0171a1f4585cad2abf199eeb3186a68ebff07f0",) * 2,
}

#: Two join trees over the postopt catalog, separated by a group-by: a lower
#: 2-join chain whose joins refinement can align, and a lone top join.
TWO_TREE_CHAIN = {
    "op": "join",
    "left": {
        "op": "join",
        "left": {"op": "scan", "relation": "t1"},
        "right": {"op": "scan", "relation": "t2"},
        "join_attrs": ["a", "b", "z"],
    },
    "right": {"op": "scan", "relation": "t3"},
    "join_attrs": ["a", "d", "z"],
}
TWO_TREE_QUERY = {
    "expr": {
        "op": "join",
        "left": {"op": "group_by", "input": TWO_TREE_CHAIN, "keys": ["a", "b"], "agg_width_bytes": 8},
        "right": {"op": "scan", "relation": "t4"},
        "join_attrs": ["a", "b"],
    },
    "order_by": [],
}
TWO_TREE_DIGEST = "f05dabb86eefe9410c02cb5e6082ad5c5e0716bb2282d84d3cf5d142f1f92787"

def _rel(name: str, rows: int, tuple_bytes: int, clustering: list, **distincts) -> dict:
    return {
        "name": name,
        "row_count": rows,
        "tuple_bytes": tuple_bytes,
        "columns": sorted(distincts),
        "clustering_order": clustering,
        "distincts": distincts,
    }


def _join(left, right, *attrs) -> dict:
    return {"op": "join", "left": left, "right": right, "join_attrs": list(attrs)}


def _scan(relation: str) -> dict:
    return {"op": "scan", "relation": relation}


#: An 8-join chain whose best plan mixes merge and hash joins under cheap hash
#: operators; refinement re-orders two of its merge joins and rebuilds the
#: plan through the hash joins below them, at the same cost.
HASH_CHAIN_CATALOG = {
    "relations": [
        _rel("r00", 50000, 48, ["a04"], a00=50000, a04=50000, a10=50000),
        _rel("r01", 2000, 64, ["a03", "a07"], a00=1000, a03=2000, a07=2000, a11=1000),
        _rel("r02", 10000, 80, ["a10"], a01=5000, a05=5000, a07=10000, a09=10000, a10=2500),
        _rel("r03", 2000, 96, ["a06", "a10"], a01=500, a02=2000, a04=500, a06=500, a09=2000, a10=500),
        _rel("r04", 50000, 96, [], a00=50000, a01=12500, a06=50000, a09=50000, a10=50000, a11=50000),
        _rel("r05", 50000, 80, [], a00=25000, a04=50000, a06=12500, a08=50000, a10=50000),
        _rel("r06", 2000, 64, [], a05=2000, a06=2000, a08=2000, a11=2000),
        _rel("r07", 50000, 80, ["a04"], a01=50000, a03=50000, a04=12500, a05=12500, a08=25000),
        _rel("r08", 10000, 64, ["a05"], a04=5000, a05=5000, a08=5000, a10=5000),
    ],
    "indices": [
        {"relation": "r02", "key_order": ["a10", "a01"], "included_columns": ["a05", "a07", "a09"], "kind": "secondary"},
        {"relation": "r03", "key_order": ["a04", "a06"], "included_columns": ["a01", "a02", "a09", "a10"], "kind": "secondary"},
        {"relation": "r06", "key_order": ["a05", "a08"], "included_columns": ["a06", "a11"], "kind": "secondary"},
        {"relation": "r08", "key_order": ["a08", "a05"], "included_columns": ["a04", "a10"], "kind": "secondary"},
    ],
}
HASH_CHAIN_QUERY = {
    "expr": _join(
        _scan("r00"),
        _join(
            _join(_scan("r01"), _scan("r02"), "a07"),
            _join(
                _join(_join(_scan("r03"), _scan("r04"), "a06", "a09"), _scan("r05"), "a00", "a06"),
                _join(_scan("r06"), _join(_scan("r07"), _scan("r08"), "a05"), "a05", "a08"),
                "a01", "a08", "a11",
            ),
            "a03", "a09", "a11",
        ),
        "a00", "a04",
    ),
    "order_by": ["a10", "a09", "a08"],
}
HASH_CHAIN_PARAMS = {
    "cost_params": {"block_bytes": 4096, "memory_blocks": 256, "hashjoin_enabled": True, "hash_per_block_io_equiv": 0.2}
}
#: sha256 of optimize --json, and of both optimize --refine --json and refine --plan --json on it
HASH_CHAIN_DIGESTS = (
    "19cb96a3368fa540e8b8acd02a7ebd411b3c31aab2132fe27b10f2859ac09021",
    "e6226d1cfbe2a9f7b92cdcc63e16a839a42880e875c88bc82c2822784c123468",
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
    """The pinned digests; and refining the reloaded plain plan prints what
    refining the searched plan does, though the two refine in different
    planning sessions (the loader's and the search's)."""
    cat, qry = (str(fixture_path(f)) for f in FIXTURE_PAIRS[name])
    refined_json, digests = _plan_digests(capsys, tmp_path, cat, qry)
    assert digests == FIXTURE_DIGESTS[name]
    plain_file = tmp_path / "plain.json"
    plain_file.write_text(_digest(capsys, "optimize", "--catalog", cat, "--query", qry, "--json")[0])
    assert _digest(capsys, "refine", "--plan", str(plain_file), "--json")[0] == refined_json


@pytest.mark.parametrize("name", sorted(FIXTURE_PAIRS))
def test_a_command_prices_each_sort_once(name, capsys, tmp_path, monkeypatch):
    """`optimize --refine` and `refine --plan` each plan in one session, so
    refinement's rebuild reuses the sort prices that search resp. the plan
    loader already hold: one `sort_cost` call per (expression, known
    attribute set, rest length)."""
    from ordopt import cost_model

    cat, qry = (str(fixture_path(f)) for f in FIXTURE_PAIRS[name])
    plain_file = tmp_path / "plain.json"
    plain_file.write_text(_digest(capsys, "optimize", "--catalog", cat, "--query", qry, "--json")[0])
    keys = []
    plain = cost_model.sort_cost

    def counting(e, known, rest_len, *rest):
        keys.append((e, known, rest_len))
        return plain(e, known, rest_len, *rest)

    monkeypatch.setattr(cost_model, "sort_cost", counting)
    for argv in (["optimize", "--catalog", cat, "--query", qry, "--refine"], ["refine", "--plan", str(plain_file)]):
        keys.clear()
        _digest(capsys, *argv, "--json")
        assert len(keys) == len(set(keys)), argv[0]


@pytest.mark.parametrize("name", sorted(FIXTURE_PAIRS))
def test_fixture_explain_afm_bytes(name, capsys):
    cat, qry = (str(fixture_path(f)) for f in FIXTURE_PAIRS[name])
    assert _digest(capsys, "explain-afm", "--catalog", cat, "--query", qry)[1] == EXPLAIN_AFM_DIGESTS[name]


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


def _plan_nodes(plan_json: str) -> list[dict]:
    """The plan nodes of a plan document, in preorder."""
    out, stack = [], [json.loads(plan_json)["plan"]]
    while stack:
        out.append(stack.pop())
        stack.extend(reversed(out[-1]["children"]))
    return out


@pytest.mark.parametrize("name", sorted(FIXTURE_PAIRS))
def test_fixture_heuristic_bytes(name, capsys, tmp_path):
    cat, qry = (str(fixture_path(f)) for f in FIXTURE_PAIRS[name])
    params = tmp_path / "params.json"
    params.write_text(json.dumps(HASH_PARAMS))
    got, outs = [], {}
    for extra in ((), ("--params", str(params))):
        row = []
        for heuristic in HEURISTIC_ORDER:
            out, digest = _digest(
                capsys, "optimize", "--catalog", cat, "--query", qry, "--heuristic", heuristic, "--json", *extra
            )
            outs[heuristic, bool(extra)] = out
            row.append(digest)
        got.append(tuple(row))
    assert tuple(got) == HEURISTIC_DIGESTS[name]
    ops = {key: {node["op"] for node in _plan_nodes(out)} for key, out in outs.items()}
    if name == "example1":
        assert "hash_join" in ops["favorable", True]
    if name == "q3":
        assert "hash_group_by" in ops["arbitrary", True]


@pytest.mark.parametrize("name", sorted(FIXTURE_PAIRS))
def test_fixture_bench_b3_bytes(name, capsys, tmp_path):
    cat, qry = (str(fixture_path(f)) for f in FIXTURE_PAIRS[name])
    params = tmp_path / "params.json"
    params.write_text(json.dumps(HASH_PARAMS))
    got = tuple(
        _digest(capsys, "bench", "b3", "--catalog", cat, "--query", qry, *extra)[1]
        for extra in ((), ("--params", str(params)))
    )
    assert got == BENCH_B3_DIGESTS[name]


def test_two_join_trees_refine_bytes(capsys, tmp_path):
    qry = tmp_path / "query.json"
    qry.write_text(json.dumps(TWO_TREE_QUERY))
    argv = ("optimize", "--catalog", str(fixture_path("postopt_catalog.json")), "--query", str(qry), "--json")
    plain, _ = _digest(capsys, *argv)
    refined, digest = _digest(capsys, *argv, "--refine")
    join_orders = [[n["order"] for n in _plan_nodes(out) if n["op"] == "merge_join"] for out in (plain, refined)]
    # refinement aligns the lower chain and leaves the lone top join alone
    assert join_orders == [
        [["a", "b"], ["a", "d", "z"], ["a", "b", "z"]],
        [["a", "b"], ["a", "z", "d"], ["a", "z", "b"]],
    ]
    assert digest == TWO_TREE_DIGEST


def test_refined_plan_with_hash_joins_bytes(capsys, tmp_path):
    files = []
    for name, doc in (("catalog", HASH_CHAIN_CATALOG), ("query", HASH_CHAIN_QUERY), ("params", HASH_CHAIN_PARAMS)):
        files += [f"--{name}", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    plain, digest = _digest(capsys, "optimize", *files, "--json")
    refined, refined_digest = _digest(capsys, "optimize", *files, "--refine", "--json")
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plain)
    _, again = _digest(capsys, "refine", "--plan", str(plan_file), "--json")
    assert (digest, refined_digest) == HASH_CHAIN_DIGESTS and again == refined_digest
    ops = {node["op"] for node in _plan_nodes(refined)}
    assert {"hash_join", "covering_index_scan"} <= ops
    join_orders = [[n["order"] for n in _plan_nodes(out) if n["op"] == "merge_join"] for out in (plain, refined)]
    assert join_orders == [
        [["a04", "a00"], ["a03", "a09", "a11"], ["a07"], ["a08", "a01", "a11"]],
        [["a04", "a00"], ["a03", "a11", "a09"], ["a07"], ["a08", "a11", "a01"]],
    ]


#: `ordopt sort` without --json: one `key=value` line per counter, in key
#: order.  The mrs comparison counts are those of Python 3.10-3.12, whose
#: built-in sort compares as `test_golden_counters` (test_extsort.py) expects.
SORT_TEXT = {
    "srs": (
        ("--rows", "3000", "--algo", "srs", "--mem-blocks", "4", "--block-bytes", "1024"),
        "comparisons=19251\npositions_inspected=19251\nrun_blocks_read=586\nrun_blocks_written=586\n"
        "runs_generated=1\ntuples_in_before_first_out=3000\n",
    ),
    "mrs": (
        ("--rows", "3000", "--algo", "mrs", "--segment-rows", "500", "--mem-blocks", "4", "--block-bytes", "1024"),
        "comparisons=32944\npositions_inspected=32944\nrun_blocks_read=1648\nrun_blocks_written=1648\n"
        "runs_generated=73\ntuples_in_before_first_out=500\n",
    ),
}


@pytest.mark.parametrize("algo", sorted(SORT_TEXT))
def test_sort_text_bytes(algo, capsys):
    argv, text = SORT_TEXT[algo]
    assert _digest(capsys, "sort", *argv)[0] == text


#: Two covering indices of r share the key (b, c), the first one wider and
#: dearer; a third has r's clustering order as its key.  Search and the plan
#: loader both take the cheaper of the two (b, c) indices.
SHARED_KEY_CATALOG = {
    "relations": [
        _rel("r", 40000, 64, ["a"], a=40000, b=2000, c=500, d=100),
        _rel("s", 8000, 48, ["b", "c"], b=2000, c=400, e=8000),
        _rel("t", 20000, 32, [], a=20000, c=500),
    ],
    "indices": [
        {"relation": "r", "key_order": ["b", "c"], "included_columns": ["a", "d"], "kind": "secondary"},
        {"relation": "r", "key_order": ["a"], "included_columns": ["b", "c"], "kind": "secondary"},
        {"relation": "r", "key_order": ["b", "c"], "included_columns": ["a"], "kind": "secondary"},
    ],
}
SHARED_KEY_QUERY = {
    "expr": {
        "op": "project",
        "cols": ["a", "b", "c"],
        "input": _join(_join(_scan("r"), _scan("s"), "b", "c"), _scan("t"), "a", "c"),
    },
    "order_by": ["a"],
}
#: sha256 of optimize --refine --json (which refine --plan --json reproduces) and of bench b3
SHARED_KEY_DIGESTS = (
    "afe72e3e95a570da282628a0da923fcbd70ac3a4345bc2912bc90ce1847fe4a6",
    "7f27d47d8a1f4236c5a6ee5059459a340741b1e3418bd2bbc60783cfbca4cc13",
)


def test_indices_sharing_a_key_bytes(capsys, tmp_path):
    files = []
    for name, doc in (("catalog", SHARED_KEY_CATALOG), ("query", SHARED_KEY_QUERY)):
        files += [f"--{name}", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    plan_json, digest = _digest(capsys, "optimize", *files, "--refine", "--json")
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan_json)
    _, again = _digest(capsys, "refine", "--plan", str(plan_file), "--json")
    _, b3 = _digest(capsys, "bench", "b3", *files)
    assert (digest, b3) == SHARED_KEY_DIGESTS and again == digest
    scans = [n for n in _plan_nodes(plan_json) if n["op"] == "covering_index_scan"]
    # the (b, c) index without d: 40000 entries of 3 * 16 bytes
    assert [(n["index_key"], n["op_cost"]) for n in scans] == [(["b", "c"], 469.0)]
