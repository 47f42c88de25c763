import json
import random
import subprocess
import sys

import pytest

import ordopt
from ordopt.cli import main

from conftest import child_env, fixture_path, perfbench_workloads


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_optimize_plain_and_deterministic(capsys):
    argv = [
        "optimize",
        "--catalog", str(fixture_path("tpch_catalog.json")),
        "--query", str(fixture_path("q3_query.json")),
    ]
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "merge_join" in out1 and "sort_group_by" in out1


def test_optimize_json_round_trips(capsys, tmp_path):
    code, out, _ = _run(
        capsys,
        "optimize",
        "--catalog", str(fixture_path("postopt_catalog.json")),
        "--query", str(fixture_path("postopt_query.json")),
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "ordopt-plan/1"
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(out)

    code, refined_out, _ = _run(capsys, "refine", "--plan", str(plan_file), "--json")
    assert code == 0
    refined = json.loads(refined_out)
    assert refined["plan"]["total_cost"] < doc["plan"]["total_cost"]


def test_optimize_refine_flag_matches_refine_command(capsys, tmp_path):
    code, out, _ = _run(
        capsys,
        "optimize",
        "--catalog", str(fixture_path("postopt_catalog.json")),
        "--query", str(fixture_path("postopt_query.json")),
        "--refine", "--json",
    )
    assert code == 0
    assert "(a,z,b)" in out.replace('"', "").replace(", ", ",") or json.loads(out)
    doc = json.loads(out)
    orders = []

    def walk(node):
        if node["op"] == "merge_join":
            orders.append(tuple(node["order"]))
        for c in node["children"]:
            walk(c)

    walk(doc["plan"])
    assert sorted(orders) == [("a", "z", "b"), ("a", "z", "d"), ("a", "z", "e")]


def test_optimize_example1_refined_shares_join_prefixes(capsys):
    code, out, _ = _run(
        capsys,
        "optimize",
        "--catalog", str(fixture_path("example1_catalog.json")),
        "--query", str(fixture_path("example1_query.json")),
        "--heuristic", "favorable", "--refine",
    )
    assert code == 0
    join_orders = [
        line.split("order=")[1].split()[0]
        for line in out.splitlines()
        if line.strip().startswith("merge_join")
    ]
    assert len(join_orders) == 2
    assert all(o.startswith("(make,year") for o in join_orders)


def test_explain_afm(capsys):
    code, out, _ = _run(
        capsys,
        "explain-afm",
        "--catalog", str(fixture_path("example1_catalog.json")),
        "--query", str(fixture_path("example1_query.json")),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("join {make,year}")
    assert any(line.strip() == "make,year" for line in lines)
    assert any(line.strip() == "year" for line in lines)
    assert "scan rating" in out


def test_sort_json_zero_io(capsys):
    code, out, _ = _run(
        capsys,
        "sort", "--rows", "1000", "--segment-rows", "100", "--keys", "2",
        "--payload", "64", "--mem-blocks", "4", "--block-bytes", "4096",
        "--algo", "mrs", "--seed", "1", "--json",
    )
    assert code == 0
    met = json.loads(out)
    assert met["run_blocks_written"] == 0
    assert met["run_blocks_read"] == 0
    assert met["tuples_in_before_first_out"] == 100


def test_sort_deterministic_bytes(capsys):
    argv = ["sort", "--rows", "500", "--segment-rows", "50", "--algo", "srs",
            "--payload", "100", "--seed", "9", "--json"]
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0 and out1 == out2


def test_bench_a3_csv(capsys):
    code, out, _ = _run(
        capsys,
        "bench", "a3", "--rows", "1000", "--payload", "64", "--mem-blocks", "4", "--seed", "2",
    )
    assert code == 0
    # sweep 1,10,100,1000 with two algorithms each; counters pinned exactly
    assert out == (
        "segment_rows,algo,run_blocks_written,run_blocks_read,comparisons,"
        "tuples_in_before_first_out,runs_generated\n"
        "1,srs,16,16,9659,1000,1\n"
        "1,mrs,0,0,0,1,1000\n"
        "10,srs,16,16,9661,1000,1\n"
        "10,mrs,0,0,2291,10,100\n"
        "100,srs,16,16,9673,1000,1\n"
        "100,mrs,0,0,5329,100,10\n"
        "1000,srs,18,18,10593,1000,3\n"
        "1000,mrs,13,13,10714,1000,2\n"
    )


def test_bench_b3_csv(capsys):
    code, out, _ = _run(
        capsys,
        "bench", "b3",
        "--catalog", str(fixture_path("tpch_catalog.json")),
        "--query", str(fixture_path("q3_query.json")),
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    norm = {r[0]: float(r[2]) for r in rows}
    assert norm["exhaustive"] == 100.0
    assert norm["favorable"] == pytest.approx(100.0, abs=1.0)
    assert norm["favorable+refine"] <= norm["favorable"]
    assert norm["arbitrary"] >= 100.0


@pytest.mark.parametrize("order_by", [[], ["__agg__"]])
def test_bench_b3_on_a_global_aggregate(capsys, tmp_path, order_by):
    """A group-by with no keys: every heuristic, postgres's included, has the
    one empty order to offer."""
    query = {
        "expr": {
            "op": "group_by",
            "input": {
                "op": "join",
                "left": {"op": "scan", "relation": "r1"},
                "right": {"op": "scan", "relation": "r2"},
                "join_attrs": ["c3", "c4"],
            },
            "keys": [],
        },
        "order_by": order_by,
    }
    qryf = tmp_path / "qry.json"
    qryf.write_text(json.dumps(query))
    catalog = str(fixture_path("q4_catalog.json"))
    code, out, err = _run(capsys, "bench", "b3", "--catalog", catalog, "--query", str(qryf))
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == [*ordopt.HEURISTICS, "favorable+refine"]


@pytest.mark.parametrize("argv", [["optimize", "--refine", "--json"], ["bench", "b3"], ["refine", "--json"]])
def test_a_command_derives_the_query_attributes_once(capsys, monkeypatch, tmp_path, argv):
    """Search, its favorable-order index and refinement share one
    `query_attrs` set, however many heuristics search runs; so do the plan
    loader and refinement of `refine --plan`."""
    from ordopt import logical_expr

    files = ["--catalog", str(fixture_path("tpch_catalog.json")), "--query", str(fixture_path("q3_query.json"))]
    if argv[0] == "refine":
        plan = tmp_path / "plan.json"
        plan.write_text(_run(capsys, "optimize", "--json", *files)[1])
        files = ["--plan", str(plan)]
    calls = []
    plain = logical_expr.query_attrs

    def counting(query, catalog):
        calls.append(query)
        return plain(query, catalog)

    monkeypatch.setattr(logical_expr, "query_attrs", counting)
    code, _, _ = _run(capsys, *argv, *files)
    assert code == 0
    assert len(calls) == 1


def test_unknown_flag_exits_1(capsys):
    code, _, err = _run(capsys, "optimize", "--nonsense")
    assert code == 1
    assert "usage" in err.lower()


def test_validation_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(
        capsys, "optimize", "--catalog", str(bad), "--query", str(bad)
    )
    assert code == 1
    assert "error" in err


def test_guard_violation_exits_2(capsys, tmp_path):
    cols = list("abcdefg")
    cat = {
        "relations": [
            {"name": n, "row_count": 10, "tuple_bytes": 56, "columns": cols,
             "clustering_order": [], "distincts": {}}
            for n in ("x", "y")
        ],
        "indices": [],
    }
    qry = {
        "expr": {
            "op": "join",
            "left": {"op": "scan", "relation": "x"},
            "right": {"op": "scan", "relation": "y"},
            "join_attrs": cols,
        },
        "order_by": [],
    }
    catf = tmp_path / "cat.json"
    qryf = tmp_path / "qry.json"
    catf.write_text(json.dumps(cat))
    qryf.write_text(json.dumps(qry))
    code, _, err = _run(
        capsys, "optimize", "--catalog", str(catf), "--query", str(qryf),
        "--heuristic", "exhaustive",
    )
    assert code == 2
    assert "guard" in err


def test_successful_run_writes_nothing_to_stderr():
    # In a fresh interpreter: pytest's own logging handlers would swallow a
    # record that Python's last-resort handler prints to stderr.
    argv = ["optimize", "--catalog", str(fixture_path("example1_catalog.json")),
            "--query", str(fixture_path("example1_query.json"))]
    script = (
        "import sys\n"
        "from ordopt import favorable_orders as fo\n"
        "from ordopt.cli import main\n"
        "fo.SET_SIZE_FLAG = 2  # no set is reported, however small the flag\n"
        f"sys.exit(main({argv!r}))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.returncode == 0
    assert "merge_join" in done.stdout
    assert done.stderr == ""


def test_a_reader_that_stops_early_is_not_an_error(tmp_path):
    """`ordopt explain-afm ... | head -1` on an output longer than the pipe
    buffer: the write fails with EPIPE, and the exit is SIGPIPE's 141 with
    nothing on stderr, not an error."""
    catalog, query, _ = perfbench_workloads().chain_instance(random.Random(0), 64, False)
    (tmp_path / "catalog.json").write_text(catalog)
    (tmp_path / "query.json").write_text(query)
    argv = [sys.executable, "-m", "ordopt.cli", "explain-afm",
            "--catalog", str(tmp_path / "catalog.json"), "--query", str(tmp_path / "query.json")]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        assert proc.stdout.readline().startswith(b"group_by ")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (141, b"")
