import json
import os
import resource
import subprocess
import sys

import pytest

from sccpreserve import cli
from sccpreserve.cli import main
from sccpreserve.digraph import dump, load
from sccpreserve.families import gen_random


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_build_verify_pipeline(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    code, out, err = run_cli(
        capsys, "gen", "st-lower", "--layers", "2", "-k", "2", "-o", gpath, "--json"
    )
    assert code == 0
    meta = json.loads((tmp_path / "g.txt.meta.json").read_text())
    assert len(meta["cross_edges"]) == 8

    code, out, err = run_cli(
        capsys, "build", "--graph", gpath, "--variant", "st", "--algo", "greedy",
        "-k", "2", "--source", str(meta["s"]), "--target", str(meta["t"]), "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert set(meta["cross_edges"]) <= set(report["kept_edges"])

    ppath = tmp_path / "p.json"
    ppath.write_text(out)
    code, out, err = run_cli(
        capsys, "verify", "--graph", gpath, "--preserver", str(ppath),
        "--variant", "st", "-k", "2", "--source", str(meta["s"]),
        "--target", str(meta["t"]), "--json",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_sourcewise_build_verify_pipeline(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(6, 13, 6, ensure_strongly_connected=True), gpath)
    code, out, _ = run_cli(
        capsys, "build", "--graph", gpath, "--variant", "sourcewise",
        "--sources", "0,2", "-k", "1", "--json",
    )
    assert code == 0
    ppath = tmp_path / "p.json"
    ppath.write_text(out)
    code, out, _ = run_cli(
        capsys, "verify", "--graph", gpath, "--preserver", str(ppath),
        "--variant", "sourcewise", "--sources", "0,2", "-k", "1", "--json",
    )
    assert code == 0 and json.loads(out)["ok"] is True


def test_kconn_build_verify_pipeline(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(6, 14, 8, ensure_strongly_connected=True), gpath)
    code, out, _ = run_cli(
        capsys, "build", "--graph", gpath, "--variant", "kconn", "-k", "2",
        "--demand-pairs", "--json",
    )
    assert code == 0
    ppath = tmp_path / "p.json"
    ppath.write_text(out)
    code, out, _ = run_cli(
        capsys, "verify", "--graph", gpath, "--preserver", str(ppath),
        "--variant", "kconn", "-k", "2", "--json",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_identity_exits_zero(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    g = gen_random(6, 12, 5, ensure_strongly_connected=True)
    dump(g, gpath)
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps({"kept_edges": sorted(g.edge_ids())}))
    code, out, _ = run_cli(
        capsys, "verify", "--graph", gpath, "--preserver", str(ppath),
        "--variant", "all-pairs", "-k", "1", "--json",
    )
    assert code == 0


def test_verify_failure_exits_one(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    g = gen_random(6, 12, 5, ensure_strongly_connected=True)
    dump(g, gpath)
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps({"kept_edges": sorted(g.edge_ids())[:4]}))
    code, out, _ = run_cli(
        capsys, "verify", "--graph", gpath, "--preserver", str(ppath),
        "--variant", "all-pairs", "-k", "1", "--json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["counterexample"]["pair"] is not None


def test_build_fpt_byte_identical(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(7, 14, 11, ensure_strongly_connected=True), gpath)
    argv = ["build", "--graph", gpath, "--algo", "fpt", "-k", "1",
            "--seed", "7", "--json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_error_exit_code(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(4, 6, 0), gpath)
    code, _, err = run_cli(
        capsys, "build", "--graph", gpath, "--variant", "st", "-k", "1"
    )
    assert code == 2  # missing --source/--target
    assert "required" in err


def test_capability_error_exit_code(tmp_path, capsys, monkeypatch):
    # verify counts the fault sets its search visits: under a cap of 10 the
    # 1-FT preserver's 11 edges verify at k = 1, where a sweep would scan
    # 12 sets, and the k = 2 search passes the cap
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(6, 14, 0, ensure_strongly_connected=True), gpath)
    code, out, _ = run_cli(capsys, "build", "--graph", gpath, "-k", "1", "--json")
    assert code == 0
    assert len(json.loads(out)["kept_edges"]) == 11
    ppath = tmp_path / "p.json"
    ppath.write_text(out)
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "10")
    verify = ["verify", "--graph", gpath, "--preserver", str(ppath), "--variant", "all-pairs"]
    code, _, _ = run_cli(capsys, *verify, "-k", "1")
    assert code == 0
    code, _, err = run_cli(capsys, *verify, "-k", "2")
    assert code == 3
    assert "capability" in err


@pytest.mark.parametrize("command", ["build", "verify", "hierarchy"])
def test_huge_graph_file_is_capability_error(tmp_path, command):
    # past the generators' vertex cap a graph file is refused before any
    # per-vertex allocation; for verify, exit 1 would read as a failure.
    # The child runs under an address-space limit, so a loader that does
    # allocate fails with MemoryError instead of filling the machine.
    gpath = tmp_path / "big.txt"
    gpath.write_text("100000000 0\n")
    ppath = tmp_path / "p.json"
    ppath.write_text('{"kept_edges": []}')
    argv = {
        "build": ["-k", "1"],
        "verify": ["--preserver", str(ppath), "--variant", "all-pairs", "-k", "1"],
        "hierarchy": ["-q", "2", "-k", "1"],
    }[command]
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from sccpreserve.cli import main; sys.exit(main())",
         command, "--graph", str(gpath), *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3, proc.stderr[-500:]
    assert "capability" in proc.stderr


def test_bad_env_integer_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "abc")
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(5, 8, 0, ensure_strongly_connected=True), gpath)
    code, _, err = run_cli(capsys, "critical", "--graph", gpath, "-k", "1")
    assert code == 2
    assert "SCC_PRESERVE_MAX_FAULT_SETS" in err


def test_hierarchy_phi_too_large_is_input_error(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    code, _, _ = run_cli(
        capsys, "gen", "random", "--n", "6", "--m", "12", "--seed", "0",
        "--ensure-scc", "-o", gpath,
    )
    assert code == 0
    code, _, err = run_cli(
        capsys, "hierarchy", "--graph", gpath, "-q", "1", "-k", "1", "--phi", "1"
    )
    assert code == 2
    assert "phi" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("hierarchy", "--graph", "{g}", "-q", "2", "-k", "1", "--phi", "abc"),
        ("hierarchy", "--graph", "{g}", "-q", "2", "-k", "1", "--phi", "1/0"),
        ("build", "--graph", "{bad}", "-k", "1"),
        ("verify", "--graph", "{bad}", "--preserver", "{p}", "-k", "1"),
        ("verify", "--graph", "{g}", "--preserver", "{bad}", "-k", "1"),
        ("gen", "random", "-o", "{missing}"),
        ("bench", "--max-k", "0"),
        ("bench", "--max-k", "-1"),
        ("build", "--graph", "{g}", "--variant", "sourcewise", "--sources", ",", "-k", "1"),
        ("verify", "--graph", "{g}", "--preserver", "{p}", "--variant", "sourcewise",
         "--sources", ",", "-k", "1"),
        ("critical", "--graph", "{g}", "--variant", "sourcewise", "--sources", ",",
         "-k", "1"),
        ("critical", "--graph", "{g}", "--variant", "kconn", "-k", "1"),
        # flags the chosen variant never reads
        ("build", "--graph", "{g}", "--demand-pairs", "-k", "1"),
        ("build", "--graph", "{g}", "--variant", "global", "--demand-pairs", "-k", "1"),
        ("build", "--graph", "{g}", "--source", "0", "-k", "1"),
        ("build", "--graph", "{g}", "--variant", "kconn", "--target", "1", "-k", "1"),
        ("build", "--graph", "{g}", "--variant", "sourcewise", "--sources", "0,2",
         "--source", "1", "-k", "1"),
        ("verify", "--graph", "{g}", "--preserver", "{p}", "--variant", "single-source",
         "--source", "0", "--target", "1", "-k", "1"),
        ("verify", "--graph", "{g}", "--preserver", "{p}", "--variant", "kconn",
         "--sources", "0", "-k", "1"),
        ("critical", "--graph", "{g}", "--variant", "st", "--source", "0",
         "--target", "1", "--sources", "0,1", "-k", "1"),
        ("critical", "--graph", "{g}", "--variant", "global", "--target", "1", "-k", "1"),
        # Random(-s) draws the stream of Random(s): a negative seed would alias
        ("gen", "random", "--seed", "-1", "-o", "{g}"),
        ("build", "--graph", "{g}", "--algo", "fpt", "--seed", "-1", "-k", "1"),
    ],
    ids=["phi-text", "phi-zero-denominator", "build-non-ascii-graph",
         "verify-non-ascii-graph", "verify-non-ascii-preserver", "gen-missing-dir",
         "bench-max-k-zero", "bench-max-k-negative", "build-no-sources",
         "verify-no-sources", "critical-no-sources", "critical-kconn",
         "build-demand-pairs-all-pairs", "build-demand-pairs-global",
         "build-source-all-pairs", "build-target-kconn", "build-source-sourcewise",
         "verify-target-single-source", "verify-sources-kconn", "critical-sources-st",
         "critical-target-global", "gen-negative-seed", "build-fpt-negative-seed"],
)
def test_bad_input_exits_two(tmp_path, capsys, argv):
    paths = {
        "g": tmp_path / "g.txt",
        "bad": tmp_path / "bad.txt",
        "p": tmp_path / "p.json",
        "missing": tmp_path / "missing_dir" / "g.txt",
    }
    g = gen_random(5, 8, 0, ensure_strongly_connected=True)
    dump(g, str(paths["g"]))
    paths["bad"].write_bytes(b"5 1\n0 1 \xe9\n")
    paths["p"].write_text(json.dumps(sorted(g.edge_ids())))
    code, _, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error:")


def test_hierarchy_json(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(8, 18, 3, ensure_strongly_connected=True), gpath)
    code, out, _ = run_cli(
        capsys, "hierarchy", "--graph", gpath, "-q", "2", "-k", "1", "--json"
    )
    assert code == 0
    report = json.loads(out)
    flat = sorted(v for level in report["levels"] for v in level)
    assert flat == list(range(8))
    assert all(c["unbreakable"] for c in report["certificates"])


def test_hierarchy_exact_flag_follows_env_limit(tmp_path, capsys, monkeypatch):
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(12, 30, 3, ensure_strongly_connected=True), gpath)
    argv = ("hierarchy", "--graph", gpath, "-q", "2", "-k", "1", "--json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["exact"] is True
    monkeypatch.setenv("SCC_PRESERVE_EXACT_CUT_LIMIT", "10")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["exact"] is False


def test_build_reports_heuristic_hierarchy(tmp_path, capsys, monkeypatch):
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(8, 16, 1, ensure_strongly_connected=True), gpath)
    for algo in ("hierarchy", "fpt"):
        argv = ("build", "--graph", gpath, "--algo", algo, "-k", "1", "--json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["stats"]["exact"] is True
        with monkeypatch.context() as patch:
            patch.setenv("SCC_PRESERVE_EXACT_CUT_LIMIT", "4")
            code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["stats"]["exact"] is False


def test_verify_rejects_boolean_edge_ids(tmp_path, capsys):
    # a JSON boolean is a Python int: [true, false, 2, 3] must not read as {1, 0, 2, 3}
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(5, 8, 0, ensure_strongly_connected=True), gpath)
    ppath = tmp_path / "p.json"
    for data in ([True, False, 2, 3], {"kept_edges": [0, 1, 2, True]}):
        ppath.write_text(json.dumps(data))
        code, _, err = run_cli(
            capsys, "verify", "--graph", gpath, "--preserver", str(ppath), "-k", "1"
        )
        assert code == 2
        assert "kept_edges" in err


def test_search_cap_counts_nodes_not_the_sweep(tmp_path, capsys, monkeypatch):
    # C(100, <= 4) = 4,087,976 fault sets is past the default cap of 2M,
    # yet the largest criticality search on this host sees only 81
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(18, 100, 1, ensure_strongly_connected=True), gpath)
    build = ("build", "--graph", gpath, "-k", "4", "--json")
    code, out, _ = run_cli(capsys, *build)
    assert code == 0
    report = json.loads(out)
    assert report["output_edges"] == 77
    assert report["stats"]["oracle_calls"] == 2191
    code, out, _ = run_cli(capsys, "critical", "--graph", gpath, "-k", "4", "--json")
    assert code == 0
    assert len(json.loads(out)["critical_edges"]) == 47
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "20")
    code, _, err = run_cli(capsys, *build)
    assert code == 3
    assert "capability" in err


def test_decompose_json(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(8, 16, 3, ensure_strongly_connected=True), gpath)
    code, out, _ = run_cli(
        capsys, "decompose", "--graph", gpath, "-q", "2", "-k", "1", "--json"
    )
    assert code == 0
    report = json.loads(out)
    flat = sorted(v for part in report["parts"] for v in part)
    assert flat == list(range(8))


def test_impcut_json(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    dump(load_path_graph(), gpath)
    code, out, _ = run_cli(
        capsys, "impcut", "--graph", gpath, "-x", "0", "-y", "2", "-k", "1", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["side"] == [0, 1]


def load_path_graph():
    from sccpreserve.digraph import DiGraph

    return DiGraph(3, [(0, 1), (1, 2)])


def test_critical_json(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    from conftest import three_cycle

    dump(three_cycle(), gpath)
    code, out, _ = run_cli(
        capsys, "critical", "--graph", gpath, "--variant", "all-pairs", "-k", "1",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["critical_edges"] == [0, 1, 2]


def test_gen_random_roundtrips(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    code, _, _ = run_cli(
        capsys, "gen", "random", "--n", "6", "--m", "12", "--seed", "4",
        "--ensure-scc", "-o", gpath,
    )
    assert code == 0
    assert load(gpath) == gen_random(6, 12, 4, ensure_strongly_connected=True)


def test_gen_random_without_room_for_edges_is_usage_error(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    code, _, err = run_cli(
        capsys, "gen", "random", "--n", "1", "--m", "5", "-o", str(gpath)
    )
    assert code == 2 and "m=5" in err
    assert not gpath.exists()
    assert not (tmp_path / "g.txt.meta.json").exists()


def test_gen_all_families(tmp_path, capsys):
    for family, extra in (
        ("baswana", ["-k", "2", "--y", "2"]),
        ("bounded-degree", ["--x", "4", "--y", "2"]),
        ("color", ["--x", "4", "--y", "2"]),
    ):
        gpath = str(tmp_path / f"{family}.txt")
        code, _, _ = run_cli(capsys, "gen", family, *extra, "-o", gpath)
        assert code == 0
        g = load(gpath)
        meta = json.loads((tmp_path / f"{family}.txt.meta.json").read_text())
        assert g.m > 0 and meta["cross_edges"]


def test_bench_runs(capsys):
    code, out, err = run_cli(capsys, "bench", "--max-k", "1", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and all("all_pairs" in row for row in rows)
    assert "k=1" in err


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    dump(gen_random(6, 13, 6, ensure_strongly_connected=True), gpath)
    ppath = str(tmp_path / "p.json")
    (tmp_path / "p.json").write_text(json.dumps(list(range(13))))
    verify = ("verify", "--graph", gpath, "--preserver", ppath, "-k", "1", "--json")
    calls = [
        ("build", "--graph", gpath, "--variant", "kconn", "--demand-pairs", "-k", "1",
         "--json"),
        ("build", "--graph", gpath, "--variant", "kconn", "-k", "1", "--json"),
        (*verify, "--by-cuts"),
        verify,
        ("build", "--graph", gpath, "--variant", "sourcewise", "--sources", "0,2",
         "-k", "1", "--json"),
        ("build", "--graph", gpath, "--variant", "single-source", "--source", "1",
         "-k", "1", "--json"),
        ("build", "--graph", gpath, "-k", "1", "--json"),
        ("critical", "--graph", gpath, "--variant", "sourcewise", "--sources", "3",
         "-k", "1", "--json"),
        ("critical", "--graph", gpath, "-k", "1", "--json"),
    ]
    # Each call made first, on a parser that nothing has parsed with yet.
    first = []
    for argv in calls:
        cli.parser.cache_clear()
        first.append(run_cli(capsys, *argv)[:2])
    assert all(code == 0 and out for code, out in first)
    cli.parser.cache_clear()
    for order in (calls, calls[::-1], calls):
        for argv in order:
            assert run_cli(capsys, *argv)[:2] == first[calls.index(argv)], argv
    assert cli.parser.cache_info().misses == 1  # one construction for all 27 calls


def test_import_builds_no_parser():
    code = (
        "import sccpreserve.cli as cli; "
        "assert cli.parser.cache_info().misses == 0; "
        "cli.main(['bench', '--max-k', '0']); "
        "assert cli.parser.cache_info().misses == 1"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, env=env)


@pytest.mark.parametrize(
    "command",
    ["gen", "build", "verify", "hierarchy", "decompose", "impcut", "critical", "bench"],
)
def test_help_after_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--variant", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: scc-preserve {command}")
