import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import vclab
from vclab.cli import THREADS_ENV, main, resolve_threads
from vclab.errors import VclabError
from vclab.flow import CutCertificate, paths_disjoint
from vclab.graphs import EdgeSet, emit_graph, gen_gnp, parse_graph, parse_labeled
from vclab.oracles import brute_4clique
from vclab.reductions import parse_hard_instance
from vclab.verify import SUITES


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(emit_graph(g))
    return str(path)


def p3_file(tmp_path):
    return write_graph(tmp_path, parse_graph("3 2\n0 1\n1 2"))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_gnp(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "gnp", "--n", "20", "--p", "0.3", "--seed", "7", "--out", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert g.n == 20
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 7
    assert report["instance"]["n"] == 20


def test_gen_is_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["gen", "gnp", "--n", "15", "--p", "0.4", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_auto_seed_is_echoed(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "gnp", "--n", "6", "--p", "0.5", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert isinstance(report["seed"], int)
    # replaying the echoed seed reproduces the file
    replay = tmp_path / "replay.txt"
    assert main(["gen", "gnp", "--n", "6", "--p", "0.5",
                 "--seed", str(report["seed"]), "--out", str(replay)]) == 0
    assert replay.read_bytes() == out.read_bytes()


def test_gen_planted4(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen", "planted4", "--n", "10", "--p", "0.2", "--seed", "4", "--out", str(out)]) == 0
    assert brute_4clique(parse_graph(out.read_text())) is not None


def test_gen_fourpartite(tmp_path):
    src = write_graph(tmp_path, parse_graph("3 3\n0 1\n1 2\n0 2"))
    out = tmp_path / "fp.txt"
    assert main(["gen", "fourpartite", "--graph", src, "--out", str(out)]) == 0
    inst = parse_labeled(out.read_text())
    assert inst.graph.n == 12 and inst.graph.m == 36
    assert sorted(inst.groups) == ["A", "B", "C", "D"]


def test_gen_missing_params_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "gnp", "--p", "0.3"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# vc
# ---------------------------------------------------------------------------


def test_vc_st(tmp_path, capsys):
    path = p3_file(tmp_path)
    assert main(["vc", "st", "--graph", path, "--s", "0", "--t", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    report = json.loads(captured.err)
    assert report["result"]["value"] == 1
    assert report["result"]["cut_vertices"] == [1]
    assert report["result"]["paths"] == [[0, 1, 2]]


def c4_file(tmp_path):
    return write_graph(tmp_path, parse_graph("4 4\n0 1\n1 2\n2 3\n0 3"))


def test_vc_st_reports_both_bounds(tmp_path, capsys):
    assert main(["vc", "st", "--graph", c4_file(tmp_path), "--s", "0", "--t", "2"]) == 0
    result = json.loads(capsys.readouterr().err)["result"]
    assert result["value"] == 2 and result["cut_vertices"] == [1, 3]
    assert sorted(result["paths"]) == [[0, 1, 2], [0, 3, 2]]


@pytest.mark.parametrize("paths", [
    [[0, 1, 2], [0, 1, 2]],  # a shared inner vertex
    [[0, 1, 2]],  # fewer paths than the value
    [[0, 1, 2], [0, 2]],  # 0-2 is not an edge
    [[0, 1, 2], [0, 3, 0, 3, 2]],  # a repeated inner vertex and an endpoint inside
    [[0, 1, 2], [1, 0, 3, 2]],  # the wrong first vertex
])
def test_vc_st_forged_paths_exit_1(tmp_path, capsys, monkeypatch, paths):
    monkeypatch.setattr("vclab.cli.vertex_disjoint_paths", lambda g, s, t: paths)
    assert main(["vc", "st", "--graph", c4_file(tmp_path), "--s", "0", "--t", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_vc_st_forged_cut_exit_1(tmp_path, capsys, monkeypatch):
    # vertex 1 and edge 01 leave the path 0-3-2 standing
    forged = CutCertificate(frozenset({1}), EdgeSet.of([(0, 1)]), 2)
    monkeypatch.setattr("vclab.cli.vertex_connectivity", lambda g, s, t: (2, forged))
    assert main(["vc", "st", "--graph", c4_file(tmp_path), "--s", "0", "--t", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_vc_global(tmp_path, capsys):
    c5 = parse_graph("5 5\n0 1\n1 2\n2 3\n3 4\n0 4")
    assert main(["vc", "global", "--graph", write_graph(tmp_path, c5)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\n"
    # the first pivot pair attains the minimum, and its cut and paths certify it
    result = json.loads(captured.err)["result"]
    assert result["value"] == 2 and result["pair"] == [0, 1]
    assert len(result["cut_vertices"]) + len(result["cut_edges"]) == 2
    assert sorted(result["paths"]) == [[0, 1], [0, 4, 3, 2, 1]]


def test_vc_steiner(tmp_path, capsys):
    g = gen_gnp(7, 0.6, 12)
    path = write_graph(tmp_path, g)
    assert main(["vc", "steiner", "--graph", path, "--terminals", "0 2 4"]) == 0
    captured = capsys.readouterr()
    value = int(captured.out)
    result = json.loads(captured.err)["result"]
    assert result["value"] == value and result["terminals"] == [0, 2, 4]
    s, t = result["pair"]
    assert {s, t} <= {0, 2, 4} and s < t
    assert paths_disjoint(g, s, t, result["paths"], value)


# argv after --graph for the C4 0-1-2-3-0, and the pair each certificate is for
C4_GLOBAL = ["global"]  # the pivot 0 with its first partner 1
C4_STEINER = ["steiner", "--terminals", "0 2"]


@pytest.mark.parametrize("argv, paths", [
    (C4_GLOBAL, [[0, 1], [0, 1]]),  # the edge 01 twice
    (C4_GLOBAL, [[0, 1]]),  # fewer paths than the value
    (C4_GLOBAL, [[0, 1], [0, 2, 1]]),  # 0-2 is not an edge
    (C4_STEINER, [[0, 1, 2], [0, 1, 2]]),  # a shared inner vertex
    (C4_STEINER, [[0, 1, 2], [0, 3, 0, 3, 2]]),  # a repeated inner vertex and an endpoint inside
])
def test_vc_min_forged_paths_exit_1(tmp_path, capsys, monkeypatch, argv, paths):
    monkeypatch.setattr("vclab.cli.vertex_disjoint_paths", lambda g, s, t: paths)
    assert main(["vc", *argv, "--graph", c4_file(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("argv, cut", [
    (C4_GLOBAL, CutCertificate(frozenset({2}), EdgeSet.of([(0, 3)]), 2)),  # the edge 01 stays
    (C4_STEINER, CutCertificate(frozenset({1}), EdgeSet.of([(0, 1)]), 2)),  # 0-3-2 stays
])
def test_vc_min_forged_cut_exit_1(tmp_path, capsys, monkeypatch, argv, cut):
    monkeypatch.setattr("vclab.cli.vertex_connectivity", lambda g, s, t: (2, cut))
    assert main(["vc", *argv, "--graph", c4_file(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("solver, argv, claim", [
    ("global_vc_pair", C4_GLOBAL, (1, (0, 1))),  # below kappa(0, 1) = 2
    ("steiner_vc_pair", C4_STEINER, (3, (0, 2))),  # above kappa(0, 2) = 2
])
def test_vc_min_forged_value_exit_1(tmp_path, capsys, monkeypatch, solver, argv, claim):
    monkeypatch.setattr(f"vclab.cli.{solver}", lambda *args: claim)
    assert main(["vc", *argv, "--graph", c4_file(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_vc_ssvc_row(tmp_path, capsys):
    path = write_graph(tmp_path, parse_graph("4 3\n0 1\n0 2\n0 3"))
    assert main(["vc", "ssvc", "--graph", path, "--s", "0"]) == 0
    assert capsys.readouterr().out == "-1\t1\t1\t1\n"


def test_vc_fast_equals_naive(tmp_path, capsys):
    path = write_graph(tmp_path, gen_gnp(12, 0.5, 9))
    a, b = tmp_path / "naive.tsv", tmp_path / "fast.tsv"
    assert main(["vc", "apvc", "--graph", path, "--algo", "naive", "--out", str(a)]) == 0
    capsys.readouterr()
    assert main(["vc", "apvc", "--graph", path, "--algo", "fast", "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "seed" not in json.loads(capsys.readouterr().out)  # fast draws nothing at random


def test_vc_sampled_same_bytes_across_threads(tmp_path):
    path = write_graph(tmp_path, gen_gnp(14, 0.5, 77))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.tsv"
        assert main(["vc", "apvc", "--graph", path, "--algo", "sampled", "--k", "3",
                     "--seed", "5", "--threads", threads, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_vc_report_echoes_sampler_params_only_for_sampled(tmp_path, capsys):
    path = write_graph(tmp_path, gen_gnp(10, 0.5, 4))
    out = str(tmp_path / "m.tsv")
    base = ["vc", "apvc", "--graph", path, "--threads", "1", "--out", out]
    assert main(base + ["--algo", "fast"]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert "c" not in params and "fallback" not in params and "k" not in params
    assert main(base + ["--algo", "sampled", "--k", "2", "--seed", "1"]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params["c"] == 4.0 and params["fallback"] is True and params["k"] == 2


def test_vc_param_validation(tmp_path):
    path = p3_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["vc", "st", "--graph", path, "--s", "0"])  # missing --t
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["vc", "apvc", "--graph", path, "--algo", "sampled"])  # missing --k
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["vc", "global", "--graph", path, "--algo", "fast"])  # global is naive-only
    assert exc.value.code == 2


def test_vc_unreadable_graph_exit_2(tmp_path, capsys):
    assert main(["vc", "global", "--graph", str(tmp_path / "missing.txt")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["apvc", "--algo", "fast", "--k", "-2"],
    ["ssvc", "--algo", "fast", "--s", "0", "--k", "-2"],
    ["apvc", "--algo", "sampled", "--k", "2", "--c", "-1"],
    ["ssvc", "--algo", "sampled", "--s", "0", "--k", "2", "--c", "0"],
    ["steiner", "--terminals", "a b"],
    ["apvc", "--algo", "sampled", "--k", "3", "--c", "1e308"],  # c k^2 ln n overflows
    ["apvc", "--algo", "naive", "--k", "3"],  # --k applies only to sampled
    ["apvc", "--algo", "fast", "--k", "3"],
])
def test_vc_bad_input_exit_2(tmp_path, capsys, argv):
    path = p3_file(tmp_path)
    assert main(["vc", argv[0], "--graph", path, "--threads", "1"] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["gen", "gnp", "--n", "5", "--p", "2"],
    ["gen", "planted4", "--n", "3", "--p", "0.5"],
    ["gen", "gnp", "--n", "-3", "--p", "0.5"],
    ["verify", "flow", "--n", "1"],
    ["gen", "gnp", "--n", "5", "--p", "0.5", "--seed", "1", "--out", "{missing}/x.txt"],
    ["verify", "flow", "--seeds", "-1"],
    ["gen", "fourpartite", "--graph", "{missing}/g.txt"],  # unreadable source graph
    ["verify", "sampler", "--c", "0"],
    ["verify", "flow", "--n", "100000", "--seeds", "1"],  # above the brute-force limit
    ["verify", "flow", "--c", "-1"],  # --c and --fallback belong to the sampler suite
    ["verify", "gadget", "--no-fallback"],
])
def test_gen_verify_out_bad_input_exit_2(tmp_path, argv):
    assert_cli_exit_2([arg.format(missing=tmp_path / "missing") for arg in argv])


@pytest.mark.parametrize("files, argv", [
    ({"g.txt": "100000000000 0\n"}, ["vc", "global", "--graph", "g.txt"]),  # header above MAX_VERTICES
    ({"g.txt": "3 2\n0 1\n1 2\n", "d.txt": "0 1\n1 1\n"},
     ["reduce", "steiner", "--graph", "g.txt", "--demand", "d.txt"]),  # self-loop demand line
    # canonical-looking documents: the bulk parser rejects them, the line parser names the line
    ({"g.txt": "3 2\n0 1\n0 1\n"}, ["vc", "global", "--graph", "g.txt"]),  # duplicate edge
    ({"g.txt": "3 2\n0 1\n1 0\n"}, ["vc", "global", "--graph", "g.txt"]),  # reversed duplicate
    ({"g.txt": "3 1\n0 3\n"}, ["vc", "global", "--graph", "g.txt"]),  # endpoint out of range
    ({"g.txt": "3 1\n1 1\n"}, ["vc", "global", "--graph", "g.txt"]),  # self-loop
])
def test_bad_input_files_exit_2(tmp_path, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    stderr = assert_cli_exit_2([str(tmp_path / arg) if arg in files else arg for arg in argv])
    assert re.match(r"error: line [0-9]+: ", stderr)


def run_python(args):
    """Run a fresh interpreter that imports this vclab, with a timeout."""
    src = str(Path(vclab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def assert_cli_exit_2(argv):
    # a subprocess with a timeout, so a row that spins fails instead of hanging
    done = run_python(["-m", "vclab.cli", *argv])
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error:")
    return done.stderr


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_apvc(tmp_path, capsys):
    path = write_graph(tmp_path, gen_gnp(6, 0.5, 1))
    out = tmp_path / "hard.txt"
    assert main(["reduce", "apvc", "--graph", path, "--out", str(out)]) == 0
    hard = parse_hard_instance(out.read_text())
    assert hard.graph.n == 60
    report = json.loads(capsys.readouterr().out)
    assert report["instance"]["n"] == 60


def test_reduce_steiner(tmp_path):
    g = gen_gnp(4, 0.9, 6)
    path = write_graph(tmp_path, g)
    demand = tmp_path / "demand.txt"
    demand.write_text("\n".join(f"{u} {v}" for u, v in g.edges()[:2]) + "\n")
    out = tmp_path / "hard.txt"
    assert main(["reduce", "steiner", "--graph", path, "--demand", str(demand), "--out", str(out)]) == 0
    hard = parse_hard_instance(out.read_text())
    assert hard.graph.n == 128
    assert hard.uniform_threshold == 21
    assert len(hard.demand) == 2


def test_reduce_steiner_needs_demand(tmp_path):
    path = write_graph(tmp_path, gen_gnp(4, 0.9, 6))
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "steiner", "--graph", path])
    assert exc.value.code == 2


def test_reduce_rejects_foreign_demand(tmp_path, capsys):
    g = parse_graph("4 2\n0 1\n2 3")
    path = write_graph(tmp_path, g)
    demand = tmp_path / "demand.txt"
    demand.write_text("0 2\n")
    assert main(["reduce", "steiner", "--graph", path, "--demand", str(demand)]) == 2
    assert "demand" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_gadget(capsys):
    assert main(["verify", "gadget", "--seeds", "10", "--seed", "1"]) == 0
    assert "suite gadget: pass" in capsys.readouterr().out


def test_verify_sampler_flags(capsys):
    assert main(["verify", "sampler", "--seeds", "5", "--n", "12", "--seed", "2",
                 "--no-fallback", "--c", "4.0"]) == 0
    assert "suite sampler: pass" in capsys.readouterr().out


def test_timings_survive_a_wall_clock_that_steps_back(tmp_path, capsys, monkeypatch):
    # durations come from a monotonic clock, so a wall clock that runs
    # backwards leaves every reported timing non-negative
    ticks = itertools.count(0, -1000)
    monkeypatch.setattr(time, "time", lambda: float(next(ticks)))
    path = p3_file(tmp_path)
    demand = tmp_path / "demand.txt"
    demand.write_text("0 1\n")
    out = str(tmp_path / "out.txt")
    for argv in (
        ["gen", "gnp", "--n", "6", "--p", "0.5", "--seed", "1"],
        ["vc", "st", "--graph", path, "--s", "0", "--t", "2"],
        ["reduce", "apvc", "--graph", path],
        ["reduce", "steiner", "--graph", path, "--demand", str(demand)],
    ):
        assert main(argv + ["--out", out]) == 0
        timings = json.loads(capsys.readouterr().out)["timings"]
        assert timings and min(timings.values()) >= 0, (argv, timings)
    for name, suite in SUITES.items():
        assert suite(trials=1).seconds >= 0, name


def test_bench_subcommand_is_gone(capsys):
    # perfbench/run.py is the one benchmark; argparse rejects the old choice
    with pytest.raises(SystemExit) as exc:
        main(["bench", "apvc"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# threads resolution
# ---------------------------------------------------------------------------


def test_resolve_threads(monkeypatch):
    assert resolve_threads(4) == 4
    monkeypatch.setenv(THREADS_ENV, "3")
    assert resolve_threads(None) == 3
    monkeypatch.delenv(THREADS_ENV)
    assert resolve_threads(None) >= 1
    with pytest.raises(VclabError):
        resolve_threads(0)
    monkeypatch.setenv(THREADS_ENV, "zero")
    with pytest.raises(VclabError):
        resolve_threads(None)


def test_bad_threads_env_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(THREADS_ENV, "-2")
    path = p3_file(tmp_path)
    assert main(["vc", "apvc", "--graph", path]) == 2
    assert THREADS_ENV in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dependencies
# ---------------------------------------------------------------------------

STDLIB_ONLY = """
import sys
before = set(sys.modules)
import vclab, vclab.cli
from vclab.graphs import emit_graph, gen_gnp, parse_graph
g = parse_graph(emit_graph(gen_gnp(8, 0.5, 1)))
assert vclab.apvc_naive(g).to_tsv().startswith("8\\n")
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - {"vclab"} - sys.stdlib_module_names))
"""


def test_vclab_needs_only_the_standard_library():
    done = run_python(["-c", STDLIB_ONLY])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
