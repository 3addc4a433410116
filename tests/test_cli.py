"""End-to-end command-line tests driving main() in-process."""

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import walksynth
from walksynth import load_edge_list, transition_matrix
from walksynth.cli import main

TRIANGLES = "0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"
TRIANGLES_TRUTH = "0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n"


@pytest.fixture
def triangles(tmp_path):
    graph = tmp_path / "g.txt"
    truth = tmp_path / "truth.txt"
    graph.write_text(TRIANGLES)
    truth.write_text(TRIANGLES_TRUTH)
    return graph, truth


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -------------------------------------------------------------------- detect

def test_detect_writes_partition_and_report(triangles, tmp_path, capsys):
    graph, truth = triangles
    out = tmp_path / "pred.txt"
    report = tmp_path / "report.json"
    rc, stdout, stderr = run(
        capsys, "detect", "--graph", graph, "--out", out, "--report", report
    )
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["objective"] == "synthesis"
    assert payload["k"] == 2
    assert payload["value"] == pytest.approx(1.0, abs=1e-9)
    assert payload["bound_cluster_mi"] == pytest.approx(1.0, abs=1e-9)
    assert payload["bound_node_mi"] == pytest.approx(math.log2(6.0) - 1.0, abs=1e-9)
    assert "K=2 J=" in stderr
    assert json.loads(report.read_text()) == payload
    assert sorted(out.read_text().splitlines()) == sorted(TRIANGLES_TRUTH.splitlines())


def test_detect_then_eval_round_trip(triangles, tmp_path, capsys):
    graph, truth = triangles
    out = tmp_path / "pred.txt"
    rc, _, _ = run(capsys, "detect", "--graph", graph, "--out", out)
    assert rc == 0
    rc, stdout, stderr = run(
        capsys, "eval", "--graph", graph, "--truth", truth, "--pred", out
    )
    assert rc == 0
    payload = json.loads(stdout)
    assert payload == {"ami": 1.0, "matches": 2, "misclassified": 0, "k_true": 2, "k_pred": 2}
    assert "AMI=1.0000" in stderr


def test_detect_rejects_unknown_objective(triangles, capsys):
    # cluster_mi is no objective: the singletons maximize it on every graph
    graph, _ = triangles
    for command in ("detect", "oracle"):
        for objective in ("louvain", "cluster_mi"):
            rc, stdout, stderr = run(capsys, command, "--graph", graph, "--objective", objective)
            assert rc == 1
            assert stdout == ""
            assert stderr.startswith("usage:")
            assert "objective" in stderr


def test_zero_weight_edge_changes_no_walk_and_no_detect_output(tmp_path, capsys):
    # a zero-weight edge is no transition; nodes 1 and 4 keep other edges
    # (integer weights sum exactly in any order)
    edges = "0 1 2\n0 2\n1 2\n2 3\n3 4 2\n3 5\n4 5\n"
    without, with_zero = tmp_path / "without.txt", tmp_path / "with_zero.txt"
    without.write_text(edges)
    with_zero.write_text(edges + "1 4 0\n")
    w0, w1 = (transition_matrix(load_edge_list(path)) for path in (without, with_zero))
    for attr in ("indptr", "indices", "P", "flows"):
        assert np.array_equal(getattr(w0, attr), getattr(w1, attr)), attr
    assert w0.neighbour_flows == w1.neighbour_flows
    for objective in ("synthesis", "modularity"):
        outputs = []
        for graph in (without, with_zero):
            out = tmp_path / f"{graph.stem}_{objective}.part"
            rc, stdout, _ = run(
                capsys, "detect", "--graph", graph, "--objective", objective, "--out", out
            )
            assert rc == 0
            outputs.append((stdout, out.read_bytes()))
        assert outputs[0] == outputs[1], objective


# ---------------------------------------------------------------------- eval

def test_eval_against_single_cluster(triangles, tmp_path, capsys):
    graph, truth = triangles
    pred = tmp_path / "single.txt"
    pred.write_text("".join(f"{i} 0\n" for i in range(6)))
    rc, stdout, _ = run(capsys, "eval", "--graph", graph, "--truth", truth, "--pred", pred)
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["ami"] == 0.0
    assert payload["matches"] == 1
    assert payload["misclassified"] == 3
    assert payload["k_pred"] == 1


def test_eval_rejects_foreign_node_labels(triangles, tmp_path, capsys):
    graph, truth = triangles
    pred = tmp_path / "foreign.txt"
    pred.write_text("".join(f"{i + 10} 0\n" for i in range(6)))
    rc, _, stderr = run(capsys, "eval", "--graph", graph, "--truth", truth, "--pred", pred)
    assert rc == 2
    assert "error:" in stderr


# --------------------------------------------------------------------- stats

def test_stats_rejects_cluster_ids_beyond_64_bits(triangles, tmp_path, capsys):
    graph, _ = triangles
    part = tmp_path / "huge.txt"
    part.write_text("0 0\n1 100000000000000000000000\n2 0\n3 1\n4 1\n5 1\n")
    rc, _, stderr = run(capsys, "stats", "--graph", graph, "--partition", part)
    assert rc == 2
    assert "line 2" in stderr


def test_stats_two_triangles(triangles, tmp_path, capsys):
    graph, truth = triangles
    csv = tmp_path / "stats.csv"
    rc, stdout, _ = run(capsys, "stats", "--graph", graph, "--partition", truth, "--csv", csv)
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["clusters"] == 2
    assert payload["nontrivial_clusters"] == 2
    assert payload["nontrivial_fraction"] == 1.0
    assert payload["modularity"] == pytest.approx(0.5, abs=1e-12)
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("cluster,size,")
    assert len(lines) == 3


def test_stats_min_size_filters_everything(triangles, capsys):
    graph, truth = triangles
    rc, stdout, _ = run(
        capsys, "stats", "--graph", graph, "--partition", truth, "--min-size", "7"
    )
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["nontrivial_clusters"] == 0
    assert payload["nontrivial_fraction"] == 0.0


def test_stats_rejects_weighted_graphs(tmp_path, capsys):
    graph = tmp_path / "weighted.txt"
    graph.write_text("0 1 2.5\n1 2\n")
    part = tmp_path / "p.txt"
    part.write_text("0 0\n1 0\n2 0\n")
    rc, _, stderr = run(capsys, "stats", "--graph", graph, "--partition", part)
    assert rc == 2
    assert "error:" in stderr


# ----------------------------------------------------------------------- gen

def test_gen_detect_eval_pipeline(tmp_path, capsys):
    graph = tmp_path / "bench.txt"
    truth = tmp_path / "bench_truth.txt"
    labels = tmp_path / "bench_labels.txt"
    rc, stdout, _ = run(
        capsys,
        "gen", "--sizes", "8,8,8", "--k-avg", "5", "--mu", "0.0", "--seed", "3",
        "--out-graph", graph, "--out-truth", truth, "--label-map", labels,
    )
    assert rc == 0
    meta = json.loads(stdout)
    assert meta["n"] == 24 and meta["communities"] == 3
    assert labels.read_text().splitlines()[0] == "0 0"

    pred = tmp_path / "pred.txt"
    rc, _, _ = run(capsys, "detect", "--graph", graph, "--out", pred)
    assert rc == 0
    rc, stdout, _ = run(capsys, "eval", "--graph", graph, "--truth", truth, "--pred", pred)
    assert rc == 0
    assert json.loads(stdout)["ami"] == 1.0


def test_gen_requires_model_parameters(tmp_path, capsys):
    rc, _, stderr = run(
        capsys,
        "gen", "--sizes", "8,8", "--k-avg", "4",
        "--out-graph", tmp_path / "g.txt", "--out-truth", tmp_path / "t.txt",
    )
    assert rc == 1
    assert "mu" in stderr


def test_gen_rejects_nan_k_avg(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    rc, stdout, stderr = run(
        capsys,
        "gen", "--sizes", "4,4", "--k-avg", "nan", "--mu", "0.1",
        "--out-graph", graph, "--out-truth", tmp_path / "t.txt",
    )
    assert rc == 2
    assert stdout == ""
    assert stderr == "error: k_avg must lie in (0, n)\n"
    assert not graph.exists()


def test_gen_reads_config_file_with_flag_overrides(tmp_path, capsys):
    config = tmp_path / "gen.cfg"
    config.write_text("sizes = 6,6\nk_avg = 4\nmu = 0.2\nseed = 11\n")
    graph, truth = tmp_path / "g.txt", tmp_path / "t.txt"
    rc, stdout, _ = run(
        capsys,
        "gen", "--config", config, "--mu", "0.0",
        "--out-graph", graph, "--out-truth", truth,
    )
    assert rc == 0
    meta = json.loads(stdout)
    assert meta["n"] == 12
    assert meta["mu"] == 0.0  # flag wins over the config value
    assert meta["seed"] == 11
    assert graph.exists() and truth.exists()


def test_gen_seed_flag_wins_over_config_even_at_zero(tmp_path, capsys):
    # the seed comes from the flag, then the config, then 0
    config = tmp_path / "gen.cfg"
    config.write_text("sizes = 6,6\nk_avg = 4\nmu = 0.2\nseed = 5\n")
    bare = tmp_path / "bare.cfg"
    bare.write_text("sizes = 6,6\nk_avg = 4\nmu = 0.2\n")
    seeds = {}
    for name, cfg, flags in [
        ("flag 0", config, ["--seed", "0"]),
        ("flag 1", config, ["--seed", "1"]),
        ("config", config, []),
        ("default", bare, []),
    ]:
        rc, stdout, _ = run(
            capsys, "gen", "--config", cfg, *flags,
            "--out-graph", tmp_path / "g.txt", "--out-truth", tmp_path / "t.txt",
        )
        assert rc == 0, name
        seeds[name] = json.loads(stdout)["seed"]
    assert seeds == {"flag 0": 0, "flag 1": 1, "config": 5, "default": 0}


def test_negative_seed_flag_is_a_usage_error_and_in_a_config_a_data_error(
    triangles, tmp_path, capsys
):
    graph, _ = triangles
    outs = ["--out-graph", tmp_path / "g.txt", "--out-truth", tmp_path / "t.txt"]
    for argv in (
        ["detect", "--graph", graph, "--seed", "-1"],
        ["gen", "--sizes", "6,6", "--k-avg", "4", "--mu", "0.2", "--seed", "-5", *outs],
    ):
        rc, stdout, stderr = run(capsys, *argv)
        assert rc == 1, argv[0]
        assert stdout == ""
        assert stderr.startswith("usage:")
        assert "--seed: seed must be non-negative" in stderr
    config = tmp_path / "gen.cfg"
    config.write_text("sizes = 6,6\nk_avg = 4\nmu = 0.2\nseed = -5\n")
    rc, stdout, stderr = run(capsys, "gen", "--config", config, *outs)
    assert rc == 2
    assert stdout == ""
    assert "seed must be non-negative, got -5" in stderr


def test_bad_sizes_flag_is_a_usage_error(tmp_path, capsys):
    rc, stdout, stderr = run(
        capsys, "gen", "--sizes", "6,x", "--k-avg", "4", "--mu", "0.2",
        "--out-graph", tmp_path / "g.txt", "--out-truth", tmp_path / "t.txt",
    )
    assert rc == 1
    assert stdout == ""
    assert stderr.startswith("usage:")
    assert "--sizes: invalid comma-separated sizes: '6,x'" in stderr
    assert not (tmp_path / "g.txt").exists()


def test_bad_config_value_is_a_data_error_naming_file_and_key(tmp_path, capsys):
    config = tmp_path / "gen.cfg"
    config.write_text("sizes = 6,6\nk_avg = four\nmu = 0.2\n")
    rc, stdout, stderr = run(
        capsys, "gen", "--config", config,
        "--out-graph", tmp_path / "g.txt", "--out-truth", tmp_path / "t.txt",
    )
    assert rc == 2
    assert stdout == ""
    assert f"{config}: k_avg: " in stderr
    assert "'four'" in stderr
    assert not (tmp_path / "g.txt").exists()


# --------------------------------------------------------------------- sweep

def test_sweep_runs_grid_and_is_deterministic(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "community_sizes": [20, 20, 20],
                "k_avg": 10,
                "mu": [0.0],
                "realizations": 3,
            }
        )
    )
    raw, agg = tmp_path / "raw.csv", tmp_path / "agg.csv"
    rc, stdout, _ = run(
        capsys, "sweep", "--config", config, "--out-raw", raw, "--out-agg", agg
    )
    assert rc == 0
    assert json.loads(stdout)["rows"] == 3
    raw_lines = raw.read_text().splitlines()
    assert raw_lines[0] == "n,k_avg,sizes,mu,realization,objective,ami,objective_value,ms"
    assert len(raw_lines) == 4
    assert all(",1.0," in line for line in raw_lines[1:])
    agg_lines = agg.read_text().splitlines()
    assert agg_lines[0] == "n,k_avg,sizes,mu,objective,ami_mean,ami_std,count"
    assert len(agg_lines) == 2

    first = raw.read_text()
    rc, _, _ = run(capsys, "sweep", "--config", config, "--out-raw", raw, "--out-agg", agg)
    assert rc == 0
    assert raw.read_text() == first


def test_sweep_failure_warning_goes_to_stderr(tmp_path, capsys):
    # a community of size 3 cannot host the internal degree k_avg = 4 asks for
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps({"community_sizes": [3, 3], "k_avg": 4, "mu": [0.2], "realizations": 1})
    )
    rc, stdout, stderr = run(
        capsys,
        "sweep", "--config", config,
        "--out-raw", tmp_path / "r.csv", "--out-agg", tmp_path / "a.csv",
    )
    assert rc == 0
    assert json.loads(stdout) == {"rows": 1, "grid_points": 1, "objectives": ["synthesis"]}
    assert "warning: mu=0.2 realization=0 failed" in stderr
    assert "failed grid points: 1" in stderr


def test_sweep_error_inside_the_search_exits_2(tmp_path, capsys, monkeypatch):
    # a failed draw is a nan row, but the same error type raised by the
    # search is a fault: exit 2, and no row or CSV is written
    def isolated(*args, **kwargs):
        raise walksynth.IsolatedNodeError("node 0 has zero degree")

    monkeypatch.setattr("walksynth.optimizer.cluster_aggregates", isolated)
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps({"community_sizes": [20, 20, 20], "k_avg": 10, "mu": [0.0], "realizations": 1})
    )
    raw, agg = tmp_path / "raw.csv", tmp_path / "agg.csv"
    rc, stdout, stderr = run(capsys, "sweep", "--config", config, "--out-raw", raw, "--out-agg", agg)
    assert rc == 2
    assert stdout == ""
    assert stderr == "error: node 0 has zero degree\n"
    assert not raw.exists() and not agg.exists()


def test_sweep_rejects_bad_config(tmp_path, capsys):
    # each message names the file and, for a bad value, its key
    good = {"community_sizes": [4, 4], "k_avg": 2, "mu": [0.2], "realizations": 1}
    cases = [
        ({"community_sizes": [4, 4]}, "k_avg: missing key"),
        ({**good, "mu": 0.3}, "mu: expected a list, got 0.3"),
        ({**good, "community_sizes": 20}, "community_sizes: expected a list, got 20"),
        ([good], "sweep config must be a JSON object"),
        ({**good, "objectives": "modularity"}, "objectives: expected a list"),
        ({**good, "objectives": ["cluster_mi"]}, "unknown objective 'cluster_mi'"),
        ({**good, "realizations": None}, "realizations: expected an integer, got None"),
        ({**good, "mu": [[0.2]]}, "mu: float() argument must be"),
        ({**good, "k_avg": "x"}, "k_avg: could not convert string to float: 'x'"),
        # counts and sizes are refused, not truncated, when not whole
        ({**good, "community_sizes": [10, "x"]}, "community_sizes: expected an integer, got 'x'"),
        ({**good, "community_sizes": [4.5, 4]}, "community_sizes: expected an integer, got 4.5"),
        ({**good, "realizations": 1.7}, "realizations: expected an integer, got 1.7"),
        ({**good, "seed_base": 0.5}, "seed_base: expected an integer, got 0.5"),
        # an empty list used to crash after writing the CSVs, and a repeated
        # objective ran every search twice
        ({**good, "objectives": []}, "objectives: expected distinct names, got []"),
        (
            {**good, "objectives": ["synthesis"] * 2},
            "objectives: expected distinct names, got ['synthesis', 'synthesis']",
        ),
        ({**good, "k_avg": math.nan}, "k_avg must lie in (0, n)"),
    ]
    config = tmp_path / "bad.json"
    for data, message in cases:
        config.write_text(json.dumps(data))
        rc, stdout, stderr = run(
            capsys,
            "sweep", "--config", config,
            "--out-raw", tmp_path / "r.csv", "--out-agg", tmp_path / "a.csv",
        )
        assert rc == 2, data
        assert stdout == ""
        assert stderr.startswith(f"error: {config}: "), stderr
        assert message in stderr, stderr
    assert not (tmp_path / "r.csv").exists()


def test_sweep_workers_below_one_is_a_usage_error(tmp_path, capsys):
    # argparse refuses the value, so no worker process is started
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps({"community_sizes": [4, 4], "k_avg": 2, "mu": [0.2], "realizations": 1})
    )
    outs = ["--out-raw", tmp_path / "r.csv", "--out-agg", tmp_path / "a.csv"]
    for workers, message in (
        ("0", "workers must be at least 1, got 0"),
        ("-2", "workers must be at least 1, got -2"),
        ("x", "invalid int value: 'x'"),
    ):
        rc, stdout, stderr = run(capsys, "sweep", "--config", config, *outs, "--workers", workers)
        assert rc == 1, workers
        assert stdout == ""
        assert stderr.startswith("usage:")
        assert f"--workers: {message}" in stderr
    assert not (tmp_path / "r.csv").exists()


# -------------------------------------------------------------------- oracle

def test_oracle_triangle(tmp_path, capsys):
    graph = tmp_path / "tri.txt"
    graph.write_text("0 1\n0 2\n1 2\n")
    rc, stdout, _ = run(capsys, "oracle", "--graph", graph)
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["k"] == 3
    assert payload["value"] == pytest.approx(math.log2(1.5), abs=1e-12)
    assert payload["assignment"] == [0, 1, 2]


def test_oracle_refuses_large_graphs(tmp_path, capsys):
    graph = tmp_path / "path13.txt"
    graph.write_text("".join(f"{i} {i + 1}\n" for i in range(12)))
    rc, _, stderr = run(capsys, "oracle", "--graph", graph)
    assert rc == 1
    assert "cap" in stderr


def test_integer_flags_below_one_are_usage_errors(triangles, capsys):
    # an enumeration cap or a minimum cluster size below 1 is refused by
    # argparse, with the usage line, before the graph is read
    graph, truth = triangles
    for argv, flag, value in (
        (["oracle", "--graph", graph], "--cap", "0"),
        (["oracle", "--graph", graph], "--cap", "-1"),
        (["stats", "--graph", graph, "--partition", truth], "--min-size", "0"),
        (["stats", "--graph", graph, "--partition", truth], "--min-size", "-1"),
    ):
        rc, stdout, stderr = run(capsys, *argv, flag, value)
        assert rc == 1, (flag, value)
        assert stdout == ""
        assert stderr.startswith("usage:")
        assert f"{flag}: {flag[2:]} must be at least 1, got {value}" in stderr


# ----------------------------------------------------------------- plumbing

def test_no_command_loads_scipy(tmp_path):
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # the commands themselves import
    script = textwrap.dedent(f"""
        import sys
        from walksynth.cli import main
        d = {str(tmp_path)!r}
        runs = [
            ["gen", "--sizes", "4,4", "--k-avg", "3", "--mu", "0.1", "--seed", "1",
             "--out-graph", d + "/g.txt", "--out-truth", d + "/t.txt"],
            ["detect", "--graph", d + "/g.txt", "--out", d + "/p.txt"],
            ["detect", "--graph", d + "/g.txt", "--objective", "modularity"],
            ["eval", "--graph", d + "/g.txt", "--truth", d + "/t.txt", "--pred", d + "/p.txt"],
            ["stats", "--graph", d + "/g.txt", "--partition", d + "/p.txt"],
            ["oracle", "--graph", d + "/g.txt"],
        ]
        for argv in runs:
            assert main(argv) == 0, argv
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = str(Path(walksynth.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_importing_the_cli_loads_no_process_pool():
    # only sweep needs the process pool; loading it at import would slow the
    # start of every other command
    script = textwrap.dedent("""
        import sys
        import walksynth, walksynth.cli
        print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
    """)
    src = str(Path(walksynth.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_missing_graph_file_is_a_data_error(tmp_path, capsys):
    rc, _, stderr = run(capsys, "detect", "--graph", tmp_path / "nope.txt")
    assert rc == 2
    assert "error:" in stderr


def test_malformed_edge_list_is_a_data_error(tmp_path, capsys):
    graph = tmp_path / "bad.txt"
    graph.write_text("0 1\n0 x\n")
    rc, _, stderr = run(capsys, "detect", "--graph", graph)
    assert rc == 2
    assert "line 2" in stderr


def test_no_subcommand_is_a_usage_error(capsys):
    rc, _, _ = run(capsys)
    assert rc == 1
