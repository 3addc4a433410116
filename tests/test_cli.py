"""End-to-end command-line tests driving main() in-process."""

import json
import math

import pytest

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
    graph, _ = triangles
    rc, _, stderr = run(capsys, "detect", "--graph", graph, "--objective", "louvain")
    assert rc == 1
    assert "objective" in stderr


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


def test_sweep_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"community_sizes": [4, 4]}))
    rc, _, stderr = run(
        capsys,
        "sweep", "--config", config,
        "--out-raw", tmp_path / "r.csv", "--out-agg", tmp_path / "a.csv",
    )
    assert rc == 2
    assert "missing key" in stderr


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


# ----------------------------------------------------------------- plumbing

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
