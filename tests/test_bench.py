"""Benchmark sweep machinery: seed derivation, result rows and aggregation."""

import io
import math
from concurrent.futures import Future

import pytest

from walksynth import IsolatedNodeError
from walksynth.bench import (
    AGG_HEADER,
    RAW_HEADER,
    SweepResultRow,
    SweepSpec,
    aggregate_rows,
    derive_seed,
    run_sweep,
    write_agg_csv,
    write_raw_csv,
)


def small_spec(**overrides) -> SweepSpec:
    base = dict(
        community_sizes=[20, 20, 20],
        k_avg=10.0,
        mu_values=[0.0],
        realizations=3,
    )
    base.update(overrides)
    return SweepSpec(**base)


# --------------------------------------------------------------------- spec

def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(community_sizes=[])
    with pytest.raises(ValueError):
        small_spec(mu_values=[0.2, 1.0])
    with pytest.raises(ValueError):
        small_spec(realizations=0)
    for objectives, message in [
        (("fancy",), "unknown objective 'fancy'"),
        (("cluster_mi",), "unknown objective 'cluster_mi'"),
        ((), r"objectives: expected distinct names, got \[\]"),
        (
            ["synthesis", "modularity", "synthesis"],
            r"objectives: expected distinct names, got \['synthesis', 'modularity', 'synthesis'\]",
        ),
    ]:
        with pytest.raises(ValueError, match=f"^{message}"):
            small_spec(objectives=objectives)
    for k_avg in (0.0, math.nan):
        with pytest.raises(ValueError, match=r"k_avg must lie in \(0, n\)"):
            small_spec(k_avg=k_avg)


def test_spec_from_dict_roundtrip_and_missing_key():
    spec = SweepSpec.from_dict(
        {
            "community_sizes": [20, 20, 20],
            "k_avg": 10,
            "mu": [0.0, 0.3],
            "realizations": 2,
            "seed_base": 5,
            "objectives": ["synthesis", "modularity"],
        }
    )
    assert spec.n == 60
    assert spec.mu_values == [0.0, 0.3]
    assert spec.objectives == ("synthesis", "modularity")
    assert spec.seed_base == 5
    with pytest.raises(ValueError, match="^k_avg: missing key$"):
        SweepSpec.from_dict({"community_sizes": [4, 4]})
    # a whole number may be written as a float or a string
    spec = SweepSpec.from_dict(
        {"community_sizes": [20.0, "20"], "k_avg": 10, "mu": [0.0], "realizations": 2.0}
    )
    assert spec.community_sizes == [20, 20]
    assert spec.realizations == 2
    assert all(type(x) is int for x in [*spec.community_sizes, spec.realizations])


def test_derive_seed_is_stable_and_point_specific():
    spec = small_spec(mu_values=[0.0, 0.3])
    s1 = derive_seed(spec, 0.0, 0)
    assert s1 == derive_seed(spec, 0.0, 0)
    assert s1 != derive_seed(spec, 0.0, 1)
    assert s1 != derive_seed(spec, 0.3, 0)
    shifted = small_spec(mu_values=[0.0, 0.3], seed_base=1)
    assert derive_seed(shifted, 0.0, 0) != s1
    assert 0 <= s1 < 2**63


# -------------------------------------------------------------------- sweeps

def test_sweep_perfect_recovery_at_zero_mixing():
    rows = run_sweep(small_spec())
    assert len(rows) == 3
    for row in rows:
        assert row.mu == 0.0
        assert row.objective == "synthesis"
        assert row.ami == 1.0
        assert row.ms == 0
        assert math.isfinite(row.objective_value)
    assert [r.realization for r in rows] == [0, 1, 2]


def test_sweep_csv_output_is_deterministic():
    spec = small_spec(realizations=2)
    first_raw, first_agg = io.StringIO(), io.StringIO()
    rows = run_sweep(spec)
    write_raw_csv(rows, first_raw)
    write_agg_csv(aggregate_rows(rows), first_agg)
    second_raw, second_agg = io.StringIO(), io.StringIO()
    rows2 = run_sweep(spec)
    write_raw_csv(rows2, second_raw)
    write_agg_csv(aggregate_rows(rows2), second_agg)
    assert first_raw.getvalue() == second_raw.getvalue()
    assert first_agg.getvalue() == second_agg.getvalue()
    assert first_raw.getvalue().splitlines()[0] == RAW_HEADER
    assert first_agg.getvalue().splitlines()[0] == AGG_HEADER


def test_sweep_infeasible_point_yields_nan_rows():
    spec = SweepSpec(community_sizes=[3, 3], k_avg=4.0, mu_values=[0.0], realizations=2)
    rows = run_sweep(spec)
    assert len(rows) == 2
    assert all(math.isnan(r.ami) for r in rows)
    (agg,) = aggregate_rows(rows)
    assert agg.count == 0
    assert math.isnan(agg.ami_mean)


def test_sweep_isolated_node_draws_yield_nan_rows(capsys):
    # at k_avg 2, realizations 2 and 3 draw a node with no edges; 0 and 1 do not
    spec = SweepSpec(community_sizes=[6, 6], k_avg=2.0, mu_values=[0.2], realizations=4)
    rows = run_sweep(spec)
    assert [r.realization for r in rows] == [0, 1, 2, 3]
    assert [math.isnan(r.ami) for r in rows] == [False, False, True, True]
    assert [math.isnan(r.objective_value) for r in rows] == [False, False, True, True]
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 2
    for realization, line in zip((2, 3), warnings):
        assert line.startswith(f"warning: mu=0.2 realization={realization} failed: node ")
        assert line.endswith(" has zero degree")


def test_sweep_raises_on_invariant_failures(monkeypatch):
    # only failed draws become nan rows; an error inside the search must
    # surface, even one of the types a failed draw raises
    def broken(*args, **kwargs):
        raise ValueError("objective value exceeds its cluster-level bound")

    def isolated(*args, **kwargs):
        raise IsolatedNodeError("node 0 has zero degree")

    for target, fault, error, match in (
        ("walksynth.bench.optimize", broken, ValueError, "cluster-level bound"),
        ("walksynth.optimizer.cluster_aggregates", isolated, IsolatedNodeError, "zero degree"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(target, fault)
            with pytest.raises(error, match=match):
                run_sweep(small_spec(realizations=1))


def test_aggregate_rows_mean_and_std():
    def row(ami, realization):
        return SweepResultRow(
            n=6,
            k_avg=2.0,
            sizes="3-3",
            mu=0.1,
            realization=realization,
            objective="synthesis",
            ami=ami,
            objective_value=0.5,
            ms=0,
        )

    rows = [row(0.8, 0), row(1.0, 1), row(float("nan"), 2)]
    (agg,) = aggregate_rows(rows)
    assert agg.count == 2
    assert agg.ami_mean == pytest.approx(0.9, abs=1e-15)
    assert agg.ami_std == pytest.approx(0.1, abs=1e-15)


def test_timing_column_defaults_to_zero_and_can_be_enabled():
    spec = small_spec(realizations=1)
    (cold,) = run_sweep(spec)
    assert cold.ms == 0
    (timed,) = run_sweep(spec, timing=True)
    assert timed.ms > 0


def test_sweep_opens_no_more_workers_than_grid_points(monkeypatch):
    # the pool starts all its worker processes up front, so a worker count
    # above the number of grid points must be capped before the pool opens
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr("walksynth.bench.ProcessPoolExecutor", InlinePool)
    for realizations in (2, 1):
        spec = small_spec(community_sizes=[8, 8], k_avg=4.0, realizations=realizations)
        assert run_sweep(spec, workers=64) == run_sweep(spec)
    # a one-point grid runs in this process
    assert opened == [2]

