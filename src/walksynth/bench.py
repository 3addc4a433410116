"""Benchmark sweeps over planted-partition grids and their aggregation.

Result rows are fully determined by the sweep spec: per-realization seeds are
derived by hashing the grid point, rows are sorted before writing, and wall
times are reported as 0 unless timing is switched on, so reruns of the same
spec produce byte-identical CSVs.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .graph import (
    InfeasibleModelError,
    PlantedPartitionParams,
    planted_partition,
    read_text,
    write_lines,
)
from .metrics import ami
from .objective import criterion_for
from .optimizer import OptimizerConfig, optimize
from .walk import IsolatedNodeError, transition_matrix

RAW_HEADER = "n,k_avg,sizes,mu,realization,objective,ami,objective_value,ms"
AGG_HEADER = "n,k_avg,sizes,mu,objective,ami_mean,ami_std,count"


@dataclass
class SweepSpec:
    """Grid description: one planted model per mu value, several seeded
    realizations each, evaluated under one or more objectives."""

    community_sizes: list[int]
    k_avg: float
    mu_values: list[float]
    realizations: int
    seed_base: int = 0
    objectives: tuple[str, ...] = ("synthesis",)

    def __post_init__(self):
        self.objectives = tuple(self.objectives)
        if self.realizations < 1:
            raise ValueError("at least one realization required")
        if not self.objectives or len(set(self.objectives)) < len(self.objectives):
            raise ValueError(f"objectives: expected distinct names, got {list(self.objectives)}")
        for obj in self.objectives:
            criterion_for(obj)
        if not self.mu_values:
            raise ValueError("at least one mu value required")
        # parameter domains are config errors; per-seed feasibility is not
        for mu in self.mu_values:
            PlantedPartitionParams(community_sizes=self.community_sizes, k_avg=self.k_avg, mu=mu)

    @property
    def n(self) -> int:
        return int(sum(self.community_sizes))

    @property
    def sizes_id(self) -> str:
        return "-".join(str(int(s)) for s in self.community_sizes)

    @staticmethod
    def from_dict(data: dict) -> "SweepSpec":
        """A spec from a parsed JSON config. A bad value raises ValueError
        naming its key; counts and sizes must be whole numbers."""
        if not isinstance(data, dict):
            raise ValueError("sweep config must be a JSON object")
        fields = {}
        for key, parse, default in _CONFIG_KEYS:
            if key not in data and default is None:
                raise ValueError(f"{key}: missing key")
            try:
                fields[key] = parse(data.get(key, default))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key}: {exc}") from None
        return SweepSpec(mu_values=fields.pop("mu"), **fields)

    @staticmethod
    def from_json(source: str | Path | IO[str]) -> "SweepSpec":
        return SweepSpec.from_dict(json.loads(read_text(source)))


def _whole(value) -> int:
    """An int, or a float or string holding one; a fraction is refused, not
    truncated."""
    if isinstance(value, int):
        return int(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _list_of(parse):
    def parse_list(value) -> list:
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {value!r}")
        return [parse(item) for item in value]

    return parse_list


#: (config key, parser, default or None if required); "mu" fills ``mu_values``
_CONFIG_KEYS = (
    ("community_sizes", _list_of(_whole), None),
    ("k_avg", float, None),
    ("mu", _list_of(float), None),
    ("realizations", _whole, None),
    ("seed_base", _whole, 0),
    ("objectives", _list_of(str), ["synthesis"]),
)


@dataclass
class SweepResultRow:
    n: int
    k_avg: float
    sizes: str
    mu: float
    realization: int
    objective: str
    ami: float
    objective_value: float
    ms: int

    def sort_key(self):
        return (self.n, self.sizes, self.k_avg, self.mu, self.realization, self.objective)

    def csv_line(self) -> str:
        return (
            f"{self.n},{self.k_avg!r},{self.sizes},{self.mu!r},{self.realization},"
            f"{self.objective},{self.ami!r},{self.objective_value!r},{self.ms}"
        )


def derive_seed(spec: SweepSpec, mu: float, realization: int) -> int:
    """Stable per-run seed: base xor a hash of the grid point and index."""
    key = f"{spec.sizes_id}|{spec.k_avg!r}|{mu!r}|{realization}"
    digest = hashlib.sha256(key.encode()).digest()
    return (spec.seed_base ^ int.from_bytes(digest[:8], "big")) & 0x7FFFFFFFFFFFFFFF


def _run_point(spec: SweepSpec, mu: float, realization: int, timing: bool) -> list[SweepResultRow]:
    seed = derive_seed(spec, mu, realization)
    try:
        params = PlantedPartitionParams(
            community_sizes=spec.community_sizes, k_avg=spec.k_avg, mu=mu
        )
        g, truth = planted_partition(params, seed)
        # a drawn zero-degree node fails the draw, with the walk's own message
        transition_matrix(g)
    except (InfeasibleModelError, IsolatedNodeError) as exc:
        # keep the grid point visible in the output instead of dropping it
        print(f"warning: mu={mu} realization={realization} failed: {exc}", file=sys.stderr)
        results = [(objective, math.nan, math.nan, 0) for objective in spec.objectives]
    else:
        # the search runs outside the except: an error inside it is a fault
        results = []
        for objective in spec.objectives:
            start = time.perf_counter()
            found, report = optimize(g, OptimizerConfig(objective=objective, seed=seed))
            ms = int(round((time.perf_counter() - start) * 1000)) if timing else 0
            results.append((objective, ami(truth, found), report.value, ms))
    return [
        SweepResultRow(spec.n, spec.k_avg, spec.sizes_id, mu, realization, *result)
        for result in results
    ]


def run_sweep(spec: SweepSpec, timing: bool = False, workers: int = 1) -> list[SweepResultRow]:
    """Run the full grid and return its rows, sorted into canonical order.

    Args:
        spec: the grid description.
        timing: report measured wall time per run in the ms column instead of
            the deterministic 0.
        workers: processes that run grid points in parallel when above 1,
            at most one per point; rows do not depend on scheduling.
    """
    points = [(mu, r) for mu in spec.mu_values for r in range(spec.realizations)]
    workers = min(workers, len(points))
    rows: list[SweepResultRow] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_point, spec, mu, r, timing) for mu, r in points]
            for future in futures:
                rows.extend(future.result())
    else:
        for mu, r in points:
            rows.extend(_run_point(spec, mu, r, timing))
    rows.sort(key=SweepResultRow.sort_key)
    return rows


@dataclass
class SweepAggRow:
    n: int
    k_avg: float
    sizes: str
    mu: float
    objective: str
    ami_mean: float
    ami_std: float
    count: int

    def csv_line(self) -> str:
        return (
            f"{self.n},{self.k_avg!r},{self.sizes},{self.mu!r},{self.objective},"
            f"{self.ami_mean!r},{self.ami_std!r},{self.count}"
        )


def aggregate_rows(rows: Iterable[SweepResultRow]) -> list[SweepAggRow]:
    """Collapse realizations: mean and population standard deviation of AMI
    per grid point and objective. Failed realizations (nan) are excluded
    from the statistics; ``count`` is the number aggregated."""
    groups: dict[tuple, list[SweepResultRow]] = {}
    for row in rows:
        groups.setdefault((row.n, row.sizes, row.k_avg, row.mu, row.objective), []).append(row)
    out = []
    for (n, sizes, k_avg, mu, objective), members in sorted(groups.items()):
        valid = [r.ami for r in members if not np.isnan(r.ami)]
        if valid:
            mean = float(np.mean(valid))
            std = float(np.std(valid))
        else:
            mean = float("nan")
            std = float("nan")
        out.append(
            SweepAggRow(
                n=n,
                k_avg=k_avg,
                sizes=sizes,
                mu=mu,
                objective=objective,
                ami_mean=mean,
                ami_std=std,
                count=len(valid),
            )
        )
    return out


def write_raw_csv(rows: list[SweepResultRow], sink: str | Path | IO[str]) -> None:
    write_lines([RAW_HEADER] + [r.csv_line() for r in rows], sink)


def write_agg_csv(rows: list[SweepAggRow], sink: str | Path | IO[str]) -> None:
    write_lines([AGG_HEADER] + [r.csv_line() for r in rows], sink)

