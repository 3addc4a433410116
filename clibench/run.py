"""Benchmark of the walksynth command line: one workload per run.

Usage, from the root of a checkout:

    python3 clibench/run.py --workload lfr-mid --seed 1 --seconds 15 --trace 0

The run self-tests the reference, times fresh interpreters importing
walksynth (``setup_s``), makes the workload's inputs from the seed, and
starts one operations process that calls ``walksynth.cli.main`` in closed
loop, whole rounds at a time (see worker.py). It then checks every output
against the reference and prints, as its last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from checks import Checker, CheckError, one_json_document  # noqa: E402
from tracer import ACCEPTING, COUNTED, TARGETS  # noqa: E402

#: fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 3
#: the operations process is stopped after this long
WORKER_TIMEOUT_S = 160
#: operation kinds whose median times sum into each end-to-end time
TIMED_KINDS = ("detect", "eval", "stats", "gen", "oracle")
#: the one operation expected to fail, by a stdout fault of ``walksynth sweep``
EXPECTED_FAILURE = "sweep"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing walksynth and its CLI."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import walksynth, walksynth.cli"],
                       cwd=ROOT, env=python_env(), check=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_worker(round_: workloads.Round, workdir: Path, seconds: float, trace: int,
               spans: Path) -> dict:
    plan = {
        "src": str(SRC),
        "seconds": seconds,
        "min_rounds": workloads.MIN_ROUNDS,
        "trace": trace,
        "spans_out": str(spans),
        "ops": [{k: op[k] for k in ("name", "argv", "outputs")} for op in round_.ops],
        "calls": round_.calls,
    }
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                   cwd=ROOT, env=python_env(), check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text())


def check_outputs(ops: list[dict], records: dict) -> tuple[dict, list[str], list[str]]:
    """Per-op figures for the metrics, the failed op names, and every
    correctness problem found among the ops that did not fail."""
    checker = Checker()
    figures, failed, problems = {}, [], []
    for op in ops:
        rec = records[op["name"]]
        payload = one_json_document(rec["stdout"])
        if rec["rc"] != 0 or payload is None:
            failed.append(op["name"])
            if op["kind"] != EXPECTED_FAILURE:
                problems.append(f"{op['name']}: exit {rec['rc']}: {rec['stderr'].strip()[-300:]}")
            continue
        if not rec["identical"]:
            problems.append(f"{op['name']}: repeated calls gave different outputs")
        try:
            figures[op["name"]] = getattr(checker, op["kind"])(op, payload)
        except (CheckError, KeyError, ValueError) as exc:
            problems.append(f"{op['name']}: {type(exc).__name__}: {exc}")
    return figures, failed, problems


def end_to_end(ops, records, figures, failed, result, setup_s) -> dict:
    by_kind = {kind: 0.0 for kind in TIMED_KINDS}
    for op in ops:
        if op["name"] not in failed and op["kind"] in by_kind:
            by_kind[op["kind"]] += statistics.median(records[op["name"]]["times"])
    detects = [(op, figures.get(op["name"], {})) for op in ops if op["kind"] == "detect"]
    optimum = {op["check"]["graph"]: figures.get(op["name"], {}).get("optimum")
               for op in ops if op["kind"] == "oracle"}
    matches = sum(
        1 for op, fig in detects
        if op["check"]["objective"] == "synthesis" and optimum.get(op["check"]["graph"]) is not None
        and "J" in fig and abs(fig["J"] - optimum[op["check"]["graph"]]) <= 1e-9
    )
    synthesis = [fig["J"] for op, fig in detects
                 if op["check"]["objective"] == "synthesis" and "J" in fig
                 and op["check"]["graph"] not in optimum]
    modularity = [fig["Q"] for _, fig in detects if "Q" in fig]
    amis = [figures[op["name"]]["ami"] for op in ops
            if op["kind"] == "eval" and op["check"]["from_detect"] and op["name"] in figures]
    values = {
        "setup_s": (setup_s, "s"),
        **{f"{kind}_s": (by_kind[kind], "s") for kind in TIMED_KINDS},
        "synthesis_bits": (statistics.fmean(synthesis) if synthesis else 0.0, "bits"),
        "modularity_q": (statistics.fmean(modularity) if modularity else 0.0, "1"),
        "ami": (statistics.fmean(amis) if amis else 0.0, "1"),
        "oracle_match": (matches, "count"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer_names() -> list[tuple[str, str, str, str]]:
    """(metric, unit, layer, tracer field) for every traced figure reported."""
    out = []
    for _, _, layer, _ in TARGETS:
        out.append((f"{layer}.s", "s", layer, "self_s"))
        if layer in COUNTED:
            out.append((f"{layer}.calls", "count", layer, "calls"))
        if layer in ACCEPTING:
            out.append((f"{layer}.accepted", "count", layer, "accepted"))
    return out


def per_layer(result: dict) -> tuple[dict, list[str]]:
    """Per traced round: each layer's self time, calls and accepted count,
    the scan ratios with their bases, and the tracing overhead."""
    t = result["trace"]
    rounds = len(t["traced_round_s"])
    metrics = {}
    for name, unit, layer, field in per_layer_names():
        metrics[name] = {"value": t[field].get(layer, 0) / rounds, "unit": unit}
    visits = metrics["objective.flows_to_clusters.calls"]["value"]
    scans = metrics["objective.gain.calls"]["value"]
    moves = metrics["objective.apply.calls"]["value"]
    metrics["objective.scans_per_visit"] = {"value": scans / visits if visits else 0.0, "unit": "1"}
    metrics["objective.moves_per_scan"] = {"value": moves / scans if scans else 0.0, "unit": "1"}
    plain = statistics.median(t["untraced_round_s"])
    traced = statistics.median(t["traced_round_s"])
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / plain - 1.0), "unit": "%"}
    return metrics, t["absent"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "walksynth" / "cli.py").is_file():
        print(f"error: no walksynth sources under {SRC}", file=sys.stderr)
        return 2
    reference.self_test()
    setup_s = measure_setup() if not args.trace else None

    work_root = ROOT / ".clibench_work"
    out_root = ROOT / ".clibench_out"
    out_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    phases = [perf_counter()]
    try:
        round_ = workloads.build(args.workload, workdir, args.seed)
        ops = round_.ops
        phases.append(perf_counter())
        spans = out_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = run_worker(round_, workdir, args.seconds, args.trace, spans)
        records = result["ops"]
        phases.append(perf_counter())
        figures, failed, problems = check_outputs(ops, records)
        phases.append(perf_counter())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(result["round_s"])
    calls = round_.calls
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    inputs_s, worker_s, checks_s = (b - a for a, b in zip(phases, phases[1:]))
    print(f"{args.workload} seed {args.seed}: {len(calls)} calls x {rounds} rounds, "
          f"median round {statistics.median(result['round_s']):.3f}s; inputs {inputs_s:.1f}s, "
          f"operations {worker_s:.1f}s, checks {checks_s:.1f}s", file=sys.stderr)
    if args.trace:
        metrics, absent = per_layer(result)
        print(json.dumps({"absent": absent, "spans": str(spans.relative_to(ROOT))}))
    else:
        metrics = end_to_end(ops, records, figures, failed, result, setup_s)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * len(calls),
        "failed": rounds * sum(calls.count(name) for name in failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
