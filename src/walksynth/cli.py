"""Command-line interface.

Machine-readable JSON goes to stdout, human summaries to stderr. Exit codes:
0 success, 1 usage problems, 2 data problems (unreadable or inconsistent
inputs). All subcommands are deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bench, metrics
from .graph import (
    Graph,
    PlantedPartitionParams,
    dump_edge_list,
    load_edge_list,
    planted_partition,
    write_label_map,
)
from .objective import OBJECTIVES, modularity
from .optimizer import OptimizerConfig, brute_force_optimum, optimize
from .partitions import Partition, partition_for_graph, read_partition_labels, write_partition


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data errors and use 1 for usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int, rule: str):
    """An argparse type for ints of at least ``low``; ``rule`` words the
    usage error for a smaller one."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    return parse


_seed = _int_at_least(0, "seed must be non-negative")


def _sizes(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma-separated sizes: {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="walksynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("detect", help="find communities in a graph")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--objective", choices=OBJECTIVES, default="synthesis")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="write the partition file here")
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="compare a predicted partition against the truth")
    p.add_argument("--graph", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="per-cluster structure statistics")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--min-size", type=_int_at_least(1, "min-size must be at least 1"), default=3)
    p.add_argument("--csv", help="write the per-cluster CSV here")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gen", help="generate a planted benchmark graph")
    p.add_argument("--sizes", type=_sizes, help="comma-separated community sizes, e.g. 20,20,20")
    p.add_argument("--k-avg", type=float, dest="k_avg")
    p.add_argument("--mu", type=float)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--config", help="key=value file supplying any of the flags above")
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-truth", required=True)
    p.add_argument("--label-map", help="also persist the label map here")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="run a benchmark grid from a JSON config")
    p.add_argument("--config", required=True, help="JSON sweep spec")
    p.add_argument("--out-raw", required=True)
    p.add_argument("--out-agg", required=True)
    p.add_argument("--timing", action="store_true", help="report measured wall times")
    p.add_argument("--workers", type=_int_at_least(1, "workers must be at least 1"), default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="exhaustive optimum for a small graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--objective", choices=OBJECTIVES, default="synthesis")
    p.add_argument("--cap", type=_int_at_least(1, "cap must be at least 1"), default=12)
    p.set_defaults(func=cmd_oracle)

    return parser


def _load_graph(path: str) -> Graph:
    return load_edge_list(Path(path))


def _read_partition(path: str, g: Graph) -> Partition:
    return partition_for_graph(read_partition_labels(Path(path)), g.labels)


def cmd_detect(args) -> int:
    g = _load_graph(args.graph)
    cfg = OptimizerConfig(objective=args.objective, seed=args.seed)
    part, report = optimize(g, cfg)
    if args.out:
        write_partition(args.out, g.labels, part)
    payload = {
        "objective": args.objective,
        "seed": args.seed,
        "k": part.num_clusters,
        **report.to_json(),
    }
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload))
    print(
        f"K={part.num_clusters} J={report.value:.6f} bound={report.bound_node_mi:.6f}",
        file=sys.stderr,
    )
    return 0


def cmd_eval(args) -> int:
    g = _load_graph(args.graph)
    truth = _read_partition(args.truth, g)
    pred = _read_partition(args.pred, g)
    matches = metrics.greedy_match(metrics.contingency(truth, pred))
    correct = metrics.classify_nodes(truth, pred, matches)
    payload = {
        "ami": metrics.ami(truth, pred),
        "matches": len(matches),
        "misclassified": int((~correct).sum()),
        "k_true": truth.num_clusters,
        "k_pred": pred.num_clusters,
    }
    print(json.dumps(payload))
    print(f"AMI={payload['ami']:.4f} misclassified={payload['misclassified']}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    g = _load_graph(args.graph)
    part = _read_partition(args.partition, g)
    rows = metrics.cluster_stats(g, part, min_size=args.min_size)
    if args.csv:
        metrics.write_cluster_stats_csv(rows, args.csv)
    payload = {
        "clusters": part.num_clusters,
        "nontrivial_clusters": len(rows),
        "nontrivial_fraction": len(rows) / part.num_clusters,
        "modularity": modularity(g, part),
    }
    print(json.dumps(payload))
    print(
        f"clusters={payload['clusters']} nontrivial={payload['nontrivial_clusters']} "
        f"modularity={payload['modularity']:.4f}",
        file=sys.stderr,
    )
    return 0


def _read_kv_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ValueError(f"line {lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        values[key.strip()] = value.strip()
    return values


def cmd_gen(args) -> int:
    if args.config:
        kv = _read_kv_config(args.config)
        for key, parse in (("sizes", _sizes), ("k_avg", float), ("mu", float), ("seed", _seed)):
            # a flag wins over the config, unless it is an empty --sizes
            if key in kv and getattr(args, key) in (None, []):
                try:
                    setattr(args, key, parse(kv[key]))
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ValueError(f"{args.config}: {key}: {exc}") from None
    sizes, k_avg, mu, seed = args.sizes, args.k_avg, args.mu, args.seed
    if not sizes or k_avg is None or mu is None:
        print("error: sizes, k_avg, and mu are required (flags or --config)", file=sys.stderr)
        return 1
    seed = 0 if seed is None else seed
    params = PlantedPartitionParams(community_sizes=sizes, k_avg=k_avg, mu=mu)
    g, truth = planted_partition(params, seed)
    dump_edge_list(g, args.out_graph)
    write_partition(args.out_truth, g.labels, truth)
    if args.label_map:
        write_label_map(g, args.label_map)
    payload = {
        "n": g.n,
        "edges": g.num_edges,
        "communities": len(sizes),
        "mu": mu,
        "k_avg": k_avg,
        "seed": seed,
    }
    print(json.dumps(payload))
    print(f"n={g.n} edges={g.num_edges} communities={len(sizes)}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    try:
        spec = bench.SweepSpec.from_json(args.config)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    rows = bench.run_sweep(spec, timing=args.timing, workers=args.workers)
    bench.write_raw_csv(rows, args.out_raw)
    agg = bench.aggregate_rows(rows)
    bench.write_agg_csv(agg, args.out_agg)
    payload = {
        "rows": len(rows),
        "grid_points": len(spec.mu_values) * spec.realizations,
        "objectives": list(spec.objectives),
    }
    print(json.dumps(payload))
    failed = sum(math.isnan(row.objective_value) for row in rows) // len(spec.objectives)
    print(f"wrote {len(rows)} rows to {args.out_raw}; failed grid points: {failed}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    if g.n > args.cap:
        print(
            f"error: graph has {g.n} nodes, above the enumeration cap {args.cap}",
            file=sys.stderr,
        )
        return 1
    part, value = brute_force_optimum(g, objective=args.objective, n_cap=args.cap)
    payload = {
        "objective": args.objective,
        "value": value,
        "k": part.num_clusters,
        "assignment": [int(c) for c in part.assignment],
    }
    print(json.dumps(payload))
    print(f"K={part.num_clusters} value={value:.6f}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
