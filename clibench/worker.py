"""Operations process: runs one workload's walksynth commands in closed loop.

Usage: python3 worker.py PLAN.json RESULT.json

The plan lists the commands of one round and the order of their calls (a
command may be called more than once per round). The worker calls
``walksynth.cli.main(argv)`` in this process, one call at a time, and repeats
whole rounds until the plan's seconds have passed and at least
``min_rounds`` rounds are done. Each call's wall time
excludes the hashing of its outputs, which checks that every repeat gives
byte-identical stdout and files. With tracing on, the first half of the time
runs untraced and the second half traced, so the two halves give the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def run_round(cli, ops, calls, records) -> float:
    start = perf_counter()
    for name in calls:
        op, rec = ops[name], records[name]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
        rec["times"].append(perf_counter() - t0)
        digest = hashlib.sha256(out.getvalue().encode())
        for path in op["outputs"]:
            digest.update(Path(path).read_bytes())
        if not rec["times"][1:]:
            rec.update(rc=rc, stdout=out.getvalue(), stderr=err.getvalue()[-2000:],
                       digest=digest.hexdigest(), identical=True)
        elif rc != rec["rc"] or digest.hexdigest() != rec["digest"]:
            rec["identical"] = False
    return perf_counter() - start


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    import walksynth.cli as cli

    ops = {op["name"]: op for op in plan["ops"]}
    calls = plan["calls"]
    records = {name: {"times": []} for name in ops}
    seconds, min_rounds = plan["seconds"], plan["min_rounds"]
    result: dict = {}
    begin = perf_counter()
    if not plan["trace"]:
        rounds = []
        while len(rounds) < min_rounds or perf_counter() - begin < seconds:
            rounds.append(run_round(cli, ops, calls, records))
        result["round_s"] = rounds
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        plain = []
        while not plain or perf_counter() - begin < seconds / 2:
            plain.append(run_round(cli, ops, calls, records))
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            while not traced or perf_counter() - begin < seconds:
                traced.append(run_round(cli, ops, calls, records))
        finally:
            tracer.uninstall()
        tracer.write_spans(Path(plan["spans_out"]))
        result["round_s"] = plain + traced
        result["trace"] = {
            "untraced_round_s": plain,
            "traced_round_s": traced,
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "accepted": tracer.accepted,
            "absent": tracer.absent,
        }
    result["ops"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
