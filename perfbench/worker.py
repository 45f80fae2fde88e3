"""The workload process.

Sets up (imports the library, builds the seeded inputs, warms up), runs ops
in a closed loop with one client until ``--seconds`` have passed, then
checks every output.  Prints one JSON line for ``run.py``; ``ready`` is the
CLOCK_MONOTONIC time just before the first timed op, so the parent can
measure set-up from the moment it spawned this process.

    python3 perfbench/worker.py --workload periods --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import OpError  # noqa: E402


def run_ops(wl, seconds: float, tracer=None):
    """Closed loop: the next op starts when the previous one returns."""
    records = []
    start = perf_counter()
    for i, op in enumerate(wl.ops()):
        if tracer is not None:
            tracer.begin_op(i, op.kind)
        t0 = perf_counter()
        try:
            out = wl.run(op, tracer)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            out = OpError(f"{type(exc).__name__}: {exc}")
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op()
        records.append((op, out, (t1 - t0) * 1000.0))
        if t1 - start >= seconds:
            return records, t1 - start
    raise AssertionError("op streams are endless")


def check_all(wl, records):
    failures = []
    for op, out, _ in records:
        if isinstance(out, OpError):
            failures.append(f"{op.kind}: raised {out.message}")
            continue
        try:
            reason = wl.check(op, out)
        except Exception as exc:  # a malformed output must fail its check, not the run
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{op.kind}: {reason}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("periods", "lattice", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up; used to repeat the set-up measurement")
    ap.add_argument("--spans", help="trace the run and write its spans to this file")
    args = ap.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, ROOT)
    wl.warm_up()
    tracer = spans.Tracer() if args.spans else None
    if tracer is not None and args.workload != "cli":
        tracer.install()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    records, elapsed = run_ops(wl, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
    # for cli the workload's memory is its children's, one at a time
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss = resource.getrusage(who).ru_maxrss / 1024
    failures = check_all(wl, records)
    result = {
        "ready": ready,
        "elapsed_s": elapsed,
        "latencies_ms": [ms for _, _, ms in records],
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": peak_rss,
        "traffic": wl.traffic(records),
        "scaling": wl.scaling_points(records),
    }
    if args.workload == "cli":
        timed = [(ms, out[2]) for _, out, ms in records
                 if not isinstance(out, OpError) and out[2] is not None]
        result["cli_elapsed_ms"] = [e for _, e in timed]
        result["cli_startup_ms"] = [ms - e for ms, e in timed]
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
