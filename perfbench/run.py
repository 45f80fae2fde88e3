"""k3mirror benchmark: the periods, lattice and cli workloads.

Run from the repository root:

    python3 perfbench/run.py --workload periods --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics: the set-up is repeated
SETUP_RUNS times in fresh worker processes and reported as a median, then
one worker runs the closed loop for ``--seconds``.  ``--trace 1`` gives the
per-layer metrics of ``layers.json``: one untraced and one traced worker
each run half the time on the same inputs (their ratio is the tracing
overhead), and ``python -X importtime`` probes time the import.  Every op's
output is checked; the exit code is 1 when any check fails and 2 when the
run cannot start.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("periods", "lattice", "cli")
SETUP_RUNS = 3
IMPORT_PROBES = 3
DEADLINE_S = 170.0        # a run must end well inside 180 s
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, by nearest rank, but never below the median."""
    s = sorted(values)
    i = max(len(s) - 11, len(s) // 2)
    return s[i], 100.0 * (i + 1) / len(s)


def slope(points):
    """Least-squares slope of log(latency) against log(order)."""
    pts = [(math.log(n), math.log(ms)) for n, ms in points if ms > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def spawn(cmd, deadline: float, env=None) -> tuple[float, str, str]:
    """Run a child in its own process group; kill the group at the deadline.
    Returns (spawn time on CLOCK_MONOTONIC, stdout, stderr)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])} passed the deadline")
    except BaseException:       # interrupted: take the child's whole group down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{err[-2000:]}")
    return t_spawn, out, err


def worker(workload, seed, seconds, deadline, *extra):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), *extra]
    t_spawn, out, _ = spawn(cmd, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t_spawn
    return result


def import_times(stderr: str) -> dict:
    """Cumulative import time of k3mirror, and of each heavy dependency the
    first time something outside it imports it, from -X importtime output."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, raw = line[len("import time:"):].split("|")
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        rows.append((depth, raw.strip(), int(cum)))
    out = {"import_ms": 0.0, "scipy_ms": 0.0, "sympy_ms": 0.0, "numpy_ms": 0.0}
    parent_pkg: dict[int, str] = {}
    for depth, name, cum in reversed(rows):     # a parent precedes its children here
        pkg = name.split(".")[0]
        if depth == 0 and name == "k3mirror":
            out["import_ms"] = cum / 1000.0
        if f"{pkg}_ms" in out and parent_pkg.get(depth - 1) != pkg:
            out[f"{pkg}_ms"] += cum / 1000.0
        parent_pkg[depth] = pkg
        for d in [d for d in parent_pkg if d > depth]:
            del parent_pkg[d]
    return out


def probe_imports(deadline) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    probes = [import_times(spawn([sys.executable, "-X", "importtime", "-c", "import k3mirror"],
                                 deadline, env)[2])
              for _ in range(IMPORT_PROBES)]
    return {f"init.{k}": statistics.median(p[k] for p in probes) for k in probes[0]}


def end_to_end(workload, seed, seconds, deadline):
    setups = [worker(workload, seed, seconds, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    res = worker(workload, seed, seconds, deadline)
    setups.append(res["setup_s"])
    lat = res["latencies_ms"]
    tail_ms, tail_pct = tail(lat)
    values = {
        "ops_per_s": res["attempted"] / res["elapsed_s"],
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    units = dict(END_TO_END)
    notes = {"op_tail_ms": f"p{tail_pct:.1f} of {len(lat)} ops",
             "setup_s": f"median of {SETUP_RUNS} set-ups"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return res, metrics, notes


def per_layer(workload, seed, seconds, deadline):
    half = seconds / 2
    plain = worker(workload, seed, half, deadline)
    spans_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(spans_dir, exist_ok=True)
    traced = worker(workload, seed, half, deadline, "--spans",
                    os.path.join(spans_dir, f"spans-{workload}-{seed}.jsonl.gz"))
    values = dict(traced["layers"])
    values.update(probe_imports(deadline))
    # same inputs in the same order, so compare the time for the common prefix
    k = min(plain["attempted"], traced["attempted"])
    values["trace.overhead_frac"] = 1 - (sum(plain["latencies_ms"][:k])
                                         / sum(traced["latencies_ms"][:k]))
    values["picard_fuchs.mirror_map.order_exponent"] = slope(plain["scaling"])
    startup, elapsed = plain.get("cli_startup_ms"), plain.get("cli_elapsed_ms")
    values["cli.startup_ms_p50"] = statistics.median(startup) if startup else 0.0
    values["cli.elapsed_ms_p50"] = statistics.median(elapsed) if elapsed else 0.0
    values["cli.elapsed_ms_tail"] = tail(elapsed)[0] if elapsed else 0.0
    with open(os.path.join(HERE, "layers.json")) as fh:
        spec = json.load(fh)["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    res = dict(traced)
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    res["failures"] = plain["failures"] + traced["failures"]
    shares = _self_time_shares(values)
    return res, metrics, {"self time shares": shares}


def _self_time_shares(values) -> dict:
    named = {k[:-len(".self_s")]: v for k, v in values.items()
             if k.endswith(".self_s") and k.count(".") >= 2}
    total = sum(named.values()) or 1.0
    top = sorted(named.items(), key=lambda kv: -kv[1])[:6]
    return {k: round(v / total, 3) for k, v in top}


def run_workload(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if trace else end_to_end
    res, metrics, notes = measure(workload, seed, seconds, deadline)
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:8s} {name:44s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"{workload:8s} {'fail_frac':44s} {res['failed'] / res['attempted']:14.6g} 1"
          f"  ({res['failed']} of {res['attempted']} ops)")
    for key, value in notes.items():
        if key not in metrics:
            print(f"{workload:8s} {key}: {json.dumps(value)}")
    print(f"{workload:8s} traffic: {json.dumps(res['traffic'], sort_keys=True)}")
    for failure in res["failures"]:
        print(f"{workload:8s} FAILED {failure}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "k3mirror", "__init__.py")):
        print("run from the root of a k3mirror checkout: src/k3mirror is missing",
              file=sys.stderr)
        return 2
    results = []
    try:
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            results.append(run_workload(workload, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
