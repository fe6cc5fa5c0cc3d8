#!/usr/bin/env python3
"""Benchmark of stochord's verification pipeline.

One closed loop in one process: one call at a time, no threads.  Each
workload is a stream of generated cases in blocks (see ``workloads.py``); the
loop times one call per case over as many whole blocks as take ``--seconds``
of calls at the reference speed, and re-checks every answer from outside the
program right after its call, untimed.  The work of a run is thus fixed by
the workload, the seed and ``--seconds``: two runs with the same arguments
attempt the same cases and fail on the same ones.  Times are CPU times scaled
to a reference machine speed by a fixed probe run between calls (see
``run_loop``), because the shared host's speed drifts by tens of percent.

    python3 perfbench/run.py --workload st-sweep --seed 1 --seconds 20 --trace 0

prints a human-readable summary, a JSON report line (environment, sample
counts, failure counts by kind, verdict digest) and, as the last line, the
result object: ``--trace 0`` carries the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer metrics of a separate traced
run.

    python3 perfbench/run.py --workload all --seconds 5

runs every workload untraced and traced, one process each, and prints the
end-to-end metrics of all of them with the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# Speed probe (see run_loop): its interpreted loop length, the CPU time of
# calls between two probes, the probes either side whose trimmed mean sets a
# call's speed factor, and the probe's CPU time that defines the reference
# speed.
PROBE_LOOP = 4000
PROBE_EVERY_S = 0.03
PROBE_SPAN = 10
PROBE_REF_S = 0.0012
WARMUP_S = 0.3
WARMUP_SEED_OFFSET = 0x5EED << 32
SETUP_CODE = "import stochord.harness, stochord.cli"
# Import probe for set-up time (see measure_setup) and its CPU time at the
# reference speed.
IMPORT_PROBE_CODE = "import numpy"
IMPORT_REF_S = 0.25
# Failures that mean an answer was wrong, not merely missing.
WRONG = ("rejected_witness", "disagreement_refuted", "disagreement_identity", "bad_exit", "judge_error")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child_cpu(code: str) -> float:
    """CPU time of a fresh interpreter running ``code``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime


def measure_setup() -> float:
    """Median CPU time of a fresh interpreter importing the harness and CLI,
    at the reference speed.

    Import times drift with the host by tens of percent over minutes, but
    far less than the call probe's time does, so they are scaled by a probe
    of their own kind instead: a fresh interpreter importing numpy, run
    before each set-up, whose median CPU time defines the speed."""
    setup, ref = [], []
    for _ in range(SETUP_REPEATS):
        ref.append(_child_cpu(IMPORT_PROBE_CODE))
        setup.append(_child_cpu(SETUP_CODE))
    return statistics.median(setup) * IMPORT_REF_S / statistics.median(ref)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Tally:
    """Outcome counts, CPU times of completed calls and the window digest."""

    def __init__(self):
        self.failures = Counter()
        self.statuses = Counter()
        self.tracebacks = {}
        self.latencies = []
        self.digest = hashlib.sha256()

    def add(self, case, result, in_window: bool) -> None:
        moves = None
        if isinstance(result, Exception):
            status = label = f"crash_{type(result).__name__}"
            self.failures[status] += 1
            self.tracebacks.setdefault(status, "".join(traceback.format_exception(result)[-3:]))
        else:
            try:
                verdict = case.judge(result)
                status, moves = verdict.status, verdict.moves
                label = verdict.detail or status
                if verdict.failure:
                    self.failures[verdict.failure] += 1
            except Exception as exc:  # a witness that cannot even be read is wrong
                self.failures["judge_error"] += 1
                self.tracebacks.setdefault("judge_error", repr(exc))
                status = label = "unknown"
            self.statuses[status] += 1
        if in_window:
            self.digest.update(f"{case.key()}|{label}|{moves}\n".encode())


def _probe_data():
    import numpy as np

    rng = np.random.default_rng(0)
    return np.arange(1.0, 41.0), rng.uniform(0.0, 60.0, 96), rng.random(40), rng.random(4_000)


def probe(data) -> float:
    """CPU seconds of one fixed piece of work made of what the program spends
    its time on: an interpreted loop, a block of ``gammainc``, a weighted sum
    and a sort.  The work runs once untimed first, so that what the call
    before it left in the caches does not count."""
    from scipy import special

    shapes, grid, weights, keys = data
    for _ in range(2):  # only the second pass counts
        t0 = time.process_time()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += (i * i) % 7
        weights @ special.gammainc(shapes[:, None], grid[None, :])
        keys.copy().sort()
    return time.process_time() - t0


def speed_factors(probes) -> "numpy.ndarray":
    """Reference speed over machine speed at each probe: the reference probe
    time over the mean of the probes around it, the highest and lowest tenth
    left out."""
    import numpy as np

    p = np.asarray(probes)
    local = []
    for i in range(p.size):
        near = np.sort(p[max(0, i - PROBE_SPAN): i + PROBE_SPAN + 1])
        cut = near.size // 10
        local.append(near[cut: near.size - cut].mean())
    return PROBE_REF_S / np.asarray(local)


def run_loop(workload, seed: int, n_blocks: int, tracer=None):
    """Time one call per case over ``n_blocks`` whole blocks, after an
    untimed warm-up on cases of another stream.  Every case is generated
    before the warm-up (traced, for the window's blocks, as set-up), and
    judged right after its call, untimed and untraced.

    Calls are timed in process CPU time: the program is single-threaded and
    does no I/O.  CPU time still follows the host's speed: on a shared
    2-vCPU virtual machine the probe's time flips between two levels about
    30% apart within seconds, and the program's times move with it.  So a
    fixed probe runs after every ``PROBE_EVERY_S`` of calls and each call's
    time is scaled to the reference speed by the probes around it
    (``speed_factors``).  Spans use wall time, so the window keeps it."""
    stream = workload.blocks(seed)
    run_blocks = []
    for b in range(n_blocks):
        if tracer:
            tracer.request = 0 if b < workload.window_blocks else -1
        run_blocks.append(next(stream))
    if tracer:
        tracer.request = -1

    data = _probe_data()
    warm = workload.blocks(seed + WARMUP_SEED_OFFSET)
    t0 = time.process_time()
    while time.process_time() - t0 < WARMUP_S:
        for case in next(warm):
            try:
                case.call()
            except Exception:
                pass
        probe(data)

    tally = Tally()
    attempted = 0
    wall = 0.0
    window = window_wall = None
    probes, calls = [], []  # calls: (CPU seconds, index of the probe before it, completed)
    since_probe = PROBE_EVERY_S
    for b, block in enumerate(run_blocks):
        for case in block:
            if since_probe >= PROBE_EVERY_S:
                probes.append(probe(data))
                since_probe = 0.0
            if tracer:
                tracer.request = attempted
            w0, t0 = time.perf_counter(), time.process_time()
            try:
                result = case.call()
            except Exception as exc:  # a crash is a failed attempt, not a benchmark error
                result = exc
            dt = time.process_time() - t0
            wall += time.perf_counter() - w0
            if tracer:
                tracer.request = -1
            since_probe += dt
            calls.append((dt, len(probes) - 1, not isinstance(result, Exception)))
            tally.add(case, result, b < workload.window_blocks)
            attempted += 1
        if b + 1 == workload.window_blocks:
            window, window_wall = attempted, wall
    probes.append(probe(data))
    factor = speed_factors(probes)
    scaled = [(dt * float(factor[i]), done) for dt, i, done in calls]
    tally.latencies = [t for t, done in scaled if done]
    busy = sum(t for t, _ in scaled)
    speed = {
        "probes": len(probes),
        "probe_ms.median": 1e3 * statistics.median(probes),
        "factor.min": float(factor.min()),
        "factor.max": float(factor.max()),
        "raw_busy_cpu_s": sum(dt for dt, _, _ in calls),
    }
    return tally, attempted, busy, window, window_wall, speed


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def measure(workload_name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    n_blocks = max(workload.window_blocks, math.ceil(seconds / workload.block_s))
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        tally, attempted, busy, window, window_wall, speed = run_loop(
            workload, seed, n_blocks, tracer
        )
    finally:
        if tracer:
            tracer.uninstall()

    failed = sum(tally.failures.values())
    completed = len(tally.latencies)
    unknown = tally.statuses["unknown"]
    lat_ms = [1e3 * t for t in tally.latencies]
    p50, p95, p99 = (_percentile(lat_ms, q) for q in (50, 95, 99))
    report = {
        "env": environment(workload_name, seed, seconds, trace),
        "call": workload.call_name,
        "blocks": n_blocks,
        "busy_cpu_s": busy,
        "speed": speed,
        "attempted": attempted,
        "completed": completed,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "unknown": unknown,
        "unknown_ratio": unknown / completed if completed else 0.0,
        "failures": dict(sorted(tally.failures.items())),
        "statuses": dict(sorted(tally.statuses.items())),
        "latency_ms": {
            "samples": len(lat_ms),
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "beyond_p95": sum(t > p95 for t in lat_ms),
            "beyond_p99": sum(t > p99 for t in lat_ms),
        },
        "digest": {"cases": window, "sha256": tally.digest.hexdigest()},
        "tracebacks": tally.tracebacks,
    }
    correct = not any(tally.failures[kind] for kind in WRONG)
    if trace:
        from spans import layer_metrics

        metrics = layer_metrics(tracer, window, window_wall)
        metrics["trace.window_cases"] = window
        metrics["trace.window_s"] = window_wall
        metrics["trace.verdicts_per_s"] = completed / busy
        span_file = SPAN_DIR / f"spans-{workload_name}.npz"
        tracer.write(span_file, window)
        report["span_file"] = str(span_file.relative_to(ROOT))
    else:
        metrics = {
            "verdicts_per_s": completed / busy,
            "verdict_ms.p50": report["latency_ms"]["p50"],
            "verdict_ms.p95": report["latency_ms"]["p95"],
            "ok_ratio": 1.0 - failed / attempted,
            "resolved_ratio": 1.0 - report["unknown_ratio"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": measure_setup(),
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def emit(result: dict, report: dict, trace: int) -> None:
    spec = _spec()
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in listed}
    env = report["env"]
    print(f"# {env['workload']} seed={env['seed']} trace={env['trace']} call={report['call']}")
    print(
        f"# attempted={report['attempted']} completed={report['completed']} failed={report['failed']}"
        f" unknown={report['unknown']} latency samples={report['latency_ms']['samples']}"
        f" beyond p99={report['latency_ms']['beyond_p99']} correct={result['correct']}"
    )
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({**result, "metrics": metrics}))


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in its own process."""
    workloads = [w["name"] for w in _spec()["workloads"]]
    summary = {}
    for name in workloads:
        runs = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-2]))
            runs.append((json.loads(lines[-1]), json.loads(lines[-2])["report"]))
        (plain, plain_report), (traced, _) = runs
        untraced_vps = plain["metrics"]["verdicts_per_s"]["value"]
        traced_vps = traced["metrics"]["trace.verdicts_per_s"]["value"]
        overhead = 1.0 - traced_vps / untraced_vps
        print(f"# {name}: tracing overhead {100 * overhead:.1f}% of untraced verdicts_per_s\n")
        summary[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "latency_samples": plain_report["latency_ms"]["samples"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "tracing_overhead": overhead,
        }
    print(json.dumps({"all": summary}))
    return 0 if all(s["correct"] for s in summary.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "stochord" / "__init__.py").is_file():
        print(f"error: no stochord sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(names)}", file=sys.stderr)
        return 2
    result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    emit(result, report, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
