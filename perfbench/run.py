"""qtmoments benchmark: drive the documented CLI and report end-to-end and
per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload {tables,queries,gate,enumerate} \\
        --seed N --seconds S --trace {0,1}

Each pass serves the workload's seeded request list once, as a closed loop
with one client and no think time, in a fresh process that imports
``qtmoments.cli`` from ``src/`` and calls ``qtmoments.cli.main(argv)``.
Passes repeat until ``--seconds`` is used up.  Every request's stdout is
hashed and checked against ``expected.json``.

Timing metrics are in reference seconds: plain seconds times the host speed
scale measured during the same pass or import (see ``speed.py``).  The
plain seconds and the scales are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced passes and half on traced ones, and reports the per-layer
metrics; spans are written to ``perfbench/out/``.  Human-readable lines come
first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

IMPORT_PROBES = 7  # extra import-only processes per run, for a steadier setup_s
HARD_LIMIT_S = 170  # the whole run must end well inside 180 s


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("QTMOMENTS_WORKERS", None)
    return env


def _child(args: list, stdin: str | None, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "passrun.py"), SRC, *args],
            input=stdin, capture_output=True, text=True, env=_child_env(),
            timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _passes(job: dict, budget: float, deadline: float, stem: str | None) -> list:
    """Run passes until the next one would end more than half a pass late."""
    results = []
    start = time.monotonic()
    while True:
        job["trace_stem"] = f"{stem}.pass{len(results)}" if stem else None
        result = _child([], json.dumps(job), deadline)
        results.append(result)
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * (elapsed / len(results)) > budget:
            return results


def _percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _end_to_end(passes: list, probes: list) -> dict:
    """Medians over the run; a request's latency is its median over passes."""
    latencies = [statistics.median(p["latencies"][i] * p["scale"] for p in passes)
                 for i in range(len(passes[0]["latencies"]))]
    return {
        "setup_s": (statistics.median(p["setup_s"] * p["setup_scale"] for p in probes + passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] * p["scale"] for p in passes), "s"),
        "latency_p50_s": (_percentile(latencies, 50), "s"),
        "latency_p95_s": (_percentile(latencies, 95), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


#: Per-layer units other than "s" for times and "count" for counts.
LAYER_UNITS = {
    "cli.out_bytes": "bytes",
    "partitions.visited": "count.computed",  # Bell(n) per call, not observed
}


def _per_layer(traced: list, untraced: list) -> dict:
    """Counts from the last traced pass; times in reference seconds, as
    medians over traced passes."""
    out = {}
    for name, value in traced[-1]["layers"].items():
        if name.endswith("_s"):
            value = statistics.median(p["layers"][name] * p["scale"] for p in traced)
        out[name] = (value, LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count"))
    overhead = (statistics.median(p["wall_s"] * p["scale"] for p in traced)
                / statistics.median(p["wall_s"] * p["scale"] for p in untraced) - 1)
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "qtmoments", "cli.py")):
        raise BenchError(f"no qtmoments source under {SRC}")
    deadline = time.monotonic() + HARD_LIMIT_S
    requests = workloads.requests(workload, seed)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)["sha256"]
    job = {"requests": requests, "digests": [expected.get(workloads.key(r)) for r in requests],
           "trace": False}

    probes = [_child(["--import-only"], None, deadline) for _ in range(IMPORT_PROBES)]
    if trace:
        untraced = _passes(job, seconds / 2, deadline, None)
        os.makedirs(OUT, exist_ok=True)
        traced = _passes(dict(job, trace=True), seconds / 2, deadline,
                         os.path.join(OUT, f"{workload}.seed{seed}"))
        passes = untraced + traced
    else:
        passes = _passes(job, seconds, deadline, None)
    attempted = len(requests) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:10]:
        print(f"FAILED {f['request']}: code={f['code']} digest={f['digest']} "
              f"expected={f['expected']}", file=sys.stderr)
    for name in passes[-1].get("absent", []):
        print(f"note: traced function {name} no longer exists; its metrics are absent",
              file=sys.stderr)

    metrics = _per_layer(traced, untraced) if trace else _end_to_end(passes, probes)
    print(f"workload={workload} seed={seed} passes={len(passes)} "
          f"requests_per_pass={len(requests)} attempted={attempted} failed={len(failures)} "
          f"fail_ratio={len(failures) / attempted:.6f} latency_samples={len(requests)}x{len(passes)} "
          f"setup_samples={len(probes) + len(passes)}")
    print("  plain pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in passes)
          + "; speed scales: " + " ".join(f"{p['scale']:.3f}" for p in passes)
          + f"; plain median setup_s: {statistics.median(p['setup_s'] for p in probes + passes):.6f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"  {name:<44} {value:>16d} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
