"""One benchmark pass, run in a fresh process.

Usage: ``python3 perfbench/passrun.py SRC_DIR`` with a JSON job on stdin:
``{"requests": [argv, ...], "digests": [sha256 or null, ...], "trace": bool,
"trace_stem": path or null}``.  The pass imports ``qtmoments.cli`` from
SRC_DIR (timed as set-up), serves the requests one after another through
``qtmoments.cli.main(argv)`` and prints one JSON result line on stdout.
With ``--import-only`` it times the import and stops.

Times are plain seconds, each with the speed scale measured around it (see
``speed.py``); time spent calibrating is left out of requests and spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from speed import SpeedProbe


class HashSink:
    """Stands in for stdout: hashes and counts the bytes, keeps none of them."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.hash.update(data)
        self.size += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def serve(cli, requests: list, digests: list, probe: SpeedProbe | None = None) -> dict:
    """Run every request through ``cli.main`` in a closed loop and check it.

    A request fails if it raises, exits non-zero, has no expected digest, or
    its stdout digest differs from the expected one.  Time the probe spends
    calibrating in the middle of a request is not counted.
    """
    latencies, failures, out_bytes = [], [], 0
    for argv, expected in zip(requests, digests):
        sink = HashSink()
        saved = sys.stdout
        sys.stdout = sink
        paused = probe.paused_s if probe else 0.0
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a crashing request is a failed request, not a crashed pass
            code = f"{type(exc).__name__}: {exc}"
        finally:
            sys.stdout = saved
        latencies.append(time.perf_counter() - t0 - ((probe.paused_s if probe else 0.0) - paused))
        out_bytes += sink.size
        digest = sink.hash.hexdigest()
        if code != 0 or digest != expected:
            failures.append({"request": " ".join(argv), "code": code, "digest": digest,
                             "expected": expected})
    return {
        "wall_s": sum(latencies),
        "latencies": latencies,
        "failures": failures,
        "out_bytes": out_bytes,
    }


def _import_cli(src_dir: str):
    """Import qtmoments.cli from ``src_dir`` only; returns (module, seconds)."""
    sys.path.insert(0, src_dir)
    t0 = time.perf_counter()
    import qtmoments.cli as cli
    elapsed = time.perf_counter() - t0
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(src_dir) + os.sep):
        raise ImportError(f"qtmoments.cli came from {origin}, not from {src_dir}")
    return cli, elapsed


def main() -> int:
    src_dir = sys.argv[1]
    import_probe = SpeedProbe()
    import_probe.sample()
    cli, setup_s = _import_cli(src_dir)
    import_probe.sample()
    setup = {"setup_s": setup_s, "setup_scale": import_probe.scale()}
    if sys.argv[2:] == ["--import-only"]:
        print(json.dumps(setup))
        return 0
    job = json.load(sys.stdin)
    probe = SpeedProbe()
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(clock=lambda: time.perf_counter() - probe.paused_s)
        tracer.install()
    probe.start()
    result = serve(cli, job["requests"], job["digests"], probe)
    probe.stop()
    result["scale"] = probe.scale()
    result.update(setup)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["cli.out_bytes"] = result["out_bytes"]
        result["absent"] = tracer.absent
        if job.get("trace_stem"):
            tracer.write(job["trace_stem"], {"wall_s": result["wall_s"],
                                             "requests": [" ".join(r) for r in job["requests"]]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
