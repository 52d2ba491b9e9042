"""One workload in one process: set up, report ready, measure, check.

Started by run.py with the package's `src` on PYTHONPATH. Protocol on
stdout: a line `ready <import seconds>` once set-up (imports, inputs,
warm-up) is done, then, unless --setup-only, a line `result <json>`.
The program's own output never reaches this stdout: `retxdist run` is
called in-process with its stdout captured.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()
import retxdist.cli  # noqa: E402,F401  (timed: setup.import_s)
IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def measure(wl, seconds: float, tracer=None) -> dict:
    """Whole rounds of wl's operations until `seconds` have passed.

    With a tracer, rounds alternate untraced/traced (starting untraced)
    and the run ends after a traced round.
    """
    ops = wl.ops()
    round_s = {False: [], True: []}
    latencies = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        results = {}
        total = 0.0
        try:
            for key, fn in ops:
                t0 = time.perf_counter()
                try:
                    results[key] = fn()
                    ok = True
                except wl.failure as exc:
                    results[key] = exc
                    ok = False
                dt = time.perf_counter() - t0
                total += dt
                attempted += 1
                if ok:
                    if not traced:
                        latencies.append(dt)
                else:
                    failed += 1
        finally:
            if traced:
                tracer.uninstall()
        round_s[traced].append(total)
        wl.after_round(results)
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    return {"round_s": round_s, "latencies": latencies,
            "attempted": attempted, "failed": failed,
            "failures": sorted(k for k, v in results.items()
                               if isinstance(v, BaseException))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    Path(args.outdir).mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, Path(args.outdir))
    wl.setup()
    wl.warm_up()
    print(f"ready {IMPORT_S!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    m = measure(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = wl.check()
    lat_ms = np.array(m["latencies"]) * 1e3
    untraced = m["round_s"][False]
    metrics = {
        "run_s": statistics.median(untraced),
        "peak_rss_mb": peak_rss_mb,
        "query_p50_ms": float(np.percentile(lat_ms, 50)) if lat_ms.size else 0.0,
        "query_p90_ms": float(np.percentile(lat_ms, 90)) if lat_ms.size else 0.0,
    }
    result = {"correct": not errors, "errors": errors[:20],
              "attempted": m["attempted"], "failed": m["failed"],
              "failures": m["failures"], "rounds": len(untraced),
              "metrics": metrics}
    if tracer is not None:
        traced = m["round_s"][True]
        layer = tracer.metrics(len(traced))
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["per_layer"] = layer
        tracer.write(str(Path(args.outdir) / "spans.json"))
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
