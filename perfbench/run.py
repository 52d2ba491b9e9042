"""retxdist benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`). Each workload runs in a fresh child process (child.py). Set-up
is measured from the spawn of a child to its `ready` line, SETUPS times,
and reported as the median; the last child then measures its workload.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: end-to-end metrics with --trace 0, per-layer
metrics from a traced run with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
    if (ROOT / "BENCHMARK.json").is_file() else None

SETUPS = 5                    # set-ups per run; setup_s is their median
DEADLINE_S = 170.0            # whole run, children included


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("RETXDIST_OUTDIR", None)
    # One BLAS/OpenMP thread: the sandbox has two CPUs, and the program's
    # work is single-threaded numpy; extra threads only add noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, outdir: Path, setup_only: bool, deadline: float):
    """Start a child, wait for its ready line; returns (proc, setup_s, import_s)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--outdir", str(outdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=str(ROOT))
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if not line.startswith("ready "):
        finish(proc, deadline)
        raise RuntimeError(f"child did not get ready (exit {proc.returncode})")
    return proc, setup_s, float(line.split()[1])


def finish(proc, deadline: float) -> str:
    """Wait for a child within the run's deadline; its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child exceeded the run deadline") from None
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if BENCH is None or not (ROOT / "src" / "retxdist" / "__init__.py").is_file():
        print("perfbench: run from a retxdist checkout (BENCHMARK.json and "
              "src/retxdist are required)", file=sys.stderr)
        return 2
    names = [w["name"] for w in BENCH["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    outdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    try:
        setups, imports = [], []
        for _ in range(SETUPS - 1):
            proc, s, imp = spawn(args, outdir, True, deadline)
            finish(proc, deadline)
            setups.append(s)
            imports.append(imp)
        proc, s, imp = spawn(args, outdir, False, deadline)
        setups.append(s)
        imports.append(imp)
        out = finish(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited {proc.returncode}")
        line = next((l for l in out.splitlines() if l.startswith("result ")), None)
        if line is None:
            raise RuntimeError("workload process printed no result")
        res = json.loads(line[len("result "):])
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.trace:
            keep = HERE / "out" / f"spans-{args.workload}.json"
            if (outdir / "spans.json").is_file():
                shutil.move(str(outdir / "spans.json"), keep)
        shutil.rmtree(outdir, ignore_errors=True)

    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    if args.trace:
        layer = dict(res["per_layer"], **{"setup.import_s": statistics.median(imports)})
        wanted = BENCH["per_layer"]
    else:
        layer = dict(res["metrics"], setup_s=statistics.median(setups))
        wanted = BENCH["end_to_end"]
    metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"# {args.workload} seed {args.seed}: {res['rounds']} untraced rounds, "
          f"{res['attempted']} operations attempted, {res['failed']} failed "
          f"{res['failures'][:6]}, set-ups {[round(s, 3) for s in setups]}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
