"""Benchmark entry point; run from the root of an infera checkout.

    python3 perfbench/run.py --workload exact-lp --seed 1 --seconds 20 --trace 0

Starts the workload's set-up alone in SETUP_SAMPLES fresh processes, then
the workload itself in one more (perfbench/worker.py), and prints one JSON
object as its last line: `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of BENCHMARK.json.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 4          # set-up-only processes; the timed process adds one more
DEADLINE_S = 170.0         # the whole run, set-up samples included

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args, extra, workdir, deadline):
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, "--t0", repr(t0)] + extra
    # Own session, so a timeout also stops the CLI processes it started.
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("exact-lp", "dense-screen", "tree-sites", "cli-session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "infera", "__init__.py")):
        print("perfbench: run from the root of an infera checkout (no src/infera here)",
              file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        setups = [_worker(args, ["--setup-only"], workdir, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        result = _worker(args, ["--seconds", repr(args.seconds), "--trace", str(args.trace)],
                         workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"perfbench: {args.workload} seed {args.seed}: {result['rounds']} round(s), "
          f"set-up samples {[round(s, 3) for s in setups]}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
