"""One workload in one process: set up, warm up, time whole rounds, check.

    python3 perfbench/worker.py --workload W --seed N --workdir D --t0 T --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --workdir D --t0 T --setup-only

T is time.monotonic() read by the parent just before it started this
process, so the set-up time reported covers interpreter start and imports.
D holds the files the workload writes.  The last line of standard output is
one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter

import tracing
import workloads


def run_op(op, tracer=None):
    """Time one op.  Returns (seconds, output, error text, spans)."""
    start = len(tracer.spans) if tracer else 0
    t = perf_counter()
    try:
        out, err = op.run(), ""
    except Exception as exc:  # a raising op is a failed op, recorded as such
        out, err = None, f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t
    spans = None
    if tracer is not None:
        spans = [[n, p - start if p >= 0 else -1, s, e, c] for n, p, s, e, c in tracer.spans[start:]]
        del tracer.spans[start:]
    if isinstance(out, dict) and "spans" in out:
        spans = out.pop("spans")
    return dt, out, err, spans


def timed_rounds(wl, seconds, tracer=None, rounds=None):
    """Run whole rounds: a fixed count, or as many as fit in `seconds`
    (always at least one).  Returns (records, elapsed, rounds)."""
    records = []
    t0 = perf_counter()
    done = 0
    while True:
        r0 = perf_counter()
        for op in wl.round:
            records.append((op,) + run_op(op, tracer))
        done += 1
        now = perf_counter()
        if rounds is not None:
            if done >= rounds:
                break
        elif now - t0 + (now - r0) > seconds:
            break
    return records, perf_counter() - t0, done


def check_records(records, workload_name):
    """Oracle checks, once per distinct input, plus repeat identity for
    the CLI.  Returns (failed, unexpected failures)."""
    verdict = {}
    identity = {}
    failed, unexpected = 0, []
    for op, dt, out, err, _ in records:
        reason = err
        if not reason:
            if op.key not in verdict:
                try:
                    verdict[op.key] = op.check(out)
                except Exception as exc:  # an oracle that cannot decide fails the op
                    verdict[op.key] = f"check raised {type(exc).__name__}: {exc}"
            reason = verdict[op.key]
        if not reason and workload_name == "cli-session":
            ident = workloads.cli_identity(out)
            if identity.setdefault(op.key, ident) != ident:
                reason = "results section differs between two runs of one command"
        if reason:
            failed += 1
            if not op.kept_fault:
                unexpected.append(f"{op.key}: {reason}")
    return failed, unexpected


def layer_metrics(records, names):
    """Mean per op of each per-layer metric over the traced records; a
    cli.<kind>_s metric is the mean over the ops of that kind."""
    sums = {}
    kinds = {}
    for op, dt, out, err, spans in records:
        totals = tracing.op_totals(spans or [])
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
        for key, value in totals.items():
            if key == "simplex.tableau_mb":
                sums[key] = max(sums.get(key, 0.0), value)
            else:
                sums[key] = sums.get(key, 0.0) + value
    n_ops = len(records)
    out = {}
    for name, unit in names:
        value = sums.get(name, 0.0)
        if name.startswith("cli.") and name != "cli.import_s":
            kind = name[len("cli."):-len("_s")]
            value = value / kinds[kind] if kinds.get(kind) else 0.0
        elif name != "simplex.tableau_mb":
            value = value / n_ops
        out[name] = {"value": value, "unit": unit}
    return out


def self_time_shares(records):
    """Share of all traced self time per function, largest first."""
    total = {}
    for rec in records:
        for key, value in tracing.op_totals(rec[4] or []).items():
            if key.endswith("_self_s"):
                total[key[: -len("_self_s")]] = total.get(key[: -len("_self_s")], 0.0) + value
    whole = sum(total.values()) or 1.0
    return dict(sorted(((k, v / whole) for k, v in total.items()), key=lambda kv: -kv[1]))


def main(args):
    import infera  # the import is part of set-up

    os.makedirs(args.workdir, exist_ok=True)
    build = workloads.BUILDERS[args.workload]
    wl = build(args.seed, infera, args.workdir)
    run_op(wl.warmup)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        plain, plain_s, rounds = timed_rounds(wl, args.seconds / 2)
        tracer = tracing.Tracer()
        if args.workload == "cli-session":
            # Each command runs under the tracing shim in its own process.
            wl = build(args.seed, infera, args.workdir, trace_dir=args.workdir)
        else:
            tracer.install()
        traced, traced_s, _ = timed_rounds(wl, 0, tracer=tracer, rounds=rounds)
        tracer.uninstall()
        records = plain + traced
    else:
        records, elapsed, rounds = timed_rounds(wl, args.seconds)
    rusage = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rusage).ru_maxrss / 1024.0

    failed, unexpected = check_records(records, args.workload)
    for line in unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    result = {"correct": not unexpected, "attempted": len(records), "failed": failed,
              "setup_s": setup_s, "rounds": rounds}
    if args.trace:
        with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
            names = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
        metrics = layer_metrics(traced, names)
        plain_rate, traced_rate = len(plain) / plain_s, len(traced) / traced_s
        metrics["trace.overhead_ops_per_s"]["value"] = plain_rate - traced_rate
        metrics["trace.overhead_pct"]["value"] = 100.0 * (1.0 - traced_rate / plain_rate)
        shares = self_time_shares(traced)
        path = os.path.join(args.workdir, "..", f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "self_time_share": shares,
                       "ops": [{"key": r[0].key, "seconds": r[1], "error": r[3], "spans": r[4]}
                               for r in traced]}, fh)
        top = ", ".join(f"{k} {v:.0%}" for k, v in list(shares.items())[:5])
        print(f"{args.workload}: self time {top}; trace at {os.path.normpath(path)}", file=sys.stderr)
    else:
        times = [r[1] for r in records]
        metrics = {
            "ops_per_s": {"value": len(records) / elapsed, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


def _parse():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    return ap.parse_args()


if __name__ == "__main__":
    sys.exit(main(_parse()))
