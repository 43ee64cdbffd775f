"""Benchmark for `jus`: one workload, one seed, one process.

    python3 bench/run.py --workload sweep|search|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library is imported from `src/` of
that checkout; nothing is installed. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are
the per-layer ones from a separate traced set-up and round, plus the
tracing overhead. Full results and the aggregated trace are also written
under `bench/results/`. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HASH_SEED = "0"
SETUP_REPEATS = 7

sys.path.insert(0, HERE)

from workloads import WORKLOADS, Raised  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Benchmark one jus workload.")
    ap.add_argument("--workload", required=True, choices=("sweep", "search", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_jus():
    """A fresh import of jus from this checkout's src/, every submodule."""
    for name in [m for m in sys.modules if m == "jus" or m.startswith("jus.")]:
        del sys.modules[name]
    jus = importlib.import_module("jus")
    importlib.import_module("jus.cli")
    return jus


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def calibration():
    """A fixed piece of interpreter work: tuple keys, dict updates, big-int
    bit operations and calls, the mix jus spends its time on."""
    table = {}
    acc = 0
    for i in range(6000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) | (1 << (i & 127))
        acc ^= table[key] & ~acc
    return acc


# Seconds `calibration` takes on this 2-core x86-64 VM when the host is quiet.
REFERENCE_CAL_S = 0.0022


def calibrate():
    """Seconds one calibration takes now: the median of three."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        calibration()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def measure(fn):
    """(result, wall seconds, reference seconds) of fn().

    The host is shared, and its speed drifts by up to 2x over tens of
    seconds. Right before and right after fn, `calibration` is timed, and
    the wall time is scaled by REFERENCE_CAL_S over the mean of the two:
    the seconds fn would take when the calibration loop takes its reference
    time. Nothing in jus runs during calibration, so a change to jus moves
    the scaled time exactly as it moves the wall time.
    """
    before = calibrate()
    start = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - start
    after = calibrate()
    return out, wall, wall * REFERENCE_CAL_S / ((before + after) / 2)


def run_round(work, on_result):
    """Runs each operation once; returns per-operation (wall, reference)
    seconds.

    Between operations, outside their timing, garbage is collected and the
    survivors are frozen, so every operation starts with an empty young
    generation and later collections skip long-lived objects. The collector
    stays on inside an operation: a countermodel search leaves cyclic
    garbage (a context tree) per model and would grow by hundreds of MB.
    """
    times = []
    for i, (_, op) in enumerate(work.ops):
        out, wall, ref = measure(lambda: guarded(op))
        times.append((wall, ref))
        on_result(i, out)
        gc.collect()
        gc.freeze()
    return times


def guarded(op):
    try:
        return op()
    except Exception as e:  # reported through the output checks
        return Raised(e)


def main(argv=None):
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + (argv if argv is not None else sys.argv[1:]), env)
    if not os.path.isfile(os.path.join(SRC, "jus", "__init__.py")):
        print("no jus sources under %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    Work = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, ".work", args.workload)
    os.makedirs(workdir, exist_ok=True)

    # set-up: import plus inputs and files, several times; the median counts
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()

        def setup():
            jus = import_jus()
            work = Work(jus, args.seed, workdir)
            work.setup()
            return jus, work
        (jus, work), wall, ref = measure(setup)
        setups.append((wall, ref))
    if os.path.dirname(os.path.abspath(jus.__file__)) != os.path.join(SRC, "jus"):
        print("imported jus from %s, not from this checkout" % jus.__file__, file=sys.stderr)
        return 2

    # timed phase: whole rounds until the time is up, there are enough
    # operations for the tail percentile, and the workload's minimum of rounds
    first = {}
    mismatched = []

    def keep(i, out):
        if i not in first:
            first[i] = out
        elif not work.same(first[i], out):
            mismatched.append(work.ops[i][0])

    gc.collect()
    gc.freeze()
    rounds = []
    begin = time.perf_counter()
    while True:
        rounds.append(run_round(work, keep))
        if (time.perf_counter() - begin >= args.seconds and len(rounds) >= work.min_rounds
                and len(rounds) * len(work.ops) >= work.min_ops):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.unfreeze()

    check_start = time.perf_counter()
    counts = work.check([first[i] for i in range(len(work.ops))])
    check_s = time.perf_counter() - check_start
    for label in sorted(set(mismatched)):
        work.fail("%s gave a different result in a later round" % label)
    failed_labels = [work.ops[i][0] for i in sorted(work.failed)]

    ref_ops = [ref for r in rounds for _, ref in r]
    ref_rounds = [sum(ref for _, ref in r) for r in rounds]

    def throughput(index):
        done = seconds = 0.0
        for r in rounds:
            for c, (_, ref) in zip(counts, r):
                if c[index] is not None:
                    done += c[index]
                    seconds += ref
        return done / seconds

    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "wall_s": (statistics.median(ref_rounds), "s"),
        "op_p50_ms": (1000 * percentile(ref_ops, 50), "ms"),
        "op_tail_ms": (1000 * percentile(ref_ops, work.tail_pct), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "evals_per_s": (throughput(0), "1/s"),
        "models_per_s": (throughput(1), "1/s"),
        "calls_per_s": (len(ref_ops) / sum(ref_ops), "1/s"),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": len(rounds), "ops_per_round": len(work.ops),
        "tail_percentile": work.tail_pct, "failed_ops": failed_labels,
        "problems": work.notes, "check_wall_s": check_s,
        "setup_wall_s": [w for w, _ in setups], "setup_ref_s": [r for _, r in setups],
        "round_wall_s": [sum(w for w, _ in r) for r in rounds], "round_ref_s": ref_rounds,
        "op_ref_median_ms": {label: 1000 * statistics.median(r[i][1] for r in rounds)
                             for i, (label, _) in enumerate(work.ops)},
        "op_wall_s": [[w for w, _ in r] for r in rounds],
        "op_ref_s": [[ref for _, ref in r] for r in rounds],
    }

    if args.trace:
        metrics = traced_run(jus, Work, args, workdir, statistics.median(ref_rounds),
                             detail)

    result = {
        "correct": not work.notes,
        "attempted": len(rounds) * len(work.ops),
        "failed": len(rounds) * len(failed_labels),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail["result"] = result
    name = "%s-%d%s.json" % (args.workload, args.seed, "-trace" if args.trace else "")
    with open(os.path.join(results_dir(), name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


def traced_run(jus, Work, args, workdir, untraced_round_s, detail):
    """Per-layer metrics from one traced set-up and one traced round, with
    the round's slowdown against the untraced rounds as tracing overhead."""
    from layertrace import Tracer

    tracer = Tracer(jus)
    tracer.install()
    try:
        work = Work(jus, args.seed, workdir)
        work.setup()
        outputs = {}
        gc.collect()
        gc.freeze()
        times = run_round(work, outputs.__setitem__)
        gc.unfreeze()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    out = [outputs[i] for i in range(len(work.ops))]
    metrics["cli.output_bytes"] = (work.output_bytes(out), "bytes")
    traced_round_s = sum(ref for _, ref in times)
    metrics["trace.overhead_pct"] = (100.0 * (traced_round_s / untraced_round_s - 1.0), "%")
    detail["trace"] = {"round_ref_s": traced_round_s, "round_wall_s": sum(w for w, _ in times)}
    path = os.path.join(results_dir(), "trace-%s-%d.json" % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh, indent=1)
    return metrics


def results_dir():
    path = os.path.join(HERE, "results")
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
