"""Benchmark of the tdtd command: train, generate and rerank workloads.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 benchmark/run.py \\
        --workload train|generate|rerank --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  Every
workload sets up the inputs of all three stages, then runs rounds of
subcommand calls from every stage, interleaved, for --seconds; the
workload's own stage gets MAIN_SHARE times the time of each other stage.
So every run reports every end-to-end metric.  With --trace 1 the
workload's stage runs TRACE_ROUNDS rounds and each other stage one, under
the tracer, and the run reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAIN_SHARE = 1.5
TRACE_ROUNDS = 2
ORDER = ("train", "generate", "rerank")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=ORDER)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """tdtd from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tdtd", "cli.py")):
        raise SystemExit(f"benchmark: no tdtd sources under {src}; "
                         "run from the root of a checkout of the repository")
    sys.path.insert(0, src)
    import tdtd.cli
    if not os.path.abspath(tdtd.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"benchmark: imported tdtd from {tdtd.cli.__file__}, not {src}")
    return tdtd.cli


def log_run(args, bench, stages, rounds, measured_s, check_s):
    """What the run did, on standard error: calibration times, wall and
    scaled seconds per call of each subcommand, and unscaled metrics."""
    err = sys.stderr
    print("calibration_s", " ".join(f"{c:.4f}" for c in bench.calibrations), file=err)
    for sub in dict.fromkeys(sub for sub, _, _ in bench.calls):
        calls = [c for c in bench.calls if c[0] == sub]
        print(f"call {sub} n={len(calls)} "
              f"wall_s={sum(c[1] for c in calls) / len(calls):.4f} "
              f"scaled_s={sum(c[2] for c in calls) / len(calls):.4f}", file=err)
    for stage in stages.values():
        for name, value in stage.values(column=2).items():
            print(f"unscaled {name} {value:.4f}", file=err)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"measured_s={measured_s:.3f} check_s={check_s:.3f}", file=err)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    cli = import_program()
    from tracing import Tracer
    from workloads import STAGES, Bench

    out_dir = os.path.join("benchmark", "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    bench = Bench(cli, out_dir, args.seed, tracer)
    began = time.perf_counter()
    before = bench.calibration()
    calibration_s = time.perf_counter() - began
    stages = {name: STAGES[name]() for name in ORDER}
    for stage in stages.values():
        stage.setup(bench)
    setup_s = (time.perf_counter() - _START - calibration_s) * bench.scale(before)

    # Stages take turns; the next round goes to the stage with the least
    # time so far per share, and the workload's own stage has MAIN_SHARE.
    share = {name: MAIN_SHARE if name == args.workload else 1.0 for name in ORDER}
    spent = dict.fromkeys(ORDER, 0.0)
    rounds = dict.fromkeys(ORDER, 0)
    start = time.perf_counter()
    while True:
        if tracer:
            due = [n for n in ORDER
                   if rounds[n] < (TRACE_ROUNDS if n == args.workload else 1)]
            if not due:
                break
            name = due[0]
        else:
            if min(rounds.values()) > 0 and time.perf_counter() - start >= args.seconds:
                break
            name = min(ORDER, key=lambda n: spent[n] / share[n])
        began = time.perf_counter()
        stages[name].round(bench, rounds[name])
        spent[name] += time.perf_counter() - began
        rounds[name] += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
        bench.tracer = None

    correct = True
    check_start = time.perf_counter()
    for name in ORDER:
        try:
            stages[name].check(bench)
        except Exception:  # a failed check or a program error: report, keep going
            correct = False
            print(f"check failed in stage {name}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    if tracer:
        metrics = tracer.metrics()
        tracer.save(os.path.join(out_dir, "trace.npz"))
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}
        for stage in stages.values():
            for name, value in stage.values().items():
                metrics[name] = {"value": value, "unit": stage.metrics[name]}
    log_run(args, bench, stages, rounds, measured_s, time.perf_counter() - check_start)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
