"""Time model-file save and load for two checkouts, and write BENCH_model_io.json.

    env OPENBLAS_NUM_THREADS=1 python3 bench/model_io.py --before OLD --after NEW

OLD and NEW are roots of two checkouts (for example the parent commit, unpacked
with `git archive`, and the working tree).  Each side runs in its own
interpreter with that checkout's `src` first on the path, so both are measured
by this one script on the same machine.  Sides alternate round by round.

Two models are timed: the h=32 tdtd in benchmark/models/tdtd_h32.model, and an
h=128 tdtd-p with the same vocabularies, the size that `tdtd rerank` loads in
the benchmark.  Each side saves the model in its own format and loads that
file back; the JSON holds the median seconds over every repeat.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODEL = os.path.join(ROOT, "benchmark", "models", "tdtd_h32.model")
OUT = os.path.join(ROOT, "BENCH_model_io.json")
ROUNDS = 4  # per side, alternating
REPEATS = 5  # save+load pairs per round


def measure(src, model_path):
    """Per model: parameter count, file bytes and per-repeat save/load seconds."""
    sys.path.insert(0, os.path.join(src, "src"))
    import dataclasses

    import numpy as np

    from tdtd.modelio import load_model, save_model
    from tdtd.parser import TdtdParserModel

    h32 = load_model(model_path)
    p128 = TdtdParserModel(dataclasses.replace(h32.config, hidden_size=128, embed_size=128),
                           rng=np.random.default_rng(0))
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, model in (("tdtd_h32", h32), ("tdtd-p_h128", p128)):
            path = os.path.join(tmp, name)
            save_s, load_s = [], []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                save_model(model, path)
                t1 = time.perf_counter()
                load_model(path)
                load_s.append(time.perf_counter() - t1)
                save_s.append(t1 - t0)
            result[name] = {
                "params": sum(t.values.size for _, t in model.store.items()),
                "file_bytes": os.path.getsize(path),
                "save_s": save_s,
                "load_s": load_s,
            }
    return result


def run_side(root):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure", root, "--model", MODEL],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", help="root of the checkout measured as 'before'")
    ap.add_argument("--after", help="root of the checkout measured as 'after'")
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    ap.add_argument("--model", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        json.dump(measure(args.measure, args.model), sys.stdout)
        return 0
    if not (args.before and args.after):
        ap.error("--before and --after are required")

    sides = {"before": args.before, "after": args.after}
    samples = {}
    for r in range(ROUNDS):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            for name, m in run_side(sides[side]).items():
                entry = samples.setdefault(name, {}).setdefault(side, {
                    "params": m["params"], "file_bytes": m["file_bytes"],
                    "save_s": [], "load_s": []})
                entry["save_s"] += m["save_s"]
                entry["load_s"] += m["load_s"]

    import numpy as np

    models = {}
    for name, by_side in samples.items():
        row = {}
        for side, m in by_side.items():
            row[side] = {
                "params": m["params"],
                "file_bytes": m["file_bytes"],
                "save_s": statistics.median(m["save_s"]),
                "load_s": statistics.median(m["load_s"]),
                "save_s_quartiles": list(np.quantile(m["save_s"], [0.25, 0.75])),
                "load_s_quartiles": list(np.quantile(m["load_s"], [0.25, 0.75])),
            }
        for op in ("save_s", "load_s"):
            row[f"{op[:4]}_speedup"] = row["before"][op] / row["after"][op]
        models[name] = row
    report = {
        "topic": "model_io",
        "command": "env OPENBLAS_NUM_THREADS=1 python3 bench/model_io.py --before OLD --after NEW",
        "samples_per_median": ROUNDS * REPEATS,
        "machine": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "models": models,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(models, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
