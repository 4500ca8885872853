"""Time teacher-forced scoring for two checkouts, and write BENCH_stacked_heads.json.

    env OPENBLAS_NUM_THREADS=1 python3 bench/stacked_heads.py --before OLD --after NEW

OLD and NEW are roots of two checkouts (for example the parent commit, unpacked
with `git archive`, and the working tree).  Each side runs in its own
interpreter with that checkout's `src` first on the path, so both are measured
by this one script on the same machine.  Sides alternate round by round.

The trees are TREES toy-grammar samples of NODES nonterminals (seed SEED).  Four
models with vocabularies built from them and a fixed random initialisation are
timed: tdtd at h=32, tdtd-p at h=32 and h=128, and seq-lm at h=32.  For each,
the JSON holds the median and quartiles over every repeat of the ms per tree to
score (no graph, as in `score`, `eval-nll` and `rerank`) and to score and run
backward (as in `train`).
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRAMMAR = os.path.join(ROOT, "src", "tdtd", "data", "toy_grammar.pcfg")
OUT = os.path.join(ROOT, "BENCH_stacked_heads.json")
TREES, NODES, SEED = 40, 15, 0
MODELS = (("tdtd_h32", "tdtd", 32), ("tdtd-p_h32", "tdtd-p", 32),
          ("tdtd-p_h128", "tdtd-p", 128), ("seq-lm_h32", "seq-lm", 32))
ROUNDS = 4  # per side, alternating
REPEATS = 3  # passes over the trees per round and mode


def measure(src):
    """Per model and mode: per-repeat ms per tree."""
    sys.path.insert(0, os.path.join(src, "src"))
    import numpy as np

    from tdtd import autodiff as ad
    from tdtd.decoder import tree_log_prob
    from tdtd.parser import conditional_tree_log_prob
    from tdtd.pcfg import generate_dataset, load_grammar_file
    from tdtd.seqlm import sequence_log_prob
    from tdtd.training import build_model, build_model_config
    from tdtd.treebank import linearize_brackets

    trees = generate_dataset(load_grammar_file(GRAMMAR), TREES, NODES, seed=SEED)
    result = {}
    for name, kind, h in MODELS:
        config = build_model_config(kind, trees, hidden_size=h, embed_size=h)
        model = build_model(kind, config, np.random.default_rng(0))
        if kind == "tdtd":
            score = lambda t: tree_log_prob(model, t)
        elif kind == "tdtd-p":
            score = lambda t: conditional_tree_log_prob(model, t, t.terminal_yield())
        else:
            score = lambda t: sequence_log_prob(model, linearize_brackets(t))
        times = {"score_ms": [], "score_backward_ms": []}
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            with ad.no_grad():
                for t in trees:
                    score(t).item()
            t1 = time.perf_counter()
            for t in trees:
                ad.backward(score(t), model.store)
            t2 = time.perf_counter()
            times["score_ms"].append((t1 - t0) * 1e3 / len(trees))
            times["score_backward_ms"].append((t2 - t1) * 1e3 / len(trees))
        result[name] = times
    return result


def run_side(root):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure", root],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", help="root of the checkout measured as 'before'")
    ap.add_argument("--after", help="root of the checkout measured as 'after'")
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        json.dump(measure(args.measure), sys.stdout)
        return 0
    if not (args.before and args.after):
        ap.error("--before and --after are required")

    sides = {"before": args.before, "after": args.after}
    samples = {}
    for r in range(ROUNDS):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            for name, modes in run_side(sides[side]).items():
                for mode, values in modes.items():
                    samples.setdefault(name, {}).setdefault(mode, {}).setdefault(
                        side, []).extend(values)

    import numpy as np

    models = {}
    for name, modes in samples.items():
        row = {}
        for mode, by_side in modes.items():
            entry = {side: {"median": statistics.median(v),
                            "quartiles": list(np.quantile(v, [0.25, 0.75]))}
                     for side, v in by_side.items()}
            entry["speedup"] = entry["before"]["median"] / entry["after"]["median"]
            row[mode] = entry
        models[name] = row
    report = {
        "topic": "stacked_heads",
        "command": "env OPENBLAS_NUM_THREADS=1 python3 bench/stacked_heads.py --before OLD --after NEW",
        "unit": "ms per tree",
        "trees": {"count": TREES, "nonterminals": NODES, "seed": SEED},
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
