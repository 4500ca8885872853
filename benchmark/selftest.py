"""Tests of the benchmark's own checks: each must pass the program's real
output and reject a deliberately wrong one.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 benchmark/selftest.py

Run from the root of a checkout; exits 0 when every test passes.  The last
test makes two traced runs of the generate workload (about a minute).
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from tdtd import cli, metrics, pcfg  # noqa: E402
from tdtd.decoder import generate_scored  # noqa: E402
from tdtd.modelio import load_model  # noqa: E402
from tdtd.treebank import parse_bracketed, to_bracketed, validate  # noqa: E402

OUT = os.path.join("benchmark", "out", "selftest")


def tdtd(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.run([str(a) for a in argv])
    assert status == 0, buf.getvalue()
    return buf.getvalue()


def rejects(check, *args):
    try:
        check(*args)
    except CheckError:
        return True
    return False


def generated(count=6):
    """Trees drawn from the generate stage's model, their bracketed lines,
    and the `score` TSV of those lines."""
    model = load_model(workloads.GENERATE_MODEL)
    rng = np.random.default_rng(3)
    recorded = [generate_scored(model, rng=rng) for _ in range(count)]
    lines = [to_bracketed(tree) for tree, _ in recorded]
    path = os.path.join(OUT, "samples.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    scores = os.path.join(OUT, "scores.tsv")
    tdtd("score", "--model-file", workloads.GENERATE_MODEL, "--data", path, "--out", scores)
    with open(scores, encoding="utf-8") as fh:
        return model, recorded, lines, fh.read()


def test_generated_tree_over_depth_cap():
    model, recorded, lines, _ = generated()
    c = model.config
    caps = (c.max_depth, c.max_children_per_node, c.max_layer_width)
    args = (parse_bracketed, validate, to_bracketed)
    checks.check_generated(lines, len(lines), caps, recorded, *args)
    deepest = max(reference.shape(reference.parse_tree(line))[0] for line in lines)
    assert rejects(checks.check_generated, lines, len(lines),
                   (deepest - 1,) + caps[1:], recorded, *args)
    chain = "(S " * (c.max_depth + 1) + "w" + ")" * (c.max_depth + 1)
    assert rejects(checks.check_generated, [chain] + lines[1:], len(lines), caps,
                   [(parse_bracketed(chain), 0.0)] + recorded[1:], *args)
    assert rejects(checks.check_generated, lines[1:], len(lines), caps, recorded[1:], *args)


def test_score_off_by_1e6():
    _, recorded, _, tsv = generated()
    checks.check_scores(tsv, recorded)
    rows = [line.split("\t") for line in tsv.splitlines()]
    rows[2][1] = f"{float(rows[2][1]) + 1e-6:.6f}"
    assert rejects(checks.check_scores, "\n".join("\t".join(r) for r in rows) + "\n", recorded)


def test_bleu_off_by_1e6():
    grammar = pcfg.load_grammar_file(workloads.GRAMMAR)
    cands = [t.terminal_yield() for t in pcfg.generate_dataset(grammar, 30, 15, seed=1)]
    refs = [t.terminal_yield() for t in pcfg.generate_dataset(grammar, 40, 15, seed=2)]
    cand_path, ref_path = os.path.join(OUT, "cands.txt"), os.path.join(OUT, "refs.txt")
    workloads.write_sentences(cand_path, cands)
    workloads.write_sentences(ref_path, refs)
    out = tdtd("eval-bleu", "--candidates", cand_path, "--references", ref_path,
               "--n", 4, "--json")
    printed = workloads.bleu_score_text(out)
    expected = reference.bleu(cands, refs)
    assert abs(metrics.bleu_n(cands, refs, 4) - expected) <= 1e-12
    checks.check_bleu(printed, expected)
    assert rejects(checks.check_bleu, f"{float(printed) + 1e-6:.6f}", expected)
    assert rejects(checks.check_bleu, f"{float(printed) - 1e-6:.6f}", expected)


def test_sample_report_matches_program():
    grammar = pcfg.load_grammar_file(workloads.GRAMMAR)
    trees = pcfg.generate_dataset(grammar, 30, 15, seed=4)
    lines = [to_bracketed(t) for t in trees] + [to_bracketed(trees[0])]
    report = json.loads(metrics.sample_report([parse_bracketed(x) for x in lines],
                                              grammar).to_json())
    expected = reference.sample_report(lines, reference.read_rules(workloads.GRAMMAR))
    checks.check_sample_report(report, expected)
    assert expected["dup_rate"] > 0
    expected["mean_nll"] += 1e-8
    assert rejects(checks.check_sample_report, report, expected)


def test_rerank_row_dropped_or_swapped():
    vocab = os.path.join(OUT, "vocab.txt")
    tdtd("gen-data", "--grammar", workloads.GRAMMAR, "--nodes", 15, "--count", 100,
         "--seed", workloads.RERANK_VOCAB_SEED, "--out", vocab)
    model_dir = os.path.join(OUT, "model")
    tdtd("train", "--model", "tdtd-p", "--data", vocab, "--dev-data", vocab, "--out", model_dir,
         "--epochs", 0, "--hidden-size", 8, "--embed-size", 8, "--seed", 1)
    rules = reference.read_rules(workloads.GRAMMAR)
    internal = sorted({lhs for lhs, rhs in rules if any(not t for _, t in rhs)})
    rng = np.random.default_rng(7)
    blocks = []
    with open(vocab, encoding="utf-8") as fh:
        for line in list(fh)[:2]:
            tree = reference.parse_tree(line)
            blocks.append((reference.words(tree),
                           workloads.candidate_parses(tree, internal, 20, rng)))
    assert all(len(c) == 20 for _, c in blocks)
    for words, cands in blocks:
        for text in cands:
            assert reference.words(reference.parse_tree(text)) == words
    cand_path, ranked = os.path.join(OUT, "candidates.txt"), os.path.join(OUT, "ranked.tsv")
    with open(cand_path, "w", encoding="utf-8") as fh:
        for words, cands in blocks:
            fh.write(" ".join(words) + "\n" + "\n".join(cands) + "\n\n")
    tdtd("rerank", "--model-file", os.path.join(model_dir, "final.ckpt"),
         "--candidates", cand_path, "--out", ranked)
    with open(ranked, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    checks.check_rerank("\n".join(rows), blocks)
    assert rejects(checks.check_rerank, "\n".join(rows[:5] + rows[6:]), blocks)
    i = next(k for k in range(len(rows) - 1)
             if rows[k].split("\t")[2] != rows[k + 1].split("\t")[2])
    swapped = rows[:i] + [rows[i + 1], rows[i]] + rows[i + 2:]
    assert rejects(checks.check_rerank, "\n".join(swapped), blocks)
    # the same swap keeping the rank column in order
    cols = [r.split("\t") for r in swapped]
    cols[i][1], cols[i + 1][1] = cols[i + 1][1], cols[i][1]
    assert rejects(checks.check_rerank, "\n".join("\t".join(c) for c in cols), blocks)


def test_traced_runs_repeat_calls():
    def traced():
        proc = subprocess.run(
            [sys.executable, os.path.join("benchmark", "run.py"), "--workload", "generate",
             "--seed", "5", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, check=True, timeout=300)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stderr
        return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}

    first, second = traced(), traced()
    assert first == second
    assert first["autodiff.gru_step.calls"] > 0


def main():
    os.chdir(ROOT)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    failed = 0
    for name, test in [(n, f) for n, f in globals().items() if n.startswith("test_")]:
        try:
            test()
        except Exception as exc:  # report every failing test, then exit non-zero
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
