"""Command-line harness wiring configs, datasets, models and reports.

Every subcommand prints one machine-readable summary line ending in OK or
FAIL; the exit status is 0 exactly when the summary ends OK.  Each run
writes a manifest (resolved config, seed, sha256 digests of the input
files) next to its outputs, sufficient to reproduce them bit-exactly.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

import numpy as np

from . import autodiff as ad
from . import metrics, pcfg, treebank
from .decoder import TdtdConfig, TdtdModel, generate_scored, tree_log_prob
from .modelio import load_model, save_model
from .parser import (TdtdParserModel, conditional_tree_log_prob, format_rerank_tsv,
                     read_candidate_file, rerank)
from .seqlm import SeqLmConfig, SeqLmModel, sample_sequence, sequence_log_prob
from .training import (MODEL_KINDS, TrainConfig, build_model_config, train)

__all__ = ["main", "run", "load_config", "ConfigError"]


class ConfigError(ValueError):
    pass


class CliError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# experiment config files: `key = value`, '#' comments, unknown keys rejected


def _boolval(s):
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


CONFIG_SCHEMA = {
    # model
    "hidden_size": int,
    "embed_size": int,
    "max_depth": int,
    "max_children_per_node": int,
    "max_layer_width": int,
    "scaled_attention": _boolval,
    "max_length": int,
    # training
    "learning_rate": float,
    "batch_size": int,
    "epochs": int,
    "optimizer": str,
    "grad_clip": float,
    "eval_period": int,
    "dev_fraction": float,
    "curriculum_enabled": _boolval,
    "curriculum_initial_depth": int,
    "curriculum_initial_width": int,
    "curriculum_period": int,
    "curriculum_increment": int,
    "ss_enabled": _boolval,
    "tf_initial": float,
    "tf_final": float,
    "tf_anneal_steps": int,
    "tf_schedule": str,
    # grammar / data handling
    "start": str,  # comma-separated start symbols
    "prune_threshold": float,
    "penalty": float,
    "nodes": int,
    "count": int,
    "min_len": int,
    "max_len": int,
    "freq_threshold": int,
    "train_size": int,
    "test_size": int,
    "bleu_n": int,
    "bleu_mode": str,
    "greedy": _boolval,
    "kind": str,
    "exclude_root": _boolval,
    # paths, seeds, misc
    "seed": int,
    "threads": int,
    "grammar": str,
    "data": str,
    "dev_data": str,
    "model_file": str,
    "candidates": str,
    "references": str,
    "out": str,
    "model": str,
}

_PATH_KEYS = ("grammar", "data", "dev_data", "model_file", "candidates", "references")


def load_config(path):
    """Parse a `key = value` experiment config; unknown keys and bad values
    raise ConfigError with the line number.  Referenced input paths must
    resolve."""
    config = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                config[key] = CONFIG_SCHEMA[key](value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: bad value {value!r} for {key!r}"
                ) from None
    for key in _PATH_KEYS:
        if key in config and not os.path.exists(config[key]):
            raise ConfigError(f"{path}: {key} = {config[key]!r} does not resolve")
    return config


def _resolve(args, file_config, key, default=None):
    """CLI flag > config file > default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in file_config:
        return file_config[key]
    return default


def _resolve_seed(args, file_config, required=True):
    seed = _resolve(args, file_config, "seed")
    if seed is None:
        env = os.environ.get("TDTD_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(f"TDTD_SEED is not an integer: {env!r}") from None
    if seed is None and required:
        raise ConfigError("a seed is required (flag --seed, config `seed`, or TDTD_SEED)")
    return seed


# ---------------------------------------------------------------------------
# manifests


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(run_dir, command, resolved, input_paths):
    os.makedirs(run_dir, exist_ok=True)
    lines = [f"command = {command}"]
    for key in sorted(resolved):
        lines.append(f"{key} = {resolved[key]}")
    for path in input_paths:
        lines.append(f"input {path} sha256 {_digest(path)}")
    with open(os.path.join(run_dir, "manifest.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_dir_for(args, default_anchor):
    if getattr(args, "run_dir", None):
        return args.run_dir
    if default_anchor:
        parent = os.path.dirname(os.path.abspath(default_anchor))
        return parent
    return os.path.join("runs", args.command)


# ---------------------------------------------------------------------------
# subcommands


def _load_grammar(args, cfg):
    path = _resolve(args, cfg, "grammar")
    if not path:
        raise CliError("--grammar is required")
    start = _resolve(args, cfg, "start")
    start_set = [s for s in start.split(",") if s] if start else None
    grammar = pcfg.load_grammar_file(path, start=start_set)
    threshold = _resolve(args, cfg, "prune_threshold")
    if threshold is not None:
        grammar = pcfg.prune_grammar(grammar, threshold)
    return grammar, path


def cmd_gen_data(args, cfg):
    grammar, grammar_path = _load_grammar(args, cfg)
    seed = _resolve_seed(args, cfg)
    count = _resolve(args, cfg, "count", 10_000)
    nodes = _resolve(args, cfg, "nodes", 10)  # protocol sizes: 10, 15, 20
    max_depth = _resolve(args, cfg, "max_depth", pcfg.DEFAULT_MAX_DEPTH)
    out = _resolve(args, cfg, "out")
    if not out:
        raise CliError("--out is required")
    trees = pcfg.generate_dataset(grammar, count, nodes, max_depth=max_depth, seed=seed)
    treebank.write_treebank(out, trees)
    run_dir = _run_dir_for(args, out)
    write_manifest(run_dir, "gen-data",
                   {"seed": seed, "count": count, "nodes": nodes,
                    "max_depth": max_depth, "grammar": grammar_path, "out": out},
                   [grammar_path])
    return f"gen-data count={count} nodes={nodes} seed={seed} out={out} OK"


def cmd_train(args, cfg):
    kind = _resolve(args, cfg, "model")
    if kind not in MODEL_KINDS:
        raise CliError(f"--model must be one of {', '.join(MODEL_KINDS)}")
    data_path = _resolve(args, cfg, "data")
    if not data_path:
        raise CliError("--data is required")
    out_dir = _resolve(args, cfg, "out")
    if not out_dir:
        raise CliError("--out is required")
    seed = _resolve_seed(args, cfg)
    trees = treebank.read_treebank(data_path)
    dev_path = _resolve(args, cfg, "dev_data")
    dev = treebank.read_treebank(dev_path) if dev_path else None

    train_config = TrainConfig(
        seed=seed,
        learning_rate=_resolve(args, cfg, "learning_rate", 0.01),
        batch_size=_resolve(args, cfg, "batch_size", 16),
        epochs=_resolve(args, cfg, "epochs", 10),
        optimizer=_resolve(args, cfg, "optimizer", "adam"),
        grad_clip=_resolve(args, cfg, "grad_clip", 5.0),
        eval_period=_resolve(args, cfg, "eval_period", 1),
        dev_fraction=_resolve(args, cfg, "dev_fraction", 0.1),
        curriculum_enabled=_resolve(args, cfg, "curriculum_enabled", False),
        curriculum_initial_depth=_resolve(args, cfg, "curriculum_initial_depth", 3),
        curriculum_initial_width=_resolve(args, cfg, "curriculum_initial_width", 8),
        curriculum_period=_resolve(args, cfg, "curriculum_period", 1),
        curriculum_increment=_resolve(args, cfg, "curriculum_increment", 1),
        ss_enabled=_resolve(args, cfg, "ss_enabled", False),
        tf_initial=_resolve(args, cfg, "tf_initial", 1.0),
        tf_final=_resolve(args, cfg, "tf_final", 1.0),
        tf_anneal_steps=_resolve(args, cfg, "tf_anneal_steps", 1),
        tf_schedule=_resolve(args, cfg, "tf_schedule", "linear"),
    )
    default_hidden = 128 if kind == "tdtd-p" else 32
    overrides = {
        "hidden_size": _resolve(args, cfg, "hidden_size", default_hidden),
        "embed_size": _resolve(args, cfg, "embed_size", default_hidden),
    }
    if kind == "seq-lm":
        max_length = _resolve(args, cfg, "max_length")
        if max_length is not None:
            overrides["max_length"] = max_length
    else:
        overrides["max_children_per_node"] = _resolve(args, cfg, "max_children_per_node", 8)
        overrides["max_layer_width"] = _resolve(args, cfg, "max_layer_width", 64)
        overrides["scaled_attention"] = _resolve(args, cfg, "scaled_attention", True)
        max_depth = _resolve(args, cfg, "max_depth")
        if max_depth is not None:
            overrides["max_depth"] = max_depth

    result = train(kind, trees, train_config, dev=dev, checkpoint_dir=out_dir,
                   model_overrides=overrides)
    resolved = {"model": kind, "seed": seed, "data": data_path, "out": out_dir,
                **{f"train.{k}": getattr(train_config, k)
                   for k in ("learning_rate", "batch_size", "epochs", "optimizer",
                             "grad_clip", "curriculum_enabled", "ss_enabled")},
                **{f"model.{k}": v for k, v in overrides.items()}}
    inputs = [data_path] + ([dev_path] if dev_path else [])
    write_manifest(out_dir, "train", resolved, inputs)
    final = result.report.final_dev_nll()
    return (f"train model={kind} epochs={train_config.epochs} "
            f"final_dev_nll={final:.6f} out={out_dir} OK")


def cmd_generate(args, cfg):
    model_path = _resolve(args, cfg, "model_file")
    if not model_path:
        raise CliError("--model-file is required")
    count = _resolve(args, cfg, "count", 100)
    if count < 1:
        raise CliError("--count must be >= 1")
    model = load_model(model_path)
    greedy = _resolve(args, cfg, "greedy", False)
    seed = _resolve_seed(args, cfg, required=not greedy)
    out = _resolve(args, cfg, "out")
    if not out:
        raise CliError("--out is required")
    rng = np.random.default_rng(seed) if seed is not None else None
    lines = []
    fails = 0
    if model.kind == "seq-lm":
        for _ in range(count):
            tokens = sample_sequence(model, rng=rng, greedy=greedy)
            lines.append(" ".join(tokens))
            if not isinstance(treebank.delinearize_brackets(tokens), treebank.Tree):
                fails += 1
    else:
        for _ in range(count):
            tree, _ = generate_scored(model, rng=rng, greedy=greedy)
            lines.append(treebank.to_bracketed(tree))
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    write_manifest(_run_dir_for(args, out), "generate",
                   {"model_file": model_path, "count": count, "seed": seed,
                    "greedy": greedy, "out": out}, [model_path])
    return (f"generate kind={model.kind} count={count} seed={seed} "
            f"fail_rate={fails / count:.4f} out={out} OK")


def cmd_score(args, cfg):
    model_path = _resolve(args, cfg, "model_file")
    data_path = _resolve(args, cfg, "data")
    if not model_path or not data_path:
        raise CliError("--model-file and --data are required")
    model = load_model(model_path)
    exclude_root = _resolve(args, cfg, "exclude_root", False)
    out = _resolve(args, cfg, "out")
    rows = []
    with ad.no_grad():
        if model.kind == "seq-lm":
            with open(data_path, "r", encoding="utf-8") as fh:
                for i, line in enumerate(fh):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    lp = sequence_log_prob(model, line.split()).item()
                    rows.append((i, lp))
        else:
            trees = treebank.read_treebank(data_path)
            for i, tree in enumerate(trees):
                if model.kind == "tdtd-p":
                    lp = conditional_tree_log_prob(
                        model, tree, tree.terminal_yield(),
                        exclude_root=exclude_root).item()
                else:
                    lp = tree_log_prob(model, tree, exclude_root=exclude_root).item()
                rows.append((i, lp))
    text = "\n".join(f"{i}\t{lp:.6f}" for i, lp in rows) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        write_manifest(_run_dir_for(args, out), "score",
                       {"model_file": model_path, "data": data_path, "out": out,
                        "exclude_root": exclude_root},
                       [model_path, data_path])
    else:
        sys.stdout.write(text)
    mean = sum(lp for _, lp in rows) / len(rows) if rows else math.nan
    return f"score kind={model.kind} items={len(rows)} mean_log_prob={mean:.6f} OK"


def cmd_rerank(args, cfg):
    model_path = _resolve(args, cfg, "model_file")
    cand_path = _resolve(args, cfg, "candidates")
    if not model_path or not cand_path:
        raise CliError("--model-file and --candidates are required")
    model = load_model(model_path)
    if model.kind != "tdtd-p":
        raise CliError(f"rerank needs a tdtd-p model, got {model.kind}")
    out = _resolve(args, cfg, "out")
    blocks = read_candidate_file(cand_path)
    chunks = []
    for index, (sentence, trees) in enumerate(blocks):
        ranked = rerank(model, sentence, trees)
        chunks.append(format_rerank_tsv(index, ranked))
    text = "\n".join(chunks) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        write_manifest(_run_dir_for(args, out), "rerank",
                       {"model_file": model_path, "candidates": cand_path, "out": out},
                       [model_path, cand_path])
    else:
        sys.stdout.write(text)
    return f"rerank sentences={len(blocks)} out={out or '-'} OK"


def cmd_eval_nll(args, cfg):
    grammar, grammar_path = _load_grammar(args, cfg)
    data_path = _resolve(args, cfg, "data")
    if not data_path:
        raise CliError("--data is required")
    kind = _resolve(args, cfg, "kind", "trees")
    penalty = _resolve(args, cfg, "penalty", pcfg.DEFAULT_PENALTY_PROB)
    if kind == "trees":
        samples = treebank.read_treebank(data_path)
    elif kind == "tokens":
        samples = []
        with open(data_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    samples.append(line.split())
    else:
        raise CliError("--kind must be trees or tokens")
    report = metrics.sample_report(samples, grammar, penalty=penalty)
    sys.stdout.write(report.to_json() + "\n" if args.json else
                     report.to_tsv() + report.to_text())
    if getattr(args, "run_dir", None):
        write_manifest(args.run_dir, "eval-nll",
                       {"grammar": grammar_path, "data": data_path,
                        "kind": kind, "penalty": penalty},
                       [grammar_path, data_path])
    return (f"eval-nll samples={report.count} mean_nll={_num(report.mean_nll)} "
            f"fail={report.fail_rate:.4f} dup={report.dup_rate:.4f} OK")


def _num(x):
    return "inf" if math.isinf(x) else f"{x:.6f}"


def _read_sentences(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line.split())
    return out


def cmd_eval_bleu(args, cfg):
    cand_path = _resolve(args, cfg, "candidates")
    ref_path = _resolve(args, cfg, "references")
    if not cand_path or not ref_path:
        raise CliError("--candidates and --references are required")
    n = _resolve(args, cfg, "bleu_n", 4)
    mode = _resolve(args, cfg, "bleu_mode", "sentence")
    candidates = _read_sentences(cand_path)
    references = _read_sentences(ref_path)
    score = metrics.bleu_n(candidates, references, n, mode=mode)
    if args.json:
        sys.stdout.write('{"bleu_n": %d, "mode": "%s", "score": %.6f}\n' % (n, mode, score))
    else:
        sys.stdout.write(f"BLEU-{n} ({mode})\t{score:.6f}\n")
    if getattr(args, "run_dir", None):
        write_manifest(args.run_dir, "eval-bleu",
                       {"candidates": cand_path, "references": ref_path,
                        "bleu_n": n, "bleu_mode": mode},
                       [cand_path, ref_path])
    return f"eval-bleu n={n} mode={mode} candidates={len(candidates)} score={score:.6f} OK"


def cmd_eval_f1(args, cfg):
    pred_path = _resolve(args, cfg, "data")
    gold_path = _resolve(args, cfg, "references")
    if not pred_path or not gold_path:
        raise CliError("--pred and --gold are required")
    pred = treebank.read_treebank(pred_path)
    gold = treebank.read_treebank(gold_path)
    if len(pred) != len(gold):
        raise CliError(f"tree counts differ: {len(pred)} predicted vs {len(gold)} gold")
    result = metrics.bracket_f1_corpus(zip(pred, gold))
    sys.stdout.write(result.to_json() + "\n" if args.json else result.to_tsv())
    if getattr(args, "run_dir", None):
        write_manifest(args.run_dir, "eval-f1",
                       {"pred": pred_path, "gold": gold_path},
                       [pred_path, gold_path])
    return (f"eval-f1 pairs={len(pred)} precision={result.precision:.6f} "
            f"recall={result.recall:.6f} f1={result.f1:.6f} OK")


def cmd_grad_check(args, cfg):
    kind = _resolve(args, cfg, "model", "tdtd")
    if kind not in MODEL_KINDS:
        raise CliError(f"--model must be one of {', '.join(MODEL_KINDS)}")
    seed = _resolve_seed(args, cfg, required=False)
    if seed is None:
        seed = 0
    threshold = 1e-4
    err = _grad_check_error(kind, seed)
    status = "OK" if err < threshold else "FAIL"
    return (f"grad-check model={kind} max_rel_error={err:.3e} "
            f"threshold={threshold:.0e} {status}")


def _grad_check_error(kind, seed):
    """Finite-difference check on a fixed small fixture (5-node tree)."""
    rng = np.random.default_rng(seed)
    tree = treebank.parse_bracketed("(S (NP (DT the) (NN cat)) (VB sat))")
    if kind == "seq-lm":
        config = SeqLmConfig(
            tokens=("<bos>", "<eos>", "(S", "(NP", "(DT", "(NN", "(VB", ")",
                    "the", "cat", "sat"),
            hidden_size=10, embed_size=10)
        model = SeqLmModel(config, rng=rng)
        tokens = treebank.linearize_brackets(tree)
        closure = lambda: sequence_log_prob(model, tokens)
    else:
        config = TdtdConfig(
            nonterminals=("S", "NP", "VP", "DT", "NN", "VB"),
            terminals=("<unk>", "the", "cat", "sat"),
            hidden_size=10, embed_size=10, max_depth=4)
        if kind == "tdtd-p":
            model = TdtdParserModel(config, rng=rng)
            closure = lambda: conditional_tree_log_prob(model, tree, ["the", "cat", "sat"])
        else:
            model = TdtdModel(config, rng=rng)
            closure = lambda: tree_log_prob(model, tree)
    return ad.gradient_check(closure, model.store, eps=1e-5, samples_per_tensor=6,
                             rng=np.random.default_rng(seed + 1))


def cmd_corpus_filter(args, cfg):
    data_path = _resolve(args, cfg, "data")
    if not data_path:
        raise CliError("--data is required")
    out = _resolve(args, cfg, "out")
    if not out:
        raise CliError("--out is required (prefix for .train/.test files)")
    min_len = _resolve(args, cfg, "min_len", 17)
    max_len = _resolve(args, cfg, "max_len", 25)
    freq_threshold = _resolve(args, cfg, "freq_threshold", 180)
    train_size = _resolve(args, cfg, "train_size")
    test_size = _resolve(args, cfg, "test_size")
    seed = _resolve_seed(args, cfg)

    sentences = _read_sentences(data_path)
    freq = {}
    for sent in sentences:
        for w in sent:
            freq[w] = freq.get(w, 0) + 1
    kept = [
        s for s in sentences
        if min_len <= len(s) <= max_len and all(freq[w] >= freq_threshold for w in s)
    ]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(kept))
    kept = [kept[i] for i in order]
    n_test = test_size if test_size is not None else max(1, len(kept) // 10)
    n_train = train_size if train_size is not None else len(kept) - n_test
    if n_train + n_test > len(kept):
        raise CliError(
            f"not enough sentences after filtering: kept {len(kept)}, "
            f"need {n_train}+{n_test}"
        )
    train_out, test_out = out + ".train", out + ".test"
    for path, block in ((train_out, kept[:n_train]),
                        (test_out, kept[n_train : n_train + n_test])):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(" ".join(s) for s in block) + "\n")
    write_manifest(_run_dir_for(args, train_out), "corpus-filter",
                   {"data": data_path, "min_len": min_len, "max_len": max_len,
                    "freq_threshold": freq_threshold, "seed": seed,
                    "train_size": n_train, "test_size": n_test, "out": out},
                   [data_path])
    return (f"corpus-filter kept={len(kept)} train={n_train} test={n_test} "
            f"min_len={min_len} max_len={max_len} freq_threshold={freq_threshold} OK")


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tdtd",
        description="Breadth-first tree generation, reranking and oracle evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=True):
        p.add_argument("--config", help="experiment config file (key = value lines)")
        p.add_argument("--run-dir", help="directory for the manifest (defaults beside --out)")
        p.add_argument("--threads", type=int, help="worker parallelism cap (>= 1)")
        if seed:
            p.add_argument("--seed", type=int)

    p = sub.add_parser("gen-data", help="sample a treebank from a PCFG")
    common(p)
    p.add_argument("--grammar")
    p.add_argument("--start")
    p.add_argument("--prune-threshold", type=float, dest="prune_threshold")
    p.add_argument("--count", type=int)
    p.add_argument("--nodes", type=int)
    p.add_argument("--max-depth", type=int, dest="max_depth")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train tdtd, tdtd-p or seq-lm on a treebank")
    common(p)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--data")
    p.add_argument("--dev-data", dest="dev_data")
    p.add_argument("--out")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--hidden-size", type=int, dest="hidden_size")
    p.add_argument("--embed-size", type=int, dest="embed_size")
    p.add_argument("--max-depth", type=int, dest="max_depth")
    p.add_argument("--max-length", type=int, dest="max_length")
    p.add_argument("--eval-period", type=int, dest="eval_period")
    p.add_argument("--curriculum-enabled", type=_boolval, dest="curriculum_enabled")
    p.add_argument("--curriculum-initial-depth", type=int, dest="curriculum_initial_depth")
    p.add_argument("--curriculum-initial-width", type=int, dest="curriculum_initial_width")
    p.add_argument("--curriculum-period", type=int, dest="curriculum_period")
    p.add_argument("--curriculum-increment", type=int, dest="curriculum_increment")
    p.add_argument("--ss-enabled", type=_boolval, dest="ss_enabled")
    p.add_argument("--tf-initial", type=float, dest="tf_initial")
    p.add_argument("--tf-final", type=float, dest="tf_final")
    p.add_argument("--tf-anneal-steps", type=int, dest="tf_anneal_steps")
    p.add_argument("--tf-schedule", choices=("linear", "exponential"), dest="tf_schedule")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample trees/sequences from a checkpoint")
    common(p)
    p.add_argument("--model-file", dest="model_file")
    p.add_argument("--count", type=int)
    p.add_argument("--greedy", action="store_const", const=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("score", help="log-probabilities of trees or token sequences")
    common(p, seed=False)
    p.add_argument("--model-file", dest="model_file")
    p.add_argument("--data")
    p.add_argument("--exclude-root", action="store_const", const=True, dest="exclude_root")
    p.add_argument("--out")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("rerank", help="rerank candidate parses with a tdtd-p model")
    common(p, seed=False)
    p.add_argument("--model-file", dest="model_file")
    p.add_argument("--candidates")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval-nll", help="oracle NLL / Fail%% / Dup%% of samples")
    common(p, seed=False)
    p.add_argument("--grammar")
    p.add_argument("--start")
    p.add_argument("--prune-threshold", type=float, dest="prune_threshold")
    p.add_argument("--data")
    p.add_argument("--kind", choices=("trees", "tokens"))
    p.add_argument("--penalty", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval_nll)

    p = sub.add_parser("eval-bleu", help="BLEU-n of generated sentences")
    common(p, seed=False)
    p.add_argument("--candidates")
    p.add_argument("--references")
    p.add_argument("--n", type=int, dest="bleu_n")
    p.add_argument("--bleu-mode", choices=("sentence", "corpus"), dest="bleu_mode")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval_bleu)

    p = sub.add_parser("eval-f1", help="labeled bracket F1 of predicted vs gold trees")
    common(p, seed=False)
    p.add_argument("--pred", dest="data")
    p.add_argument("--gold", dest="references")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval_f1)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    common(p)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("corpus-filter", help="length/frequency corpus filtering and split")
    common(p)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--min-len", type=int, dest="min_len")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--freq-threshold", type=int, dest="freq_threshold")
    p.add_argument("--train-size", type=int, dest="train_size")
    p.add_argument("--test-size", type=int, dest="test_size")
    p.set_defaults(func=cmd_corpus_filter)

    return parser


def run(argv):
    """Entry point; returns the exit status (0 iff the summary ends OK)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    threads = getattr(args, "threads", None)
    if threads is not None and threads < 1:
        print(f"{args.command} error=--threads must be >= 1 FAIL")
        return 1
    try:
        file_config = load_config(args.config) if args.config else {}
        summary = args.func(args, file_config)
    except Exception as exc:  # module errors surface as FAIL summaries
        print(f"{args.command} error={exc} FAIL")
        return 1
    print(summary)
    return 0 if summary.endswith("OK") else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
