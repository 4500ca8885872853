"""Command-line harness wiring configs, datasets, models and reports.

Every subcommand prints one machine-readable summary line ending in OK or
FAIL; the exit status is 0 exactly when the summary ends OK.  Each run
writes a manifest (every option of its subcommand as resolved, under its
config-file key, and sha256 digests of the input files) next to its
outputs, sufficient to reproduce them bit-exactly.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import metrics, pcfg, treebank
from .decoder import TdtdConfig, generate_scored, scalar_fields
from .modelio import MODEL_CLASSES, load_model
from .parser import format_rerank_tsv, read_candidate_file, rerank
from .seqlm import SeqLmConfig, sample_sequence, sequence_log_prob
from .training import MODEL_KINDS, TrainConfig, model_class, train

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


def _resolve(args, file_config):
    """Set each option of the subcommand on `args`: CLI flag > config file >
    default, where the seed falls back to TDTD_SEED before its default.  An
    option with choices must resolve to one of them."""
    for opt in _options(args.command):
        value = getattr(args, opt.key)
        if value is None:
            value = file_config.get(opt.key)
        if value is None and opt.key == "seed":
            value = _env_seed()
        if value is None:
            value = opt.default
        if opt.choices and value not in opt.choices:
            raise ConfigError(f"{opt.key} must be one of {', '.join(opt.choices)}, "
                              f"got {value!r}")
        setattr(args, opt.key, value)


def _env_seed():
    env = os.environ.get("TDTD_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"TDTD_SEED is not an integer: {env!r}") from None


def _require_seed(args):
    if args.seed is None:
        raise ConfigError("a seed is required (flag --seed, config `seed`, or TDTD_SEED)")


# ---------------------------------------------------------------------------
# manifests


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(run_dir, args, input_paths):
    """Every option of the run's subcommand, as resolved, under its config-file
    key, then the sha256 of each input file."""
    os.makedirs(run_dir, exist_ok=True)
    lines = [f"command = {args.command}"]
    for key in sorted(opt.key for opt in _options(args.command)):
        lines.append(f"{key} = {getattr(args, key)}")
    for path in input_paths:
        lines.append(f"input {path} sha256 {_digest(path)}")
    with open(os.path.join(run_dir, "manifest.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_dir_for(args, default_anchor):
    if args.run_dir:
        return args.run_dir
    if default_anchor:
        parent = os.path.dirname(os.path.abspath(default_anchor))
        return parent
    return os.path.join("runs", args.command)


# ---------------------------------------------------------------------------
# subcommands


def _load_grammar(args):
    if not args.grammar:
        raise CliError("--grammar is required")
    start_set = [s for s in args.start.split(",") if s] if args.start else None
    grammar = pcfg.load_grammar_file(args.grammar, start=start_set)
    if args.prune_threshold is not None:
        grammar = pcfg.prune_grammar(grammar, args.prune_threshold)
    return grammar


def cmd_gen_data(args):
    grammar = _load_grammar(args)
    _require_seed(args)
    if not args.out:
        raise CliError("--out is required")
    trees = pcfg.generate_dataset(grammar, args.count, args.nodes,
                                  max_depth=args.max_depth, seed=args.seed)
    treebank.write_treebank(args.out, trees)
    write_manifest(_run_dir_for(args, args.out), args, [args.grammar])
    return f"gen-data count={args.count} nodes={args.nodes} seed={args.seed} out={args.out} OK"


def cmd_train(args):
    kind = args.model
    if not args.data:
        raise CliError("--data is required")
    if not args.out:
        raise CliError("--out is required")
    _require_seed(args)
    trees = treebank.read_treebank(args.data)
    dev = treebank.read_treebank(args.dev_data) if args.dev_data else None

    train_config = TrainConfig(seed=args.seed,
                               **{f.name: getattr(args, f.name) for f in _TRAIN_FIELDS})
    overrides = {name: getattr(args, name) for name in _MODEL_FIELDS
                 if getattr(args, name) is not None}
    if kind == "tdtd-p":  # the reference setting sizes the parser at h = e = 128
        overrides = {"hidden_size": 128, "embed_size": 128, **overrides}
    result = train(kind, trees, train_config, dev=dev, checkpoint_dir=args.out,
                   model_overrides=overrides)
    for f in scalar_fields(result.model.config):  # the values the model was built with
        setattr(args, f.name, getattr(result.model.config, f.name))
    write_manifest(args.out, args, [args.data] + ([args.dev_data] if args.dev_data else []))
    final = result.report.final_dev_nll()
    return (f"train model={kind} epochs={train_config.epochs} "
            f"final_dev_nll={final:.6f} out={args.out} OK")


def cmd_generate(args):
    if not args.model_file:
        raise CliError("--model-file is required")
    if args.count < 1:
        raise CliError("--count must be >= 1")
    model = load_model(args.model_file)
    if not args.greedy:
        _require_seed(args)
    if not args.out:
        raise CliError("--out is required")
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    lines = []
    fails = 0
    if model.kind == "seq-lm":
        for _ in range(args.count):
            tokens = sample_sequence(model, rng=rng, greedy=args.greedy)
            lines.append(" ".join(tokens))
            if not isinstance(treebank.delinearize_brackets(tokens), treebank.Tree):
                fails += 1
    else:
        for _ in range(args.count):
            tree, _ = generate_scored(model, rng=rng, greedy=args.greedy)
            lines.append(treebank.to_bracketed(tree))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    write_manifest(_run_dir_for(args, args.out), args, [args.model_file])
    return (f"generate kind={model.kind} count={args.count} seed={args.seed} "
            f"fail_rate={fails / args.count:.4f} out={args.out} OK")


def cmd_score(args):
    if not args.model_file or not args.data:
        raise CliError("--model-file and --data are required")
    model = load_model(args.model_file)
    with ad.no_grad():
        if model.kind == "seq-lm":  # a sequence model scores token sequences
            if args.exclude_root:
                raise CliError("--exclude-root applies to tree models, not seq-lm")
            lps = [sequence_log_prob(model, tokens).item()
                   for tokens in _read_sentences(args.data)]
        else:
            lps = [model.log_prob(tree, exclude_root=args.exclude_root).item()
                   for tree in treebank.read_treebank(args.data)]
    text = "\n".join(f"{i}\t{lp:.6f}" for i, lp in enumerate(lps)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        write_manifest(_run_dir_for(args, args.out), args, [args.model_file, args.data])
    else:
        sys.stdout.write(text)
    mean = sum(lps) / len(lps) if lps else math.nan
    return f"score kind={model.kind} items={len(lps)} mean_log_prob={mean:.6f} OK"


def cmd_rerank(args):
    if not args.model_file or not args.candidates:
        raise CliError("--model-file and --candidates are required")
    model = load_model(args.model_file)
    if model.kind != "tdtd-p":
        raise CliError(f"rerank needs a tdtd-p model, got {model.kind}")
    blocks = read_candidate_file(args.candidates)
    chunks = []
    for index, (sentence, trees) in enumerate(blocks):
        ranked = rerank(model, sentence, trees)
        chunks.append(format_rerank_tsv(index, ranked))
    text = "\n".join(chunks) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        write_manifest(_run_dir_for(args, args.out), args, [args.model_file, args.candidates])
    else:
        sys.stdout.write(text)
    return f"rerank sentences={len(blocks)} out={args.out or '-'} OK"


def cmd_eval_nll(args):
    grammar = _load_grammar(args)
    if not args.data:
        raise CliError("--data is required")
    if args.kind == "trees":
        samples = treebank.read_treebank(args.data)
    else:
        samples = _read_sentences(args.data)
    report = metrics.sample_report(samples, grammar, penalty=args.penalty)
    sys.stdout.write(report.to_json() + "\n" if args.json else
                     report.to_tsv() + report.to_text())
    if args.run_dir:
        write_manifest(args.run_dir, args, [args.grammar, args.data])
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


def cmd_eval_bleu(args):
    if not args.candidates or not args.references:
        raise CliError("--candidates and --references are required")
    n, mode = args.bleu_n, args.bleu_mode
    candidates = _read_sentences(args.candidates)
    references = _read_sentences(args.references)
    score = metrics.bleu_n(candidates, references, n, mode=mode)
    if args.json:
        sys.stdout.write('{"bleu_n": %d, "mode": "%s", "score": %.6f}\n' % (n, mode, score))
    else:
        sys.stdout.write(f"BLEU-{n} ({mode})\t{score:.6f}\n")
    if args.run_dir:
        write_manifest(args.run_dir, args, [args.candidates, args.references])
    return f"eval-bleu n={n} mode={mode} candidates={len(candidates)} score={score:.6f} OK"


def cmd_eval_f1(args):
    if not args.data or not args.references:
        raise CliError("--pred and --gold are required")
    pred = treebank.read_treebank(args.data)
    gold = treebank.read_treebank(args.references)
    if len(pred) != len(gold):
        raise CliError(f"tree counts differ: {len(pred)} predicted vs {len(gold)} gold")
    result = metrics.bracket_f1_corpus(zip(pred, gold))
    sys.stdout.write(result.to_json() + "\n" if args.json else result.to_tsv())
    if args.run_dir:
        write_manifest(args.run_dir, args, [args.data, args.references])
    return (f"eval-f1 pairs={len(pred)} precision={result.precision:.6f} "
            f"recall={result.recall:.6f} f1={result.f1:.6f} OK")


def cmd_grad_check(args):
    threshold = 1e-4
    err = _grad_check_error(args.model, args.seed)
    status = "OK" if err < threshold else "FAIL"
    return (f"grad-check model={args.model} max_rel_error={err:.3e} "
            f"threshold={threshold:.0e} {status}")


# the gradient check's fixture vocabularies and sizes, per config class
_GRAD_CHECK_CONFIGS = {
    TdtdConfig: TdtdConfig(nonterminals=("S", "NP", "VP", "DT", "NN", "VB"),
                           terminals=("<unk>", "the", "cat", "sat"),
                           hidden_size=10, embed_size=10, max_depth=4),
    SeqLmConfig: SeqLmConfig(tokens=("<bos>", "<eos>", "(S", "(NP", "(DT", "(NN", "(VB",
                                     ")", "the", "cat", "sat"),
                             hidden_size=10, embed_size=10),
}


def _grad_check_error(kind, seed):
    """Finite-difference check on a fixed small fixture (5-node tree)."""
    tree = treebank.parse_bracketed("(S (NP (DT the) (NN cat)) (VB sat))")
    cls = model_class(kind)
    model = cls(_GRAD_CHECK_CONFIGS[cls.config_class], rng=np.random.default_rng(seed))
    return ad.gradient_check(lambda: model.log_prob(tree), model.store, eps=1e-5,
                             samples_per_tensor=6, rng=np.random.default_rng(seed + 1))


def cmd_corpus_filter(args):
    if not args.data:
        raise CliError("--data is required")
    if not args.out:
        raise CliError("--out is required (prefix for .train/.test files)")
    for flag, size in (("--train-size", args.train_size), ("--test-size", args.test_size)):
        if size is not None and size < 0:
            raise CliError(f"{flag} must be >= 0")
    _require_seed(args)

    sentences = _read_sentences(args.data)
    freq = {}
    for sent in sentences:
        for w in sent:
            freq[w] = freq.get(w, 0) + 1
    kept = [
        s for s in sentences
        if args.min_len <= len(s) <= args.max_len
        and all(freq[w] >= args.freq_threshold for w in s)
    ]
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(kept))
    kept = [kept[i] for i in order]
    n_test = args.test_size if args.test_size is not None else max(1, len(kept) // 10)
    n_train = args.train_size if args.train_size is not None else len(kept) - n_test
    if n_train + n_test > len(kept):
        raise CliError(
            f"not enough sentences after filtering: kept {len(kept)}, "
            f"need {n_train}+{n_test}"
        )
    train_out, test_out = args.out + ".train", args.out + ".test"
    for path, block in ((train_out, kept[:n_train]),
                        (test_out, kept[n_train : n_train + n_test])):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(" ".join(s) for s in block) + "\n")
    args.train_size, args.test_size = n_train, n_test  # the sizes used
    write_manifest(_run_dir_for(args, train_out), args, [args.data])
    return (f"corpus-filter kept={len(kept)} train={n_train} test={n_test} "
            f"min_len={args.min_len} max_len={args.max_len} "
            f"freq_threshold={args.freq_threshold} OK")


# ---------------------------------------------------------------------------
# the command line: each subcommand's flags, the config-file schema, the
# defaults and the manifest lines all come from the option table below

COMMANDS = {
    "gen-data": (cmd_gen_data, "sample a treebank from a PCFG"),
    "train": (cmd_train, "train tdtd, tdtd-p or seq-lm on a treebank"),
    "generate": (cmd_generate, "sample trees/sequences from a checkpoint"),
    "score": (cmd_score, "log-probabilities of trees or token sequences"),
    "rerank": (cmd_rerank, "rerank candidate parses with a tdtd-p model"),
    "eval-nll": (cmd_eval_nll, "oracle NLL / Fail%% / Dup%% of samples"),
    "eval-bleu": (cmd_eval_bleu, "BLEU-n of generated sentences"),
    "eval-f1": (cmd_eval_f1, "labeled bracket F1 of predicted vs gold trees"),
    "grad-check": (cmd_grad_check, "finite-difference gradient check"),
    "corpus-filter": (cmd_corpus_filter, "length/frequency corpus filtering and split"),
}

_JSON_OUTPUT = ("eval-nll", "eval-bleu", "eval-f1")


@dataclass(frozen=True)
class Option:
    """A setting of the subcommands in `commands`.  `key` is its config-file
    key, its flag's dest and its manifest key; the flag is spelled `flag`,
    or `--key-with-dashes`.  A `switch` flag takes no value and sets True."""

    key: str
    commands: tuple
    parse: object = str
    default: object = None
    flag: str | None = None
    choices: tuple | None = None
    switch: bool = False


_TYPES = {"int": int, "float": float, "str": str, "bool": _boolval}
_TRAIN_FIELDS = [f for f in scalar_fields(TrainConfig) if f.name != "seed"]
# the model config classes' fields, each once
_MODEL_FIELDS = {f.name: f for cls in MODEL_CLASSES.values()
                 for f in scalar_fields(cls.config_class)}

OPTIONS = [
    Option("threads", tuple(COMMANDS), int),  # worker parallelism cap (>= 1)
    Option("seed", ("gen-data", "train", "generate", "corpus-filter"), int),
    Option("seed", ("grad-check",), int, 0),
    Option("model", ("train",), choices=MODEL_KINDS),
    Option("model", ("grad-check",), default="tdtd", choices=MODEL_KINDS),
    Option("grammar", ("gen-data", "eval-nll")),
    Option("start", ("gen-data", "eval-nll")),  # comma-separated start symbols
    Option("prune_threshold", ("gen-data", "eval-nll"), float),
    Option("model_file", ("generate", "score", "rerank")),
    Option("data", ("train", "score", "eval-nll", "corpus-filter")),
    Option("data", ("eval-f1",), flag="--pred"),
    Option("references", ("eval-f1",), flag="--gold"),
    Option("dev_data", ("train",)),
    Option("candidates", ("rerank", "eval-bleu")),
    Option("references", ("eval-bleu",)),
    Option("out", ("gen-data", "train", "generate", "score", "rerank", "corpus-filter")),
    Option("count", ("gen-data",), int, 10_000),
    Option("count", ("generate",), int, 100),
    Option("nodes", ("gen-data",), int, 10),  # protocol sizes: 10, 15, 20
    Option("max_depth", ("gen-data",), int, pcfg.DEFAULT_MAX_DEPTH),
    *(Option(f.name, ("train",), _TYPES[f.type], f.default, choices=f.metadata.get("choices"))
      for f in _TRAIN_FIELDS),
    # unset, the model's sizes and caps are decided in cmd_train and build_model_config
    *(Option(f.name, ("train",), _TYPES[f.type]) for f in _MODEL_FIELDS.values()),
    Option("greedy", ("generate",), _boolval, False, switch=True),
    Option("exclude_root", ("score",), _boolval, False, switch=True),
    Option("kind", ("eval-nll",), default="trees", choices=("trees", "tokens")),
    Option("penalty", ("eval-nll",), float, pcfg.DEFAULT_PENALTY_PROB),
    Option("bleu_n", ("eval-bleu",), int, 4, flag="--n"),
    Option("bleu_mode", ("eval-bleu",), default="sentence", choices=("sentence", "corpus")),
    Option("min_len", ("corpus-filter",), int, 17),
    Option("max_len", ("corpus-filter",), int, 25),
    Option("freq_threshold", ("corpus-filter",), int, 180),
    Option("train_size", ("corpus-filter",), int),
    Option("test_size", ("corpus-filter",), int),
]

CONFIG_SCHEMA = {opt.key: opt.parse for opt in OPTIONS}


def _options(command):
    return [opt for opt in OPTIONS if command in opt.commands]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tdtd",
        description="Breadth-first tree generation, reranking and oracle evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config file (key = value lines)")
        p.add_argument("--run-dir", help="directory for the manifest (defaults beside --out)")
        for opt in _options(name):
            flag = opt.flag or "--" + opt.key.replace("_", "-")
            if opt.switch:
                p.add_argument(flag, dest=opt.key, action="store_const", const=True)
            else:
                p.add_argument(flag, dest=opt.key, type=opt.parse, choices=opt.choices)
        if name in _JSON_OUTPUT:
            p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
    return parser


def run(argv):
    """Entry point; returns the exit status (0 iff the summary ends OK)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _resolve(args, load_config(args.config) if args.config else {})
        if args.threads is not None and args.threads < 1:
            raise CliError("--threads must be >= 1")
        summary = args.func(args)
    except Exception as exc:  # module errors surface as FAIL summaries
        print(f"{args.command} error={exc} FAIL")
        return 1
    print(summary)
    return 0 if summary.endswith("OK") else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
