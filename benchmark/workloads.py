"""The three stages the benchmark drives through `tdtd.cli.run`.

Every stage makes its inputs in `setup`, runs one round of subcommand calls
in `round`, checks everything the rounds wrote in `check` and reports its
end-to-end metrics from `values`.  Inputs come from the workload seed only;
the program receives the generated files.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import time

import numpy as np

import checks
import reference
from checks import require

GRAMMAR = "src/tdtd/data/toy_grammar.pcfg"
NODES = 15  # nonterminals per tree: the paper's middle size, ~23 nodes
GENERATE_MODEL = "benchmark/models/tdtd_h32.model"

TRAIN_TREES, DEV_TREES, EPOCHS = 16, 8, 2
TRAIN_KINDS = ("tdtd", "tdtd-p", "seq-lm")
RATE_OF = {"tdtd": "train_tdtd_trees_per_s", "tdtd-p": "train_tdtdp_trees_per_s",
           "seq-lm": "train_seqlm_trees_per_s"}
SAMPLES, REFERENCES = 100, 100
SENTENCES, CANDIDATES = 6, 20
RERANK_VOCAB_SEED = 4242  # the rerank model does not depend on the workload seed


class SetupError(RuntimeError):
    pass


CALIBRATION_STEPS = 200_000
CALIBRATION_REF_S = 0.018  # calibration seconds at the reference machine speed


def calibrate():
    """Seconds for a fixed interpreter loop that shares no code with tdtd:
    how fast the machine runs Python right now."""
    start = time.perf_counter()
    acc = {}
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i * i
        acc[i & 127] = total
    return time.perf_counter() - start


class Bench:
    """Runs subcommands in-process and counts them; shared by all stages.

    A shared machine runs the same code at speeds that differ by up to about
    two times from one minute to the next.  So each counted call is
    bracketed by calibrations, and the seconds it reports are its wall time
    at the reference speed: wall time times CALIBRATION_REF_S over the mean
    of the calibrations around the call.  `calls` keeps (subcommand, wall
    seconds, seconds) per counted call.
    """

    def __init__(self, cli, out_dir, seed, tracer=None):
        self.cli = cli
        self.out = out_dir
        self.seed = seed
        self.tracer = tracer
        self.calibrations = []
        self._last = None  # (time taken, calibration seconds)
        self.calls = []
        self.attempted = 0
        self.failed = 0

    def path(self, *parts):
        return os.path.join(self.out, *parts)

    def seed_for(self, k):
        return self.seed * 1000 + k

    def calibration(self):
        """A calibration time taken now, or within the last half second."""
        if self._last is None or time.perf_counter() - self._last[0] > 0.5:
            self.calibrations.append(calibrate())
            self._last = (time.perf_counter(), self.calibrations[-1])
        return self._last[1]

    def tdtd(self, *argv, setup=False):
        """One subcommand call; returns (ok, output, seconds).  Set-up calls
        must succeed, are not counted as operations and report wall time.
        `self.wall` keeps the last call's wall time."""
        argv = [str(a) for a in argv]
        gc.collect()  # as in a fresh process, no garbage of earlier calls
        before = None if setup else self.calibration()
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer
                else contextlib.nullcontext())
        buf = io.StringIO()
        with span, contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            status = self.cli.run(argv)
            seconds = self.wall = time.perf_counter() - start
        if not setup:
            self._last = None
            seconds *= self.scale(before)
            self.calls.append((argv[0], self.wall, seconds))
        output = buf.getvalue()
        summary, ends_ok = checks.summary_ok(output)
        ok = status == 0 and ends_ok
        if setup:
            if not ok:
                raise SetupError(f"set-up call `tdtd {' '.join(argv)}` failed: {summary}")
        else:
            self.attempted += 1
            self.failed += not ok
        return ok, output, seconds

    def scale(self, before):
        """Reference seconds per wall second for an interval that started
        with calibration time `before` and ends now."""
        return 2.0 * CALIBRATION_REF_S / (before + self.calibration())


class Stage:
    """`metrics` maps each end-to-end metric to its unit; `work` holds one
    (items, seconds, wall seconds) triple per successful call."""

    metrics = {}

    def __init__(self):
        self.work = {name: [] for name in self.metrics}

    def values(self, column=1):
        """Items over seconds (column 1) or wall seconds (column 2), both
        summed across the run."""
        return {name: sum(c[0] for c in w) / sum(c[column] for c in w) if w else 0.0
                for name, w in self.work.items()}


# ---------------------------------------------------------------------------


class TrainStage(Stage):
    """`tdtd train` for each model kind at h=e=32, Adam, batch 16, with dev
    passes and per-epoch checkpoints, all on the same trees."""

    metrics = dict.fromkeys(RATE_OF.values(), "trees/s")

    def setup(self, b):
        self.data, self.dev = b.path("train", "trees.txt"), b.path("train", "dev.txt")
        os.makedirs(b.path("train"))
        b.tdtd("gen-data", "--grammar", GRAMMAR, "--nodes", NODES, "--count", TRAIN_TREES,
               "--seed", b.seed_for(1), "--out", self.data, setup=True)
        b.tdtd("gen-data", "--grammar", GRAMMAR, "--nodes", NODES, "--count", DEV_TREES,
               "--seed", b.seed_for(2), "--out", self.dev, setup=True)
        self.reports = {kind: [] for kind in TRAIN_KINDS}

    def round(self, b, r):
        for kind in TRAIN_KINDS:
            out = b.path("train", kind)
            ok, _, seconds = b.tdtd(
                "train", "--model", kind, "--data", self.data, "--dev-data", self.dev,
                "--out", out, "--epochs", EPOCHS, "--batch-size", 16, "--optimizer", "adam",
                "--hidden-size", 32, "--embed-size", 32, "--seed", b.seed_for(3))
            if ok:
                self.work[RATE_OF[kind]].append((EPOCHS * TRAIN_TREES, seconds, b.wall))
                with open(os.path.join(out, "report.tsv"), encoding="utf-8") as fh:
                    self.reports[kind].append(fh.read())

    def check(self, b):
        from tdtd import autodiff as ad
        from tdtd.decoder import tree_log_prob
        from tdtd.modelio import load_model
        from tdtd.parser import conditional_tree_log_prob
        from tdtd.seqlm import sequence_log_prob
        from tdtd.treebank import linearize_brackets, read_treebank

        trees = read_treebank(self.data)[:2]
        for kind in TRAIN_KINDS:
            require(self.reports[kind], f"no {kind} training call succeeded")
            for text in self.reports[kind]:
                checks.check_train_report(text, kind)
            model = load_model(os.path.join(b.path("train", kind), "final.ckpt"))
            if kind == "tdtd":
                terms = lambda: [tree_log_prob(model, t) for t in trees]
            elif kind == "tdtd-p":
                terms = lambda: [conditional_tree_log_prob(model, t, t.terminal_yield())
                                 for t in trees]
            else:
                terms = lambda: [sequence_log_prob(model, linearize_brackets(t)) for t in trees]
            err = ad.gradient_check(lambda: ad.add_scalars(terms()), model.store,
                                    samples_per_tensor=2, rng=np.random.default_rng(b.seed))
            require(err < 1e-4, f"{kind}: gradient check error {err:.3e} >= 1e-4")


class GenerateStage(Stage):
    """`generate --count N` from the fixed h=32 tdtd model in GENERATE_MODEL,
    `score` of those trees, then `eval-nll` and `eval-bleu` (BLEU-4 of their
    yields against the yields of separate PCFG samples)."""

    metrics = {"generate_nodes_per_s": "nodes/s", "score_nodes_per_s": "nodes/s",
               "evaluate_samples_per_s": "samples/s"}

    def setup(self, b):
        from tdtd.modelio import load_model

        os.makedirs(b.path("generate"))
        config = load_model(GENERATE_MODEL).config
        self.caps = (config.max_depth, config.max_children_per_node, config.max_layer_width)
        ref_trees = b.path("generate", "reference_trees.txt")
        b.tdtd("gen-data", "--grammar", GRAMMAR, "--nodes", NODES, "--count", REFERENCES,
               "--seed", b.seed_for(4), "--out", ref_trees, setup=True)
        with open(ref_trees, encoding="utf-8") as fh:
            self.references = [reference.words(reference.parse_tree(line)) for line in fh]
        self.ref_path = b.path("generate", "references.txt")
        write_sentences(self.ref_path, self.references)
        self.rules = reference.read_rules(GRAMMAR)
        self.samples = b.path("generate", "samples.txt")
        self.yields = b.path("generate", "yields.txt")
        self.scores = b.path("generate", "scores.tsv")
        self.rounds = []  # per round: lines, recorded, scores, eval-nll, eval-bleu
        self.recorded = []

    def _record(self, cli):
        """Keep what generate_scored returns while `generate` runs."""
        original = cli.generate_scored

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            self.recorded.append(result)
            return result

        cli.generate_scored = recording
        return original

    def round(self, b, r):
        self.recorded = []
        original = self._record(b.cli)
        try:
            ok_gen, _, t_gen = b.tdtd("generate", "--model-file", GENERATE_MODEL,
                                      "--count", SAMPLES, "--seed", b.seed_for(100 + r),
                                      "--out", self.samples)
            wall_gen = b.wall
        finally:
            b.cli.generate_scored = original
        if not ok_gen:
            return
        with open(self.samples, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        trees = [reference.parse_tree(line) for line in lines]
        write_sentences(self.yields, [reference.words(t) for t in trees])
        nodes = sum(reference.node_count(t) for t in trees)
        self.work["generate_nodes_per_s"].append((nodes, t_gen, wall_gen))
        ok_score, _, t_score = b.tdtd("score", "--model-file", GENERATE_MODEL,
                                      "--data", self.samples, "--out", self.scores)
        scores = None
        if ok_score:
            self.work["score_nodes_per_s"].append((nodes, t_score, b.wall))
            with open(self.scores, encoding="utf-8") as fh:
                scores = fh.read()
        ok_nll, nll_out, t_nll = b.tdtd("eval-nll", "--grammar", GRAMMAR,
                                        "--data", self.samples, "--json")
        wall_nll = b.wall
        ok_bleu, bleu_out, t_bleu = b.tdtd("eval-bleu", "--candidates", self.yields,
                                           "--references", self.ref_path, "--n", 4, "--json")
        if ok_nll and ok_bleu:
            self.work["evaluate_samples_per_s"].append(
                (len(lines), t_nll + t_bleu, wall_nll + b.wall))
        self.rounds.append((lines, self.recorded, scores,
                            nll_out if ok_nll else None, bleu_out if ok_bleu else None))

    def check(self, b):
        from tdtd.treebank import parse_bracketed, to_bracketed, validate

        require(self.rounds, "no generate call succeeded")
        for lines, recorded, scores, nll_out, bleu_out in self.rounds:
            checks.check_generated(lines, SAMPLES, self.caps, recorded,
                                   parse_bracketed, validate, to_bracketed)
            require(scores is not None, "score failed")
            checks.check_scores(scores, recorded)
            require(nll_out is not None and bleu_out is not None, "an evaluation call failed")
            report = json.loads(nll_out.splitlines()[0])
            checks.check_sample_report(report, reference.sample_report(lines, self.rules))
            candidates = [reference.words(reference.parse_tree(line)) for line in lines]
            checks.check_bleu(bleu_score_text(bleu_out), reference.bleu(candidates, self.references))
        subset = b.path("generate", "reference_subset.txt")
        write_sentences(subset, self.references[:20])
        ok, out, _ = b.tdtd("eval-bleu", "--candidates", subset, "--references", subset,
                            "--n", 4, "--json", setup=True)
        require(bleu_score_text(out) == "1.000000",
                f"BLEU-4 of references against themselves is {bleu_score_text(out)}")
        require(reference.bleu(self.references[:20], self.references[:20]) == 1.0,
                "reference BLEU-4 of references against themselves is not 1")


class RerankStage(Stage):
    """`rerank` with a tdtd-p model at its default h=e=128 over sentences that
    each have about CANDIDATES distinct parses sharing the sentence's yield."""

    metrics = {"rerank_candidates_per_s": "candidates/s"}

    def setup(self, b):
        os.makedirs(b.path("rerank"))
        vocab, dev = b.path("rerank", "vocab_trees.txt"), b.path("rerank", "vocab_dev.txt")
        b.tdtd("gen-data", "--grammar", GRAMMAR, "--nodes", NODES, "--count", 100,
               "--seed", RERANK_VOCAB_SEED, "--out", vocab, setup=True)
        b.tdtd("gen-data", "--grammar", GRAMMAR, "--nodes", NODES, "--count", 2,
               "--seed", RERANK_VOCAB_SEED + 1, "--out", dev, setup=True)
        rules = reference.read_rules(GRAMMAR)
        symbols = {lhs for lhs, _ in rules} | {s for _, rhs in rules for s, _ in rhs}
        seen = set()
        for path in (vocab, dev):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    tree = reference.parse_tree(line)
                    seen.update(node[0] for node in reference.nonterminals(tree))
                    seen.update(reference.words(tree))
        if symbols - seen:
            raise SetupError(f"rerank model data misses grammar symbols {sorted(symbols - seen)}")
        model_dir = b.path("rerank", "model")
        b.tdtd("train", "--model", "tdtd-p", "--data", vocab, "--dev-data", dev,
               "--out", model_dir, "--epochs", 0, "--seed", RERANK_VOCAB_SEED, setup=True)
        self.model = os.path.join(model_dir, "final.ckpt")

        gold = b.path("rerank", "gold.txt")
        b.tdtd("gen-data", "--grammar", GRAMMAR, "--nodes", NODES, "--count", SENTENCES,
               "--seed", b.seed_for(5), "--out", gold, setup=True)
        internal = sorted({lhs for lhs, rhs in rules if any(not t for _, t in rhs)})
        rng = np.random.default_rng([b.seed, 5])
        self.blocks = []
        with open(gold, encoding="utf-8") as fh:
            for line in fh:
                tree = reference.parse_tree(line)
                self.blocks.append((reference.words(tree),
                                    candidate_parses(tree, internal, CANDIDATES, rng)))
        self.candidates = b.path("rerank", "candidates.txt")
        with open(self.candidates, "w", encoding="utf-8", newline="\n") as fh:
            for words, cands in self.blocks:
                fh.write(" ".join(words) + "\n" + "\n".join(cands) + "\n\n")
        self.count = sum(len(c) for _, c in self.blocks)
        self.ranked = b.path("rerank", "ranked.tsv")
        self.outputs = []

    def round(self, b, r):
        ok, _, seconds = b.tdtd("rerank", "--model-file", self.model,
                                "--candidates", self.candidates, "--out", self.ranked)
        if ok:
            self.work["rerank_candidates_per_s"].append((self.count, seconds, b.wall))
            with open(self.ranked, encoding="utf-8") as fh:
                self.outputs.append(fh.read())

    def check(self, b):
        from tdtd import autodiff as ad
        from tdtd.modelio import load_model
        from tdtd.parser import conditional_tree_log_prob
        from tdtd.treebank import parse_bracketed

        require(self.outputs, "no rerank call succeeded")
        for text in self.outputs:
            scores = checks.check_rerank(text, self.blocks)
        model = load_model(self.model)
        rng = np.random.default_rng([b.seed, 6])
        for _ in range(3):
            index = int(rng.integers(len(self.blocks)))
            words, cands = self.blocks[index]
            tree = cands[int(rng.integers(len(cands)))]
            with ad.no_grad():
                logp = conditional_tree_log_prob(model, parse_bracketed(tree), words).item()
            printed = scores[(index, tree)]
            require(checks.printed_as(printed, logp, 1e-10),
                    f"rerank scored sentence {index} candidate {printed}; "
                    f"scored with its own sentence encoding {logp!r}")


STAGES = {"train": TrainStage, "generate": GenerateStage, "rerank": RerankStage}


# ---------------------------------------------------------------------------
# helpers


def write_sentences(path, sentences):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(" ".join(s) + "\n" for s in sentences))


def bleu_score_text(output):
    """The score as eval-bleu --json printed it."""
    line = output.splitlines()[0]
    return line.split('"score": ', 1)[1].rstrip("}").strip()


def _mutable(tree):
    return tree if isinstance(tree, str) else [tree[0], [_mutable(c) for c in tree[1]]]


def _internal_nodes(tree):
    """(node, parent) for every nonterminal with a nonterminal child."""
    out = []
    stack = [(tree, None)]
    while stack:
        node, parent = stack.pop()
        if isinstance(node, str):
            continue
        if any(not isinstance(c, str) for c in node[1]):
            out.append((node, parent))
        stack.extend((c, node) for c in node[1])
    return out


def _edit(tree, internal, rng):
    """Apply one random yield-preserving edit in place: relabel an internal
    nonterminal, flatten one into its parent, or group two adjacent
    children of a wide node under a new internal nonterminal."""
    nodes = _internal_nodes(tree)
    kind = int(rng.integers(3))
    if kind == 0:
        node, _ = nodes[int(rng.integers(len(nodes)))]
        choices = [label for label in internal if label != node[0]]
        node[0] = choices[int(rng.integers(len(choices)))]
    elif kind == 1:
        flat = [(n, p) for n, p in nodes
                if p is not None and all(not isinstance(c, str) for c in n[1])]
        if flat:
            node, parent = flat[int(rng.integers(len(flat)))]
            i = next(k for k, c in enumerate(parent[1]) if c is node)
            parent[1][i:i + 1] = node[1]
    else:
        wide = [n for n, _ in nodes if len(n[1]) >= 3]
        if wide:
            node = wide[int(rng.integers(len(wide)))]
            i = int(rng.integers(len(node[1]) - 1))
            label = internal[int(rng.integers(len(internal)))]
            node[1][i:i + 2] = [[label, node[1][i:i + 2]]]


def candidate_parses(gold, internal, count, rng, attempts=2000):
    """The gold tree's text plus up to count-1 distinct variants made by one
    to three random edits, in a seeded random order."""
    gold_text = reference.to_text(gold)
    found = {gold_text}
    for _ in range(attempts):
        if len(found) >= count:
            break
        tree = _mutable(gold)
        for _ in range(1 + int(rng.integers(3))):
            _edit(tree, internal, rng)
        found.add(reference.to_text(tree))
    ordered = sorted(found)
    return [ordered[i] for i in rng.permutation(len(ordered))]
