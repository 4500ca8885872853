"""Maximum-likelihood training shared by the tree decoder, the conditional
parser and the sequential baseline.

Curriculum filtering (depth/width caps relaxed on a schedule) and scheduled
sampling (emission inputs replaced by greedy predictions with an annealed
probability; targets and tree topology untouched) are both off by default
and config-toggleable for every model kind.

Determinism contract: identical config + seed + dataset produce bit-identical
checkpoints and reports.  All randomness flows from named child streams of
the config seed, and gradient accumulation follows example order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .decoder import TdtdConfig, TdtdModel, _ScheduledSampler, _score_tree
from .parser import TdtdParserModel, conditional_tree_log_prob
from .seqlm import SeqLmConfig, SeqLmModel, sequence_log_prob
from .treebank import linearize_brackets
from .vocab import build_token_vocab, build_tree_vocab

__all__ = [
    "TrainConfig",
    "TrainingError",
    "TrainReport",
    "TrainResult",
    "MODEL_KINDS",
    "curriculum_filter",
    "teacher_forcing_prob",
    "build_model_config",
    "build_model",
    "train",
]

MODEL_KINDS = ("tdtd", "tdtd-p", "seq-lm")


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    seed: int
    learning_rate: float = 0.01
    batch_size: int = 16
    epochs: int = 10
    optimizer: str = "adam"  # adam | sgd
    grad_clip: float = 5.0
    eval_period: int = 1
    dev_fraction: float = 0.1
    # curriculum: caps D(e) = initial + increment * floor(e / period), same for width
    curriculum_enabled: bool = False
    curriculum_initial_depth: int = 3
    curriculum_initial_width: int = 8
    curriculum_period: int = 1
    curriculum_increment: int = 1
    # scheduled sampling: teacher-forcing prob annealed from initial to final
    ss_enabled: bool = False
    tf_initial: float = 1.0
    tf_final: float = 1.0
    tf_anneal_steps: int = 1
    tf_schedule: str = "linear"  # linear | exponential

    def __post_init__(self):
        if not 0.0 <= self.tf_initial <= 1.0 or not 0.0 <= self.tf_final <= 1.0:
            raise TrainingError("teacher-forcing probabilities must be in [0, 1]")
        if self.tf_anneal_steps < 1:
            raise TrainingError("tf_anneal_steps must be >= 1")
        if self.curriculum_increment < 0 or self.curriculum_period < 1:
            raise TrainingError("curriculum increments must be >= 0, period >= 1")
        if self.batch_size < 1 or self.epochs < 0:
            raise TrainingError("batch_size must be >= 1 and epochs >= 0")
        if self.tf_schedule not in ("linear", "exponential"):
            raise TrainingError(f"unknown tf_schedule {self.tf_schedule!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise TrainingError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 < self.dev_fraction < 1.0:
            raise TrainingError("dev_fraction must be in (0, 1)")


def curriculum_caps(epoch, config):
    if not config.curriculum_enabled:
        return None, None
    relax = config.curriculum_increment * (epoch // config.curriculum_period)
    return (config.curriculum_initial_depth + relax,
            config.curriculum_initial_width + relax)


def curriculum_keep_mask(dataset, epoch, config):
    depth_cap, width_cap = curriculum_caps(epoch, config)
    if depth_cap is None:
        return [True] * len(dataset)
    return [
        t.depth() <= depth_cap and t.max_layer_width() <= width_cap for t in dataset
    ]


def curriculum_filter(dataset, epoch, config):
    """Trees whose depth and max layer width fit the epoch's caps.

    Identity when the curriculum is disabled or the caps exceed the dataset
    maxima.  Raises when the first epoch would see an empty subset.
    """
    dataset = list(dataset)
    subset = [t for t, keep in zip(dataset, curriculum_keep_mask(dataset, epoch, config)) if keep]
    if not subset and epoch == 0:
        depth_cap, width_cap = curriculum_caps(epoch, config)
        raise TrainingError(
            f"curriculum caps (depth {depth_cap}, width {width_cap}) leave no "
            f"training trees at epoch 0; raise the initial caps"
        )
    return subset


def teacher_forcing_prob(step, config):
    """Annealed teacher-forcing probability at a global step (>= 0)."""
    if step < 0:
        raise TrainingError("step must be >= 0")
    frac = min(step, config.tf_anneal_steps) / config.tf_anneal_steps
    if config.tf_schedule == "linear":
        return config.tf_initial + (config.tf_final - config.tf_initial) * frac
    # exponential: geometric interpolation; requires positive endpoints
    if config.tf_initial <= 0.0 or config.tf_final <= 0.0:
        raise TrainingError("exponential schedule requires positive tf endpoints")
    return config.tf_initial * (config.tf_final / config.tf_initial) ** frac


# ---------------------------------------------------------------------------
# model construction from a dataset


def build_model_config(kind, trees, hidden_size=32, embed_size=32, max_depth=None,
                       max_children_per_node=8, max_layer_width=64,
                       scaled_attention=True, max_length=None):
    """Configs with vocabularies built from the dataset (frequency-sorted,
    reserved symbols first)."""
    if kind not in MODEL_KINDS:
        raise TrainingError(f"unknown model kind {kind!r}")
    if kind == "seq-lm":
        if max_length is None:
            max_length = max(len(linearize_brackets(t)) for t in trees) * 2
        return SeqLmConfig(
            tokens=tuple(build_token_vocab(trees)),
            hidden_size=hidden_size,
            embed_size=embed_size,
            max_length=max_length,
        )
    nonterminals, terminals = build_tree_vocab(trees)
    if max_depth is None:
        max_depth = max(max(t.depth() for t in trees), 2)
    return TdtdConfig(
        nonterminals=tuple(nonterminals),
        terminals=tuple(terminals),
        hidden_size=hidden_size,
        embed_size=embed_size,
        max_depth=max_depth,
        max_children_per_node=max_children_per_node,
        max_layer_width=max_layer_width,
        scaled_attention=scaled_attention,
    )


def build_model(kind, config, rng):
    if kind == "tdtd":
        return TdtdModel(config, rng=rng)
    if kind == "tdtd-p":
        return TdtdParserModel(config, rng=rng)
    if kind == "seq-lm":
        return SeqLmModel(config, rng=rng)
    raise TrainingError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# reports


@dataclass
class EpochRow:
    epoch: int
    train_nll: float  # nan before training (epoch 0 row)
    dev_nll: float  # nan when not evaluated this epoch
    tf_prob: float
    depth_cap: int | None
    width_cap: int | None


@dataclass
class TrainReport:
    rows: list[EpochRow] = field(default_factory=list)

    HEADER = "epoch\ttrain_nll\tdev_nll\ttf_prob\tcurriculum_depth_cap\tcurriculum_width_cap"

    def to_tsv(self, comments=()):
        def fmt(x):
            if x is None:
                return "-"
            if isinstance(x, float) and math.isnan(x):
                return "-"
            if isinstance(x, float):
                return f"{x:.6f}"
            return str(x)

        lines = [f"# {c}" for c in comments]
        lines.append(self.HEADER)
        for r in self.rows:
            lines.append(
                "\t".join(
                    fmt(v)
                    for v in (r.epoch, r.train_nll, r.dev_nll, r.tf_prob,
                              r.depth_cap, r.width_cap)
                )
            )
        return "\n".join(lines) + "\n"

    def final_dev_nll(self):
        vals = [r.dev_nll for r in self.rows if not math.isnan(r.dev_nll)]
        return vals[-1] if vals else math.nan


@dataclass
class TrainResult:
    model: object
    report: TrainReport


# ---------------------------------------------------------------------------
# the loop


def _example_loss(kind, model, tree, seq_tokens, sampler):
    if kind == "tdtd":
        return ad.neg(_score_tree(model, tree, sampler=sampler))
    if kind == "tdtd-p":
        return ad.neg(
            conditional_tree_log_prob(model, tree, tree.terminal_yield(), sampler=sampler)
        )
    return ad.neg(sequence_log_prob(model, seq_tokens, sampler=sampler))


def _dataset_nll(kind, model, trees, token_seqs):
    total = 0.0
    with ad.no_grad():
        for i, tree in enumerate(trees):
            seq = token_seqs[i] if token_seqs is not None else None
            total += _example_loss(kind, model, tree, seq, sampler=None).item()
    return total / len(trees)


def train(kind, dataset, config, model_config=None, dev=None, checkpoint_dir=None,
          model_overrides=None):
    """Train one model kind on a tree dataset; returns TrainResult.

    The dataset is a list of Trees for every kind (the baseline trains on
    their linearizations, the parser conditions on their terminal yields).
    Without an explicit `dev` set, a seeded dev_fraction split is held out.
    Checkpoints (one per epoch plus `final.ckpt`) and `report.tsv` are
    written under `checkpoint_dir` when given.
    """
    if kind not in MODEL_KINDS:
        raise TrainingError(f"unknown model kind {kind!r}")
    dataset = list(dataset)
    if not dataset:
        raise TrainingError("empty training dataset")

    seeds = np.random.SeedSequence(config.seed).spawn(3)
    init_rng = np.random.default_rng(seeds[0])
    shuffle_rng = np.random.default_rng(seeds[1])
    ss_rng = np.random.default_rng(seeds[2])

    if dev is None:
        order = shuffle_rng.permutation(len(dataset))
        n_dev = max(1, int(round(len(dataset) * config.dev_fraction)))
        if n_dev >= len(dataset):
            n_dev = len(dataset) - 1 if len(dataset) > 1 else 0
        dev = [dataset[i] for i in order[:n_dev]]
        train_set = [dataset[i] for i in order[n_dev:]]
        if not train_set:
            train_set, dev = dataset, dataset
    else:
        dev = list(dev)
        train_set = dataset

    if model_config is None:
        overrides = dict(model_overrides or {})
        model_config = build_model_config(kind, train_set + dev, **overrides)
    model = build_model(kind, model_config, init_rng)
    optimizer = ad.make_optimizer(config.optimizer, config.learning_rate)

    def tokens_for(trees):
        if kind != "seq-lm":
            return None
        return [linearize_brackets(t) for t in trees]

    train_tokens = tokens_for(train_set)
    dev_tokens = tokens_for(dev)

    report = TrainReport()
    dev_nll0 = _dataset_nll(kind, model, dev, dev_tokens) if dev else math.nan
    report.rows.append(
        EpochRow(0, math.nan, dev_nll0, teacher_forcing_prob(0, config),
                 *curriculum_caps(0, config))
    )

    def checkpoint(name):
        if checkpoint_dir is None:
            return
        from .modelio import save_model
        import os

        os.makedirs(checkpoint_dir, exist_ok=True)
        save_model(model, os.path.join(checkpoint_dir, name))

    step = 0
    for epoch in range(1, config.epochs + 1):
        subset_idx = [
            i for i, t in enumerate(curriculum_keep_mask(train_set, epoch - 1, config))
            if t
        ]
        if not subset_idx:
            raise TrainingError(f"curriculum left no training trees at epoch {epoch}")
        order = shuffle_rng.permutation(len(subset_idx))
        shuffled = [subset_idx[i] for i in order]
        epoch_loss = 0.0
        n_examples = 0
        for start in range(0, len(shuffled), config.batch_size):
            batch = shuffled[start : start + config.batch_size]
            tf_prob = teacher_forcing_prob(step, config)
            sampler = _ScheduledSampler(ss_rng, tf_prob) if config.ss_enabled else None
            losses = []
            for i in batch:
                seq = train_tokens[i] if train_tokens is not None else None
                losses.append(_example_loss(kind, model, train_set[i], seq, sampler))
            loss = ad.scale(ad.add_scalars(losses), 1.0 / len(losses))
            value = loss.item()
            if not math.isfinite(value):
                norms = {n: float(np.abs(t.values).max()) for n, t in model.store.items()}
                worst = max(norms, key=norms.get)
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                    f" (max |param| {norms[worst]:.3e} in {worst!r})"
                )
            ad.backward(loss, model.store)
            grad_norm = model.store.clip_grads(config.grad_clip)
            if not math.isfinite(grad_norm):
                # checked before the step: a NaN norm clips nothing and the
                # optimizer would write NaN into every parameter
                norms = {n: float(np.abs(t.grad).max()) for n, t in model.store.items()
                         if t.grad is not None and t.grad.size}
                worst = max(norms, key=lambda n: math.inf if math.isnan(norms[n]) else norms[n])
                raise TrainingError(
                    f"non-finite gradient norm at epoch {epoch}, batch "
                    f"{start // config.batch_size} (max |grad| {norms[worst]:.3e} in {worst!r})"
                )
            optimizer.step(model.store)
            epoch_loss += value * len(batch)
            n_examples += len(batch)
            step += 1
        train_nll = epoch_loss / n_examples
        if dev and (epoch % config.eval_period == 0 or epoch == config.epochs):
            dev_nll = _dataset_nll(kind, model, dev, dev_tokens)
        else:
            dev_nll = math.nan
        report.rows.append(
            EpochRow(epoch, train_nll, dev_nll,
                     teacher_forcing_prob(step, config),
                     *curriculum_caps(epoch - 1, config))
        )
        checkpoint(f"epoch_{epoch:04d}.ckpt")

    checkpoint("final.ckpt")
    if checkpoint_dir is not None:
        import os

        with open(os.path.join(checkpoint_dir, "report.tsv"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_tsv(comments=[
                f"kind={kind} seed={config.seed} optimizer={config.optimizer} "
                f"lr={config.learning_rate} batch={config.batch_size} "
                f"grad_clip={config.grad_clip}"
            ]))
    return TrainResult(model=model, report=report)
