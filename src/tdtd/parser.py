"""Conditional tree scoring given a sentence, and candidate reranking.

The decoder is reused unchanged; conditioning adds a bidirectional GRU
sentence encoder, a projected-query dot-product attention over the encoded
tokens at every prediction step, and a sentence-summary root input.  When a
tree is scored, the attention of all its prediction steps runs as one
(P, 2h) x (2h, L) score matrix, one row softmax and one weighted sum.  The
model is a scorer/reranker only: it never decodes a tree for a sentence
directly (a breadth-first decoder cannot be forced to match the leaves).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from .decoder import TdtdConfig, TdtdModel, DecoderError
from .treebank import Tree

__all__ = [
    "TdtdParserModel",
    "SentenceEncoding",
    "Candidate",
    "encode_sentence",
    "attend",
    "conditional_tree_log_prob",
    "rerank",
    "read_candidate_file",
    "format_rerank_tsv",
]


class TdtdParserModel(TdtdModel):
    """Decoder parameters plus sentence encoder, attention and summary heads."""

    kind = "tdtd-p"

    def __init__(self, config: TdtdConfig, rng=None, seed=0):
        if rng is None:
            rng = np.random.default_rng(seed)
        super().__init__(config, rng=rng)
        e, h = config.embed_size, config.hidden_size
        s = self.store
        self.enc_fwd = ad.GruCell(s, "enc_fwd", e, h, rng)
        self.enc_bwd = ad.GruCell(s, "enc_bwd", e, h, rng)
        self.enc_fwd_init = s.param("enc_fwd_init", (h,), zero=True)
        self.enc_bwd_init = s.param("enc_bwd_init", (h,), zero=True)
        self.w_query = s.param("w_query", (3 * h, 2 * h), rng)
        self.b_query = s.param("b_query", (2 * h,), zero=True)
        self.w_summary = s.param("w_summary", (2 * h, e), rng)
        self.b_summary = s.param("b_summary", (e,), zero=True)

    def feature_size(self):
        # emission + ancestor + encoded parent + attention context
        return super().feature_size() + self.config.hidden_size * 2

    def log_prob(self, tree, sampler=None, exclude_root=False):
        """Teacher-forced log p(tree | its terminal yield)."""
        return conditional_tree_log_prob(self, tree, tree.terminal_yield(), sampler=sampler,
                                         exclude_root=exclude_root)


@dataclass
class SentenceEncoding:
    """Per-token bidirectional states and the (last fwd || first bwd) summary."""

    token_states: list  # one (2*hidden,) tensor per token
    summary: object  # (2*hidden,) tensor
    matrix: object = field(default=None)  # stacked token states

    def stacked(self):
        if self.matrix is None:
            self.matrix = ad.stack_rows(self.token_states)
        return self.matrix


def encode_sentence(model, tokens):
    """Bidirectional GRU over word embeddings; OOV words map to UNK."""
    if not tokens:
        raise DecoderError("cannot encode an empty sentence")
    embs = [model.embed(model.term_symbol_id(w)) for w in tokens]
    fwd, bwd = dec._bidirectional(model.enc_fwd, model.enc_bwd,
                                  model.enc_fwd_init, model.enc_bwd_init, embs)
    states = [ad.concat((f, b)) for f, b in zip(fwd, bwd)]
    summary = ad.concat((fwd[-1], bwd[0]))
    # stacked here, in the caller's graph mode: a first call to stacked()
    # under no_grad (a scheduled-sampling step) would cache a matrix
    # without the links that carry gradient back to the encoder
    return SentenceEncoding(token_states=states, summary=summary,
                            matrix=ad.stack_rows(states))


def attend(model, u, parent_state, enc: SentenceEncoding):
    """Dot-product attention over encoded tokens.

    The query [u; parent_state] is projected to the encoder width; scores
    are scaled by 1/sqrt(width) unless config.scaled_attention is off.
    `u` and `parent_state` are one step's vectors, or (P, h) and (P, 2h)
    row matrices holding P steps, which are attended in one pass.
    Returns (context, weights): (2h,) and (L,), or (P, 2h) and (P, L).
    """
    query = ad.affine(ad.concat((u, parent_state)), model.w_query, model.b_query)
    matrix = enc.stacked()
    scores = ad.matmul(query, matrix, transpose_b=True)
    if model.config.scaled_attention:
        scores = ad.scale(scores, 1.0 / math.sqrt(2 * model.config.hidden_size))
    weights = ad.softmax(scores)
    return ad.matmul(weights, matrix), weights


class _Conditioning:
    """Per-sentence context handed to the shared scoring loop."""

    def __init__(self, model, enc, attention_mode="normal"):
        self.model = model
        self.enc = enc
        self.attention_mode = attention_mode  # "normal" | "zero" (ablation)

    def root_input(self):
        return ad.affine(self.enc.summary, self.model.w_summary, self.model.b_summary)

    def attend(self, u, parent_state):
        """Attention context for one step or for stacked (P, .) rows."""
        if self.attention_mode == "zero":
            width = 2 * self.model.config.hidden_size
            return ad.const(np.zeros(u.values.shape[:-1] + (width,)))
        context, _ = attend(self.model, u, parent_state, self.enc)
        return context


def conditional_tree_log_prob(model, tree, sentence, sampler=None,
                              exclude_root=False, attention_mode="normal",
                              enc=None):
    """Teacher-forced log p(tree | sentence) as a scalar graph tensor.

    The tree's terminal yield must equal `sentence` token for token.  Pass a
    precomputed `enc` to share one sentence encoding across candidates.
    """
    sentence = list(sentence)
    yield_ = tree.terminal_yield()
    if yield_ != sentence:
        limit = min(len(yield_), len(sentence))
        pos = next(
            (i for i in range(limit) if yield_[i] != sentence[i]), limit
        )
        raise DecoderError(
            f"candidate yield diverges from the sentence at position {pos}: "
            f"{yield_[pos] if pos < len(yield_) else '<end>'!r} vs "
            f"{sentence[pos] if pos < len(sentence) else '<end>'!r}"
        )
    if enc is None:
        enc = encode_sentence(model, sentence)
    conditioning = _Conditioning(model, enc, attention_mode)
    return dec._score_tree(model, tree, conditioning=conditioning,
                           sampler=sampler, exclude_root=exclude_root)


@dataclass
class Candidate:
    tree: Tree
    external_score: float | None = None
    cond_log_prob: float | None = None


def rerank(model, sentence, candidates):
    """Score candidates conditionally and return them best first.

    Ties keep their original order (stable sort).  Candidates may be Trees
    or Candidate objects; Candidates are returned either way.
    """
    if not candidates:
        raise DecoderError("rerank needs at least one candidate")
    wrapped = [
        c if isinstance(c, Candidate) else Candidate(tree=c) for c in candidates
    ]
    with ad.no_grad():
        enc = encode_sentence(model, list(sentence))
        for cand in wrapped:
            cand.cond_log_prob = conditional_tree_log_prob(
                model, cand.tree, sentence, enc=enc
            ).item()
    return sorted(wrapped, key=lambda c: c.cond_log_prob, reverse=True)


# ---------------------------------------------------------------------------
# candidate files: blank-line-separated blocks, first line the sentence,
# following lines one bracketed candidate each


def read_candidate_file(path):
    from .treebank import parse_bracketed

    blocks = []
    sentence = None
    trees = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = list(fh) + [""]
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            if sentence is not None:
                if not trees:
                    raise DecoderError(
                        f"{path}: sentence block ending at line {lineno} has no candidates"
                    )
                blocks.append((sentence, trees))
            sentence, trees = None, []
            continue
        if sentence is None:
            sentence = line.split()
        else:
            trees.append(parse_bracketed(line))
    return blocks


def format_rerank_tsv(sentence_index, ranked):
    from .treebank import to_bracketed

    lines = []
    for rank, cand in enumerate(ranked, start=1):
        lines.append(
            f"{sentence_index}\t{rank}\t{cand.cond_log_prob:.6f}\t{to_bracketed(cand.tree)}"
        )
    return "\n".join(lines)
