"""Sequential GRU language model over linearized bracket-token sequences.

The baseline scores and samples flat token sequences; whether a sample can
be rebuilt into a tree is measured downstream by delinearize_brackets, which
is exactly the failure mode the breadth-first decoder avoids by
construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .vocab import BOS, EOS

__all__ = ["SeqLmError", "SeqLmConfig", "SeqLmModel",
           "sequence_log_prob", "sample_sequence", "sample_sequence_scored"]

BOS_ID = 0
EOS_ID = 1


class SeqLmError(ValueError):
    pass


@dataclass(frozen=True)
class SeqLmConfig:
    tokens: tuple[str, ...]  # full vocabulary; BOS, EOS first
    hidden_size: int = 32
    embed_size: int = 32
    max_length: int = 200

    def __post_init__(self):
        if self.hidden_size < 1 or self.embed_size < 1 or self.max_length < 1:
            raise SeqLmError("sizes must be >= 1")
        if len(self.tokens) < 3 or self.tokens[0] != BOS or self.tokens[1] != EOS:
            raise SeqLmError(f"token vocabulary must start with {BOS}, {EOS}")
        if len(set(self.tokens)) != len(self.tokens):
            raise SeqLmError("duplicate tokens in vocabulary")

    def scalar_fields(self):
        return {
            "hidden_size": self.hidden_size,
            "embed_size": self.embed_size,
            "max_length": self.max_length,
        }


class SeqLmModel:
    kind = "seq-lm"

    def __init__(self, config: SeqLmConfig, rng=None, seed=0):
        if rng is None:
            rng = np.random.default_rng(seed)
        self.config = config
        self.store = ad.ParamStore()
        k = len(config.tokens)
        e, h = config.embed_size, config.hidden_size
        self._index = {t: i for i, t in enumerate(config.tokens)}
        s = self.store
        self.emb = s.param("emb", (k, e), rng, fan_in=e)
        self.rnn = ad.GruCell(s, "rnn", e, h, rng)
        self.rnn_init = s.param("rnn_init", (h,), zero=True)
        self.w_out = s.param("w_out", (h, k), rng)
        self.b_out = s.param("b_out", (k,), zero=True)

    def token_id(self, token):
        idx = self._index.get(token)
        if idx is None:
            raise SeqLmError(f"token {token!r} not in vocabulary")
        return idx

    def step_log_probs(self, state):
        return ad.log_softmax(ad.affine(state, self.w_out, self.b_out))


def sequence_log_prob(model, tokens, sampler=None):
    """Teacher-forced log p(tokens, EOS | BOS) as a scalar graph tensor.

    The loop runs only the GRU; the output head then scores every position
    at once, as one (T, h) x (h, V) product, a row log-softmax and a gather.
    With a `sampler` (scheduled sampling), consumed inputs may be replaced
    by greedy predictions; the scored targets are always the gold tokens.
    """
    targets = [model.token_id(t) for t in tokens] + [EOS_ID]
    states = []
    state = model.rnn_init
    prev = BOS_ID
    for target in targets:
        state = model.rnn.step(ad.embed_row(model.emb, prev), state)
        states.append(state)
        prev = target
        if sampler is not None:
            prev = sampler.consumed(target, lambda: int(np.argmax(
                state.values @ model.w_out.values + model.b_out.values)))
    log_probs = ad.log_softmax(ad.affine(ad.stack_rows(states), model.w_out, model.b_out))
    return ad.gather_sum(log_probs, np.arange(len(targets)), targets)


def sample_sequence_scored(model, rng=None, max_length=None, greedy=False):
    """Ancestral sampling until EOS or max_length.

    Returns (tokens, log-prob of the decisions taken).  EOS, when drawn, is
    scored but not included in the returned tokens.  No validity guarantee.
    """
    cfg = model.config
    if max_length is None:
        max_length = cfg.max_length
    if max_length < 1:
        raise SeqLmError("max_length must be >= 1")
    if rng is None and not greedy:
        raise SeqLmError("sampling requires an rng (or pass greedy=True)")
    out = []
    total = 0.0
    with ad.no_grad():
        state = model.rnn_init
        prev = BOS_ID
        for _ in range(max_length):
            state = model.rnn.step(ad.embed_row(model.emb, prev), state)
            log_probs = model.step_log_probs(state).values
            if greedy:
                nxt = int(np.argmax(log_probs))
            else:
                probs = np.exp(log_probs)
                r = rng.random() * probs.sum()
                acc = 0.0
                nxt = len(probs) - 1
                for i, p in enumerate(probs):
                    acc += p
                    if r < acc:
                        nxt = i
                        break
            total += float(log_probs[nxt])
            if nxt == EOS_ID:
                break
            out.append(cfg.tokens[nxt])
            prev = nxt
    return out, total


def sample_sequence(model, rng=None, max_length=None, greedy=False):
    tokens, _ = sample_sequence_scored(model, rng=rng, max_length=max_length, greedy=greedy)
    return tokens
