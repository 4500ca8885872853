"""The stacked scorers against the per-step references in per_step.py.

The program scores a tree's decisions (and a sequence's tokens) in one
row-matrix pass after the recurrences; the references build one head per
decision.  Values and gradients must agree to 1e-10, with and without
scheduled sampling.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdtd import autodiff as ad
from tdtd.decoder import TdtdModel, _ScheduledSampler, _score_tree, generate
from tdtd.parser import TdtdParserModel, conditional_tree_log_prob
from tdtd.seqlm import SeqLmConfig, SeqLmModel, sequence_log_prob

import per_step
from conftest import tiny_config

TOKENS = ("<bos>", "<eos>", "(S", "(NP", ")", "the", "cat", "sat")


def _trees(model_seed, tree_seed, count):
    source = TdtdModel(tiny_config(), rng=np.random.default_rng(model_seed))
    rng = np.random.default_rng(tree_seed)
    return [generate(source, rng=rng) for _ in range(count)]


def _seq_model(seed):
    config = SeqLmConfig(tokens=TOKENS, hidden_size=6, embed_size=6, max_length=30)
    return SeqLmModel(config, rng=np.random.default_rng(seed))


def _samplers(seed, tf):
    return (_ScheduledSampler(np.random.default_rng(seed), tf),
            _ScheduledSampler(np.random.default_rng(seed), tf))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 0.95), st.booleans())
def test_tree_scores_match_per_step_reference(seed, tf, exclude_root):
    model = TdtdModel(tiny_config(), rng=np.random.default_rng(seed))
    parser = TdtdParserModel(tiny_config(), rng=np.random.default_rng(seed + 1))
    for tree in _trees(seed + 2, seed + 3, 3):
        sentence = tree.terminal_yield()
        with ad.no_grad():
            pairs = [
                (_score_tree(model, tree, exclude_root=exclude_root),
                 per_step.score_tree(model, tree, exclude_root=exclude_root)),
                (conditional_tree_log_prob(parser, tree, sentence, exclude_root=exclude_root),
                 per_step.conditional_score_tree(parser, tree, sentence,
                                                 exclude_root=exclude_root)),
            ]
            s1, s2 = _samplers(seed, tf)
            pairs.append((_score_tree(model, tree, sampler=s1),
                          per_step.score_tree(model, tree, sampler=s2)))
            s1, s2 = _samplers(seed, tf)
            pairs.append((conditional_tree_log_prob(parser, tree, sentence, sampler=s1),
                          per_step.conditional_score_tree(parser, tree, sentence, sampler=s2)))
            # both samplers made the same number of draws
            assert s1.rng.random() == s2.rng.random()
        for stacked, reference in pairs:
            assert stacked.item() == pytest.approx(reference.item(), rel=0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.sampled_from(TOKENS[2:]), max_size=12),
       st.floats(0.05, 0.95))
def test_sequence_scores_match_per_step_reference(seed, tokens, tf):
    model = _seq_model(seed)
    with ad.no_grad():
        assert sequence_log_prob(model, tokens).item() == pytest.approx(
            per_step.sequence_log_prob(model, tokens).item(), rel=0, abs=1e-10)
        s1, s2 = _samplers(seed, tf)
        assert sequence_log_prob(model, tokens, sampler=s1).item() == pytest.approx(
            per_step.sequence_log_prob(model, tokens, sampler=s2).item(), rel=0, abs=1e-10)


def _gradients(store, loss):
    ad.backward(loss, store)
    grads = {name: t.grad.copy() for name, t in store.items()}
    store.clear_grads()
    return grads


def _assert_same_gradients(store, stacked, reference):
    """Every element of every tensor, to 1e-10 relative to max(|g|, 1)."""
    a, b = _gradients(store, stacked()), _gradients(store, reference())
    assert a.keys() == b.keys()
    for name in a:
        scale = np.maximum(np.abs(b[name]), 1.0)
        worst = float((np.abs(a[name] - b[name]) / scale).max(initial=0.0))
        assert worst <= 1e-10, f"{name}: {worst:.3e}"


@pytest.mark.parametrize("tf", [None, 0.5])
def test_tdtd_gradients_match_per_step_reference(tf):
    model = TdtdModel(tiny_config(), rng=np.random.default_rng(3))
    trees = _trees(4, 5, 4)
    s1, s2 = _samplers(6, tf) if tf is not None else (None, None)
    _assert_same_gradients(
        model.store,
        lambda: ad.add_scalars([_score_tree(model, t, sampler=s1) for t in trees]),
        lambda: ad.add_scalars([per_step.score_tree(model, t, sampler=s2) for t in trees]))


@pytest.mark.parametrize("tf", [None, 0.5])
def test_tdtd_p_gradients_match_per_step_reference(tf):
    # every tensor, the attention query projection w_query included
    model = TdtdParserModel(tiny_config(), rng=np.random.default_rng(7))
    trees = _trees(8, 9, 4)
    s1, s2 = _samplers(10, tf) if tf is not None else (None, None)
    _assert_same_gradients(
        model.store,
        lambda: ad.add_scalars([conditional_tree_log_prob(model, t, t.terminal_yield(),
                                                          sampler=s1) for t in trees]),
        lambda: ad.add_scalars([per_step.conditional_score_tree(model, t, t.terminal_yield(),
                                                                sampler=s2) for t in trees]))
    assert "w_query" in model.store.names()


@pytest.mark.parametrize("tf", [None, 0.5])
def test_seq_lm_gradients_match_per_step_reference(tf):
    model = _seq_model(11)
    seqs = [["(S", "the", "cat", ")"], ["(S", "(NP", "the", ")", "sat", ")"], []]
    s1, s2 = _samplers(12, tf) if tf is not None else (None, None)
    _assert_same_gradients(
        model.store,
        lambda: ad.add_scalars([sequence_log_prob(model, s, sampler=s1) for s in seqs]),
        lambda: ad.add_scalars([per_step.sequence_log_prob(model, s, sampler=s2)
                                for s in seqs]))
