import math

import numpy as np
import pytest

from tdtd import autodiff as ad
from tdtd.decoder import (LSTART_ID, STOP_ID, LayerContext, TdtdConfig,
                          TdtdModel, depth_step, encode_layer, gen_step,
                          generate, generate_scored, predict_node,
                          tree_log_prob, DecoderError)
from tdtd.pcfg import sample_tree
from tdtd.treebank import parse_bracketed, validate, layer_view

from conftest import tiny_config
from enumeration import enumerate_process
from per_step import predict

FIVE_NODE = "(S (NP (DT the) (NN cat)) (VB sat))"


def _zeroed(model):
    for _, t in model.store.items():
        t.values[...] = 0.0
    return model


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_overlapping_vocabularies():
    with pytest.raises(DecoderError, match="overlap"):
        TdtdConfig(nonterminals=("S", "X"), terminals=("X",))


def test_config_rejects_reserved_symbols():
    with pytest.raises(DecoderError, match="reserved"):
        TdtdConfig(nonterminals=("S",), terminals=("<stop>",))


def test_config_rejects_nonpositive_sizes():
    with pytest.raises(DecoderError):
        TdtdConfig(nonterminals=("S",), terminals=("a",), hidden_size=0)


# ---------------------------------------------------------------------------
# layer encoder


def test_encode_single_node_layer_dimensions(tiny_model):
    sym = tiny_model.symbol_id("S", False)
    states = encode_layer(tiny_model, [sym], None, None)
    assert len(states) == 1
    assert states[0].shape == (2 * tiny_model.config.hidden_size,)


def test_encode_output_dimension_is_twice_hidden(tiny_model):
    syms = [tiny_model.symbol_id(s, False) for s in ("S", "NP", "VP")]
    states = encode_layer(tiny_model, syms, None, None)
    assert all(s.shape == (16,) for s in states)


def test_encode_reversal_swaps_directions():
    rng = np.random.default_rng(3)
    a = TdtdModel(tiny_config(), rng=rng)
    b = TdtdModel(tiny_config(), rng=np.random.default_rng(99))
    # b gets a's parameters with the two direction cells exchanged
    for name, t in a.store.items():
        if name.startswith("layer_fwd"):
            b.store[name.replace("layer_fwd", "layer_bwd")].values[...] = t.values
        elif name.startswith("layer_bwd"):
            b.store[name.replace("layer_bwd", "layer_fwd")].values[...] = t.values
        else:
            b.store[name].values[...] = t.values
    syms = [a.symbol_id(s, False) for s in ("S", "NP", "VP", "DT")]
    h = a.config.hidden_size
    fwd_a = [s.values[:h] for s in encode_layer(a, syms, None, None)]
    bwd_a = [s.values[h:] for s in encode_layer(a, syms, None, None)]
    rev = encode_layer(b, list(reversed(syms)), None, None)
    fwd_b = [s.values[:h] for s in rev]
    bwd_b = [s.values[h:] for s in rev]
    for i in range(len(syms)):
        assert np.allclose(fwd_b[i], bwd_a[len(syms) - 1 - i], atol=1e-12)
        assert np.allclose(bwd_b[i], fwd_a[len(syms) - 1 - i], atol=1e-12)


def test_encode_dangling_parent_index(tiny_model):
    sym = tiny_model.symbol_id("S", False)
    prev = LayerContext(states=encode_layer(tiny_model, [sym], None, None),
                        ancestors=[None])
    with pytest.raises(DecoderError, match="dangling"):
        encode_layer(tiny_model, [sym], [3], prev)


# ---------------------------------------------------------------------------
# ancestor and emission recurrences


def test_depth_step_root_uses_learned_initial(tiny_model):
    sym = tiny_model.symbol_id("S", False)
    direct = tiny_model.depth_rnn.step(tiny_model.embed(sym), tiny_model.depth_init)
    assert np.array_equal(depth_step(tiny_model, None, sym).values, direct.values)


def test_depth_step_chain_is_deterministic(tiny_model):
    sym = tiny_model.symbol_id("NP", False)
    s1 = None
    s2 = None
    for _ in range(4):
        s1 = depth_step(tiny_model, s1, sym)
        s2 = depth_step(tiny_model, s2, sym)
    assert np.array_equal(s1.values, s2.values)


def test_gen_step_start_and_stop(tiny_model):
    start = gen_step(tiny_model, None, LSTART_ID)
    direct = tiny_model.gen_rnn.step(tiny_model.embed(LSTART_ID), tiny_model.gen_init)
    assert np.array_equal(start.values, direct.values)
    after_stop = gen_step(tiny_model, start, STOP_ID)
    assert after_stop.shape == (tiny_model.config.hidden_size,)


def test_gen_step_distinguishes_prior_symbols(tiny_model):
    start = gen_step(tiny_model, None, LSTART_ID)
    u1 = gen_step(tiny_model, start, tiny_model.symbol_id("the", True))
    u2 = gen_step(tiny_model, start, tiny_model.symbol_id("cat", True))
    assert not np.array_equal(u1.values, u2.values)


# ---------------------------------------------------------------------------
# prediction


def _random_feature_inputs(model, seed):
    rng = np.random.default_rng(seed)
    h = model.config.hidden_size
    return (ad.Tensor(rng.standard_normal(h)),
            ad.Tensor(rng.standard_normal(h)),
            ad.Tensor(rng.standard_normal(2 * h)))


def test_zero_weights_give_uniform_distributions(tiny_model):
    model = _zeroed(tiny_model)
    u, s, h = (ad.Tensor(np.zeros(8)), ad.Tensor(np.zeros(8)), ad.Tensor(np.zeros(16)))
    dist = predict_node(model, u, s, h)
    assert np.allclose(dist.gate, [1 / 3] * 3, atol=1e-15)
    assert np.allclose(dist.nonterminal, 1 / len(model.config.nonterminals), atol=1e-15)
    assert np.allclose(dist.terminal, 1 / len(model.config.terminals), atol=1e-15)


def test_depth_cap_masks_force_terminal(tiny_model):
    u, s, h = _random_feature_inputs(tiny_model, 0)
    dist = predict_node(tiny_model, u, s, h, force_terminal=True, allow_stop=False)
    assert dist.gate[1] == 1.0 and dist.gate[0] == 0.0 and dist.gate[2] == 0.0


def test_outcome_space_sums_to_one(tiny_model):
    for seed in range(5):
        u, s, h = _random_feature_inputs(tiny_model, seed)
        for kwargs in ({}, {"allow_stop": False}, {"force_terminal": True},
                       {"force_terminal": True, "allow_stop": False}):
            dist = predict_node(tiny_model, u, s, h, **kwargs)
            assert dist.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_forced_choices_score_zero():
    config = tiny_config(nonterminals=("S",), terminals=("a",))
    model = TdtdModel(config, rng=np.random.default_rng(0))
    # root head over a single nonterminal is deterministic
    assert model.root_log_probs().values[0] == pytest.approx(0.0, abs=1e-15)
    u, s, h = _random_feature_inputs(model, 1)
    dist = predict_node(model, u, s, h, force_terminal=True, allow_stop=False)
    assert math.log(dist.terminal[0]) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# scoring


def test_tree_log_prob_deterministic(tiny_model):
    tree = parse_bracketed(FIVE_NODE)
    a = tree_log_prob(tiny_model, tree).item()
    b = tree_log_prob(tiny_model, tree).item()
    assert a == b


def test_tree_log_prob_rejects_oov(tiny_model):
    with pytest.raises(DecoderError, match="'dog'"):
        tree_log_prob(tiny_model, parse_bracketed("(S (NN dog))"))


def test_exclude_root_drops_exactly_the_root_term(tiny_model):
    tree = parse_bracketed(FIVE_NODE)
    full = tree_log_prob(tiny_model, tree).item()
    cond = tree_log_prob(tiny_model, tree, exclude_root=True).item()
    root_lp = float(tiny_model.root_log_probs().values[tiny_model.nt_index("S")])
    assert full == pytest.approx(cond + root_lp, abs=1e-12)


def _replay_log_prob(model, tree):
    """Independent orchestration of the scoring walk (the replay oracle)."""
    total = float(model.root_log_probs().values[model.nt_index(tree.label(tree.root))])
    view = layer_view(tree)
    prev_states = prev_ancestors = None
    positions = None
    for d, layer in enumerate(view.layers):
        syms = [model.symbol_id(tree.label(i), tree.is_terminal(i)) for i in layer]
        ppos = None if d == 0 else [positions[tree.nodes[i].parent] for i in layer]
        prev = None if d == 0 else LayerContext(prev_states, prev_ancestors)
        states = encode_layer(model, syms, ppos, prev)
        ancestors = [
            None if tree.is_terminal(i)
            else depth_step(model, None if d == 0 else prev_ancestors[ppos[pos]], syms[pos])
            for pos, i in enumerate(layer)
        ]
        if any(not tree.is_terminal(i) for i in layer):
            u = gen_step(model, None, LSTART_ID)
            for pos, i in enumerate(layer):
                if tree.is_terminal(i):
                    continue
                for j, c in enumerate(tree.nodes[i].children):
                    pred = predict(model, u, ancestors[pos], states[pos], allow_stop=j > 0)
                    child = tree.nodes[c]
                    if child.terminal:
                        k = model.term_index(child.label)
                        total += float(pred.gate_term.values) + float(pred.term_logp.values[k])
                    else:
                        k = model.nt_index(child.label)
                        total += float(pred.gate_nt.values) + float(pred.nt_logp.values[k])
                    u = gen_step(model, u, model.symbol_id(child.label, child.terminal))
                pred = predict(model, u, ancestors[pos], states[pos], allow_stop=True)
                total += float(pred.gate_stop.values)
                u = gen_step(model, u, STOP_ID)
        prev_states, prev_ancestors = states, ancestors
        positions = {i: pos for pos, i in enumerate(layer)}
    return total


def test_replay_oracle_matches_tree_log_prob(tiny_model, toy_grammar):
    with ad.no_grad():
        tree = parse_bracketed(FIVE_NODE)
        assert _replay_log_prob(tiny_model, tree) == pytest.approx(
            tree_log_prob(tiny_model, tree).item(), abs=1e-10
        )


def test_tree_log_prob_gradients_match_finite_differences(tiny_model):
    tree = parse_bracketed(FIVE_NODE)
    err = ad.gradient_check(lambda: tree_log_prob(tiny_model, tree),
                            tiny_model.store, samples_per_tensor=6)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# generation


def test_generation_always_valid(tiny_model):
    rng = np.random.default_rng(0)
    for _ in range(200):
        tree = generate(tiny_model, rng=rng)
        report = validate(tree)
        assert report.ok, report.violations
        assert tree.depth() <= tiny_model.config.max_depth
        assert tree.max_layer_width() <= tiny_model.config.max_layer_width
        assert all(
            len(n.children) <= tiny_model.config.max_children_per_node
            for n in tree.nodes
        )


def test_greedy_generation_deterministic(tiny_model):
    a = generate(tiny_model, greedy=True)
    b = generate(tiny_model, greedy=True)
    assert a == b


def test_seeded_generation_reproducible(tiny_model):
    a = generate(tiny_model, rng=np.random.default_rng(12))
    b = generate(tiny_model, rng=np.random.default_rng(12))
    assert a == b


def test_fixed_root_label(tiny_model):
    tree = generate(tiny_model, rng=np.random.default_rng(3), root_label="NP")
    assert tree.label(tree.root) == "NP"


def test_generation_scoring_consistency(tiny_model):
    rng = np.random.default_rng(17)
    for _ in range(300):
        tree, recorded = generate_scored(tiny_model, rng=rng)
        assert tree_log_prob(tiny_model, tree).item() == pytest.approx(
            recorded, abs=1e-10
        )


def test_generation_consistency_when_rails_bind():
    # depth 2 and two children force the rails constantly
    config = tiny_config(max_depth=2, max_children_per_node=2, max_layer_width=4)
    model = TdtdModel(config, rng=np.random.default_rng(8))
    rng = np.random.default_rng(21)
    for _ in range(200):
        tree, recorded = generate_scored(model, rng=rng)
        assert validate(tree).ok
        assert tree.depth() <= 2
        assert tree_log_prob(model, tree).item() == pytest.approx(recorded, abs=1e-10)


# ---------------------------------------------------------------------------
# enumeration (single-layer example; the full pinned case runs in acceptance)


def test_single_layer_enumeration_mass():
    config = TdtdConfig(nonterminals=("S", "X"), terminals=("a", "b"),
                        hidden_size=4, embed_size=4, max_depth=3,
                        max_children_per_node=2, max_layer_width=8)
    model = TdtdModel(config, rng=np.random.default_rng(13))
    result = enumerate_process(model, max_depth=1, max_children=2, max_layer_width=8)
    tree_mass = 0.0
    with ad.no_grad():
        for tree, path_prob in result.trees:
            lp = tree_log_prob(model, tree).item()
            assert math.exp(lp) == pytest.approx(path_prob, rel=1e-9)
            tree_mass += math.exp(lp)
    assert tree_mass + result.violation_mass == pytest.approx(1.0, abs=1e-8)
    assert result.violation_mass > 0.0  # deeper-tree mass exists


def test_layer_width_rail_reserves_slots():
    config = tiny_config(max_layer_width=3, max_children_per_node=3, max_depth=3)
    model = TdtdModel(config, rng=np.random.default_rng(5))
    rng = np.random.default_rng(2)
    for _ in range(100):
        tree = generate(model, rng=rng)
        assert validate(tree).ok
        assert tree.max_layer_width() <= 3
