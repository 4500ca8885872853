"""Per-step reference scorers: one graph-building head per decision.

These are the scorers the program used before its heads were stacked.  Each
prediction step builds its own gate and class heads (and, for the
conditional model, its own attention), so every decision is scored by
itself.  The stacked scorers in `tdtd` are checked against them, value and
gradient; the enumeration oracle and the replay oracle read their
per-decision pieces.
"""
import numpy as np

from tdtd import autodiff as ad
from tdtd.decoder import (CLASS_NT, CLASS_STOP, CLASS_TERM, LSTART_ID, STOP_ID,
                          DecoderError, LayerContext, depth_step, encode_layer,
                          gen_step)
from tdtd.parser import attend, encode_sentence
from tdtd.seqlm import BOS_ID, EOS_ID
from tdtd.treebank import layer_view


class Prediction:
    """Graph-level pieces of one prediction step."""

    __slots__ = ("gate_nt", "gate_term", "gate_stop", "nt_logp", "term_logp")

    def __init__(self, gate_nt, gate_term, gate_stop, nt_logp, term_logp):
        self.gate_nt = gate_nt
        self.gate_term = gate_term
        self.gate_stop = gate_stop
        self.nt_logp = nt_logp
        self.term_logp = term_logp

    def log_prob_nt(self, nt_index):
        return ad.add_scalars((self.gate_nt, ad.pick(self.nt_logp, nt_index)))

    def log_prob_term(self, term_index):
        return ad.add_scalars((self.gate_term, ad.pick(self.term_logp, term_index)))

    def log_prob_stop(self):
        if self.gate_stop is None:
            raise DecoderError("STOP is masked here")
        return self.gate_stop

    def argmax_symbol(self):
        """Greedy (class, index) over the masked outcome space; ties go to
        the earlier class and index."""
        best = None
        for cls, gate, logp in ((CLASS_NT, self.gate_nt, self.nt_logp),
                                (CLASS_TERM, self.gate_term, self.term_logp),
                                (CLASS_STOP, self.gate_stop, None)):
            if gate is None:
                continue
            idx = -1 if logp is None else int(np.argmax(logp.values))
            score = float(gate.values) + (0.0 if logp is None else float(logp.values[idx]))
            if best is None or score > best[0]:
                best = (score, cls, idx)
        return best[1], best[2]


def predict(model, u, ancestor, parent_state, extra=None, allow_stop=True):
    parts = [u, ancestor, parent_state]
    if extra is not None:
        parts.append(extra)
    feats = ad.concat(parts)
    lp = ad.log_softmax(ad.affine(feats, model.w_gate, model.b_gate),
                        mask=[False, False, not allow_stop])
    return Prediction(
        ad.pick(lp, CLASS_NT), ad.pick(lp, CLASS_TERM),
        ad.pick(lp, CLASS_STOP) if allow_stop else None,
        ad.log_softmax(ad.affine(feats, model.w_nt, model.b_nt)),
        ad.log_softmax(ad.affine(feats, model.w_term, model.b_term)),
    )


def _greedy_symbol(model, pred):
    cls, idx = pred.argmax_symbol()
    if cls == CLASS_STOP:
        return STOP_ID
    return (model._nt_base if cls == CLASS_NT else model._term_base) + idx


def score_tree(model, tree, enc=None, sampler=None, exclude_root=False):
    """Teacher-forced log p(tree), or log p(tree | sentence) given the
    sentence encoding `enc`, with one prediction (and attention) per step."""
    view = layer_view(tree)
    terms = []
    if not exclude_root:
        root_input = None
        if enc is not None:
            root_input = ad.affine(enc.summary, model.w_summary, model.b_summary)
        terms.append(ad.pick(model.root_log_probs(root_input),
                             model.nt_index(tree.label(tree.root))))
    prev_states = prev_ancestors = positions = None
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
                for j, c in enumerate(tree.nodes[i].children + [None]):
                    extra = None if enc is None else attend(model, u, states[pos], enc)[0]
                    pred = predict(model, u, ancestors[pos], states[pos], extra,
                                   allow_stop=j > 0)
                    if c is None:
                        terms.append(pred.log_prob_stop())
                        gold = STOP_ID
                    elif tree.nodes[c].terminal:
                        k = model.term_index(tree.nodes[c].label)
                        terms.append(pred.log_prob_term(k))
                        gold = model._term_base + k
                    else:
                        k = model.nt_index(tree.nodes[c].label)
                        terms.append(pred.log_prob_nt(k))
                        gold = model._nt_base + k
                    if sampler is not None:
                        gold = sampler.consumed(gold, lambda: _greedy_symbol(model, pred))
                    u = gen_step(model, u, gold)
        prev_states, prev_ancestors = states, ancestors
        positions = {i: pos for pos, i in enumerate(layer)}
    return ad.add_scalars(terms)


def conditional_score_tree(model, tree, sentence, sampler=None, exclude_root=False):
    return score_tree(model, tree, enc=encode_sentence(model, list(sentence)),
                      sampler=sampler, exclude_root=exclude_root)


def sequence_log_prob(model, tokens, sampler=None):
    """Teacher-forced log p(tokens, EOS | BOS), one output head per token."""
    terms = []
    state = model.rnn_init
    prev = BOS_ID
    for target in [model.token_id(t) for t in tokens] + [EOS_ID]:
        state = model.rnn.step(ad.embed_row(model.emb, prev), state)
        logits = ad.affine(state, model.w_out, model.b_out)
        terms.append(ad.pick(ad.log_softmax(logits), target))
        prev = target
        if sampler is not None:
            prev = sampler.consumed(target, lambda: int(np.argmax(logits.values)))
    return ad.add_scalars(terms)
