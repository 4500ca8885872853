"""Exhaustive enumeration of the decoder's generative process.

Independent oracle for the normalization tests: walk every decision path of
the breadth-first process, accumulating the mass of decision prefixes that
would violate the depth / children-per-node / layer-width caps, and
collecting every completable tree within the caps.  Per-step distributions
come from the per-step reference heads (per_step.predict); tree masses are
cross-checked against tree_log_prob by the callers.
"""
import math
from dataclasses import dataclass

import numpy as np

from tdtd import autodiff as ad
from tdtd.decoder import (LSTART_ID, STOP_ID, LayerContext, depth_step,
                          encode_layer, gen_step)
from tdtd.treebank import Tree, TreeNode

from per_step import predict


@dataclass
class EnumerationResult:
    trees: list  # (Tree, path probability)
    violation_mass: float

    def tree_mass(self):
        return sum(p for _, p in self.trees)

    def total(self):
        return self.tree_mass() + self.violation_mass


def _build_tree(layers):
    """layers: list of [(label, terminal, parent_position)]; root first."""
    nodes = [TreeNode(layers[0][0][0], layers[0][0][1], None)]
    prev_indices = [0]
    for layer in layers[1:]:
        indices = []
        for label, terminal, ppos in layer:
            idx = len(nodes)
            parent = prev_indices[ppos]
            nodes.append(TreeNode(label, terminal, parent))
            nodes[parent].children.append(idx)
            indices.append(idx)
        prev_indices = indices
    return Tree(nodes, 0)


def enumerate_process(model, max_depth, max_children, max_layer_width,
                      min_prob=0.0):
    """Enumerate every decision path of the generative process.

    Paths whose next decision would break a cap contribute their prefix mass
    (times the offending outcomes' probability) to violation_mass and stop.
    `min_prob` prunes branches below a mass floor (keep 0 for exact totals).
    """
    cfg = model.config
    result = EnumerationResult(trees=[], violation_mass=0.0)

    with ad.no_grad():
        root_lp = model.root_log_probs().values
        for r, label in enumerate(cfg.nonterminals):
            p_root = math.exp(float(root_lp[r]))
            sym = model.symbol_id(label, False)
            states = encode_layer(model, [sym], None, None)
            ancestors = [depth_step(model, None, sym)]
            layers = [[(label, False, 0)]]
            _expand_layer(model, result, layers, [(label, False)], states,
                          ancestors, depth=0, prefix=p_root,
                          max_depth=max_depth, max_children=max_children,
                          max_layer_width=max_layer_width, min_prob=min_prob)
    return result


def _expand_layer(model, result, layers, layer_syms, states, ancestors, depth,
                  prefix, max_depth, max_children, max_layer_width, min_prob):
    """Recursively enumerate the child layer of the current one."""
    parents = [i for i, (_, terminal) in enumerate(layer_syms) if not terminal]
    if not parents:
        result.trees.append((_build_tree(layers), prefix))
        return
    if depth >= max_depth:
        # every remaining completion needs nodes deeper than the cap
        result.violation_mass += prefix
        return

    cfg = model.config
    child_depth = depth + 1
    at_depth_cap = child_depth >= max_depth
    u0 = gen_step(model, None, LSTART_ID)

    def recurse_group(k, u, emitted, p):
        """Enumerate children of parents[k]; `emitted` collects
        (label, terminal, parent_position) for the layer so far."""
        if p <= min_prob:
            result.violation_mass += p  # pruned mass kept in the budget
            return
        if k == len(parents):
            next_syms = [(lab, term) for lab, term, _ in emitted]
            prev_ctx = LayerContext(states, ancestors)
            new_states = encode_layer(
                model,
                [model.symbol_id(lab, term) for lab, term in next_syms],
                [ppos for _, _, ppos in emitted],
                prev_ctx,
            )
            new_ancestors = [
                None if term else depth_step(model, ancestors[ppos],
                                             model.symbol_id(lab, term))
                for lab, term, ppos in emitted
            ]
            _expand_layer(model, result, layers + [list(emitted)], next_syms,
                          new_states, new_ancestors, child_depth, p,
                          max_depth, max_children, max_layer_width, min_prob)
            return

        pos = parents[k]
        groups_left = len(parents) - k - 1

        def recurse_position(j, u, emitted, p):
            pred = predict(model, u, ancestors[pos], states[pos],
                           allow_stop=j > 0)
            allowance = max_layer_width - len(emitted) - groups_left
            if j >= max_children or j >= allowance:
                # rails would force STOP: everything else is violating mass
                p_stop = math.exp(float(pred.gate_stop.values))
                result.violation_mass += p * (1.0 - p_stop)
                u2 = gen_step(model, u, STOP_ID)
                recurse_group(k + 1, u2, emitted, p * p_stop)
                return
            if j > 0:
                p_stop = math.exp(float(pred.gate_stop.values))
                u2 = gen_step(model, u, STOP_ID)
                recurse_group(k + 1, u2, emitted, p * p_stop)
            gate_nt = (math.exp(float(pred.gate_nt.values))
                       if pred.gate_nt is not None else 0.0)
            gate_term = math.exp(float(pred.gate_term.values))
            nt_probs = np.exp(pred.nt_logp.values)
            term_probs = np.exp(pred.term_logp.values)
            if at_depth_cap:
                # a nonterminal child here could never finish within the cap
                result.violation_mass += p * gate_nt
            else:
                for idx, label in enumerate(cfg.nonterminals):
                    branch = p * gate_nt * float(nt_probs[idx])
                    u2 = gen_step(model, u, model._nt_base + idx)
                    recurse_position(j + 1, u2,
                                     emitted + [(label, False, pos)], branch)
            for idx, label in enumerate(cfg.terminals):
                branch = p * gate_term * float(term_probs[idx])
                u2 = gen_step(model, u, model._term_base + idx)
                recurse_position(j + 1, u2,
                                 emitted + [(label, True, pos)], branch)

        recurse_position(0, u, emitted, p)

    recurse_group(0, u0, [], prefix)
