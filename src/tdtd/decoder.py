"""Top-down breadth-first tree decoder.

A tree is generated layer by layer.  Three recurrences cooperate:

* layer encoder: a bidirectional GRU over each completed layer, where every
  node's input is its embedding concatenated with its parent's encoded state
  from the layer above, so the state carries sibling and ancestral context;
* ancestor GRU: a unidirectional GRU down the label path from the root,
  producing the ancestor summary used when predicting a node's children;
* emission GRU: a forward GRU over the symbols already emitted in the layer
  under construction (siblings and cousins alike), reset at each new layer.

Children of each parent are emitted left to right and closed by a reserved
STOP symbol.  Each prediction first picks a class (nonterminal / terminal /
STOP) with a softmax gate, then a symbol from the class vocabulary, so the
distribution over {STOP} + terminals + nonterminals is properly normalized.
STOP is masked out at the first child position (a nonterminal must dominate
at least one child), in scoring and generation alike.

Under teacher forcing every decision's inputs are known once the three
recurrences have run, so tree_log_prob loops only over the recurrences and
then scores all of the tree's decisions at once: the gate, the nonterminal
head and the terminal head each run as one row-matrix product over the
stacked features, followed by a masked row log-softmax and one gather.
Generation, predict_node and scheduled sampling evaluate the heads one step
at a time with numpy (_predict), building no graph.

tree_log_prob is the pure model distribution: depth / children / width caps
constrain sampling only.  generate() records the model log-prob of every
decision it takes, so the recorded sum equals tree_log_prob of the result
even when a cap forced a decision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .treebank import Tree, TreeBuilder, layer_view
from .vocab import UNK

__all__ = [
    "DecoderError",
    "TdtdConfig",
    "scalar_fields",
    "TdtdModel",
    "NodeDistribution",
    "LayerContext",
    "encode_layer",
    "depth_step",
    "gen_step",
    "predict_node",
    "tree_log_prob",
    "generate",
    "generate_scored",
]

STOP_ID = 0
LSTART_ID = 1
CLASS_NT, CLASS_TERM, CLASS_STOP = 0, 1, 2


class DecoderError(ValueError):
    """Configuration or input violates the decoder's contracts."""


def scalar_fields(config):
    """The fields of a config dataclass (class or instance) that hold one
    int, float, bool or str, in declaration order: the header lines of a
    model file and the options of the `tdtd` command.  (The annotations
    are strings: the config modules use postponed evaluation.)"""
    return [f for f in fields(config) if f.type in ("int", "float", "bool", "str")]


@dataclass(frozen=True)
class TdtdConfig:
    nonterminals: tuple[str, ...]
    terminals: tuple[str, ...]
    hidden_size: int = 32
    embed_size: int = 32
    max_depth: int = 7
    max_children_per_node: int = 8
    max_layer_width: int = 64
    scaled_attention: bool = True  # used by the conditional variant only

    def __post_init__(self):
        for f in scalar_fields(self):
            if f.type == "int" and getattr(self, f.name) < 1:
                raise DecoderError(f"{f.name} must be >= 1")
        if not self.nonterminals or not self.terminals:
            raise DecoderError("vocabularies must be non-empty")
        overlap = set(self.nonterminals) & set(self.terminals)
        if overlap:
            raise DecoderError(f"vocabularies overlap: {sorted(overlap)}")
        for reserved in ("<stop>", "<lstart>"):
            if reserved in self.nonterminals or reserved in self.terminals:
                raise DecoderError(f"{reserved} is reserved")


class TdtdModel:
    """Parameters plus vocabulary index maps for the breadth-first decoder."""

    kind = "tdtd"
    config_class = TdtdConfig

    def __init__(self, config: TdtdConfig, rng=None, seed=0):
        if rng is None:
            rng = np.random.default_rng(seed)
        self.config = config
        self.store = ad.ParamStore()
        n_nt = len(config.nonterminals)
        n_term = len(config.terminals)
        e = config.embed_size
        h = config.hidden_size
        # one embedding table for STOP, layer-start, nonterminals, terminals
        self.n_symbols = 2 + n_nt + n_term
        self._nt_base = 2
        self._term_base = 2 + n_nt
        self._nt_index = {s: i for i, s in enumerate(config.nonterminals)}
        self._term_index = {s: i for i, s in enumerate(config.terminals)}
        s = self.store
        self.emb = s.param("emb", (self.n_symbols, e), rng, fan_in=e)
        self.layer_fwd = ad.GruCell(s, "layer_fwd", e + 2 * h, h, rng)
        self.layer_bwd = ad.GruCell(s, "layer_bwd", e + 2 * h, h, rng)
        self.layer_fwd_init = s.param("layer_fwd_init", (h,), zero=True)
        self.layer_bwd_init = s.param("layer_bwd_init", (h,), zero=True)
        self.root_parent_ctx = s.param("root_parent_ctx", (2 * h,), zero=True)
        self.depth_rnn = ad.GruCell(s, "depth", e, h, rng)
        self.depth_init = s.param("depth_init", (h,), zero=True)
        self.gen_rnn = ad.GruCell(s, "gen", e, h, rng)
        self.gen_init = s.param("gen_init", (h,), zero=True)
        self.root_feat = s.param("root_feat", (e,), zero=True)
        self.w_root = s.param("w_root", (e, n_nt), rng)
        self.b_root = s.param("b_root", (n_nt,), zero=True)
        f = self.feature_size()
        self.w_gate = s.param("w_gate", (f, 3), rng)
        self.b_gate = s.param("b_gate", (3,), zero=True)
        self.w_nt = s.param("w_nt", (f, n_nt), rng)
        self.b_nt = s.param("b_nt", (n_nt,), zero=True)
        self.w_term = s.param("w_term", (f, n_term), rng)
        self.b_term = s.param("b_term", (n_term,), zero=True)

    def feature_size(self):
        # emission state + ancestor state + encoded parent state
        return self.config.hidden_size * 2 + self.config.hidden_size * 2

    def log_prob(self, tree, sampler=None, exclude_root=False):
        """Teacher-forced log p(tree).  Every model class has this scorer;
        training, `score` and `grad-check` call it whatever the kind."""
        return tree_log_prob(self, tree, exclude_root=exclude_root, sampler=sampler)

    # -- vocabulary ---------------------------------------------------------

    def symbol_id(self, label, terminal):
        if terminal:
            idx = self._term_index.get(label)
            if idx is None:
                raise DecoderError(f"terminal {label!r} not in vocabulary")
            return self._term_base + idx
        idx = self._nt_index.get(label)
        if idx is None:
            raise DecoderError(f"nonterminal {label!r} not in vocabulary")
        return self._nt_base + idx

    def term_symbol_id(self, word):
        idx = self._term_index.get(word)
        if idx is None:
            idx = self._term_index.get(UNK)
            if idx is None:
                raise DecoderError(f"terminal {word!r} not in vocabulary (no {UNK})")
        return self._term_base + idx

    def nt_index(self, label):
        idx = self._nt_index.get(label)
        if idx is None:
            raise DecoderError(f"nonterminal {label!r} not in vocabulary")
        return idx

    def term_index(self, word):
        idx = self._term_index.get(word)
        if idx is None:
            raise DecoderError(f"terminal {word!r} not in vocabulary")
        return idx

    def embed(self, symbol_id):
        return ad.embed_row(self.emb, symbol_id)

    # -- root head ----------------------------------------------------------

    def root_log_probs(self, root_input=None):
        feat = self.root_feat if root_input is None else root_input
        return ad.log_softmax(ad.affine(feat, self.w_root, self.b_root))


@dataclass
class LayerContext:
    """Encoded states (2*hidden each) and ancestor states for one layer."""

    states: list  # per-node contextual vectors
    ancestors: list  # per-node ancestor-path states (None for terminals)


def encode_layer(model, symbol_ids, parent_positions, prev: LayerContext | None):
    """Bidirectional GRU over one layer.

    `parent_positions[i]` indexes into `prev.states`; pass None for the root
    layer, which uses the learned root-parent vector.  Returns the list of
    per-node states (forward || backward).
    """
    n = len(symbol_ids)
    if prev is None:
        parents = [model.root_parent_ctx] * n
    else:
        if parent_positions is None or len(parent_positions) != n:
            raise DecoderError("encode_layer: parent positions required per node")
        try:
            parents = [prev.states[p] for p in parent_positions]
        except IndexError:
            raise DecoderError("encode_layer: dangling parent index") from None
    embs = [model.embed(s) for s in symbol_ids]
    inputs = [ad.concat((v, p)) for v, p in zip(embs, parents)]
    fwd, bwd = _bidirectional(model.layer_fwd, model.layer_bwd,
                              model.layer_fwd_init, model.layer_bwd_init, inputs)
    return [ad.concat((f, b)) for f, b in zip(fwd, bwd)]


def _bidirectional(fwd_cell, bwd_cell, fwd_init, bwd_init, inputs):
    """Forward and backward GRU states over `inputs`, each list aligned with
    them: the recurrence of the layer and sentence encoders."""
    fwd = []
    h = fwd_init
    for x in inputs:
        h = fwd_cell.step(x, h)
        fwd.append(h)
    bwd = [None] * len(inputs)
    h = bwd_init
    for i in range(len(inputs) - 1, -1, -1):
        h = bwd_cell.step(inputs[i], h)
        bwd[i] = h
    return fwd, bwd


def depth_step(model, parent_ancestor_state, label_symbol_id):
    """One GRU step down the ancestor path; root uses the learned init."""
    state = model.depth_init if parent_ancestor_state is None else parent_ancestor_state
    return model.depth_rnn.step(model.embed(label_symbol_id), state)


def gen_step(model, prev_state, symbol_id):
    """Advance the emission GRU with one consumed symbol (layer-start, a
    vocabulary symbol, or STOP)."""
    state = model.gen_init if prev_state is None else prev_state
    return model.gen_rnn.step(model.embed(symbol_id), state)


# ---------------------------------------------------------------------------
# prediction


def _predict(model, feats, allow_stop=True, force_terminal=False):
    """Graph-free heads for one feature vector [u; ancestor; parent (; context)].

    Returns (gate, nonterminal, terminal) log-probability arrays; masked gate
    classes (STOP when not allow_stop, the nonterminal class when
    force_terminal) are -inf and the gate is renormalized over the rest.
    """
    gate = feats @ model.w_gate.values + model.b_gate.values
    if not allow_stop:
        gate[CLASS_STOP] = -math.inf
    if force_terminal:
        gate[CLASS_NT] = -math.inf
    return (
        ad._log_softmax(gate),
        ad._log_softmax(feats @ model.w_nt.values + model.b_nt.values),
        ad._log_softmax(feats @ model.w_term.values + model.b_term.values),
    )


def _features(u, ancestor, parent_state, extra=None):
    parts = [u.values, ancestor.values, parent_state.values]
    if extra is not None:
        parts.append(extra.values)
    return np.concatenate(parts)


@dataclass
class NodeDistribution:
    """Inspectable prediction: class gate plus class-conditional categoricals."""

    gate: np.ndarray  # probabilities over (NONTERMINAL, TERMINAL, STOP)
    nonterminal: np.ndarray
    terminal: np.ndarray

    def log_prob(self, label, terminal, model):
        if terminal:
            return math.log(self.gate[CLASS_TERM]) + math.log(
                self.terminal[model.term_index(label)]
            )
        return math.log(self.gate[CLASS_NT]) + math.log(
            self.nonterminal[model.nt_index(label)]
        )

    def log_prob_stop(self):
        return math.log(self.gate[CLASS_STOP])

    def total_mass(self):
        return float(
            self.gate[CLASS_NT] * self.nonterminal.sum()
            + self.gate[CLASS_TERM] * self.terminal.sum()
            + self.gate[CLASS_STOP]
        )


def predict_node(model, u, ancestor, parent_state, extra=None,
                 allow_stop=True, force_terminal=False):
    """Distribution over {STOP} + terminals + nonterminals for one position.

    `force_terminal` masks the nonterminal class (used at the depth cap);
    `allow_stop=False` masks STOP (first child position).  The gate is
    renormalized over the remaining classes.
    """
    gate, nt, term = _predict(model, _features(u, ancestor, parent_state, extra),
                              allow_stop=allow_stop, force_terminal=force_terminal)
    return NodeDistribution(gate=np.exp(gate), nonterminal=np.exp(nt),
                            terminal=np.exp(term))


# ---------------------------------------------------------------------------
# teacher-forced scoring


class _ScheduledSampler:
    """Replaces consumed inputs with greedy model predictions with
    probability 1 - teacher_forcing_prob.  Targets and tree topology are
    never touched."""

    def __init__(self, rng, teacher_forcing_prob):
        self.rng = rng
        self.p = teacher_forcing_prob

    def consumed(self, gold, greedy):
        """`gold`, or `greedy()` with probability 1 - p; one draw per call."""
        return gold if self.rng.random() < self.p else greedy()


def _score_tree(model, tree, conditioning=None, sampler=None, exclude_root=False):
    """Teacher-forced log-probability as a scalar graph tensor.

    The loop runs only the three recurrences and records each decision's
    inputs; the heads then score every decision of the tree at once, as
    row-matrix ops over the stacked features.  `conditioning`, when given,
    supplies the attention context of every decision (in one call) and a
    root input (used by the conditional variant).  `sampler` optionally
    applies scheduled sampling to emission-GRU inputs.
    """
    view = layer_view(tree)
    terms = []
    root = tree.root
    root_nt = model.nt_index(tree.label(root))  # validates the label early
    if not exclude_root:
        root_input = conditioning.root_input() if conditioning is not None else None
        terms.append(ad.pick(model.root_log_probs(root_input), root_nt))

    # one entry per decision (each child, then the parent's STOP)
    us, ancestors_at, parents_at = [], [], []
    first_child = []  # STOP is masked at a parent's first child
    gold_class = []
    nt_rows, nt_gold, term_rows, term_gold = [], [], [], []

    def greedy(u, ancestor, parent_state, allow_stop):
        """The symbol the heads rank first at this step, built without a graph."""
        extra = None
        if conditioning is not None:
            with ad.no_grad():
                extra = conditioning.attend(u, parent_state)
        heads = _predict(model, _features(u, ancestor, parent_state, extra),
                         allow_stop=allow_stop)
        cls, idx = _draw(heads, None, greedy=True, force_terminal=False, force_stop=False)
        if cls == CLASS_STOP:
            return STOP_ID
        return (model._nt_base if cls == CLASS_NT else model._term_base) + idx

    prev_states = None
    prev_ancestors = None
    prev_positions = None  # map node index -> position in its layer
    for d, layer in enumerate(view.layers):
        symbol_ids = [
            model.symbol_id(tree.label(i), tree.is_terminal(i)) for i in layer
        ]
        if d == 0:
            parent_pos = None
            prev_ctx = None
        else:
            parent_pos = [prev_positions[tree.nodes[i].parent] for i in layer]
            prev_ctx = LayerContext(prev_states, prev_ancestors)
        states = encode_layer(model, symbol_ids, parent_pos, prev_ctx)
        ancestors = []
        for pos, i in enumerate(layer):
            if tree.is_terminal(i):
                ancestors.append(None)
            else:
                parent_anc = None if d == 0 else prev_ancestors[parent_pos[pos]]
                ancestors.append(depth_step(model, parent_anc, symbol_ids[pos]))

        if any(not tree.is_terminal(i) for i in layer):
            u = gen_step(model, None, LSTART_ID)
            for pos, i in enumerate(layer):
                if tree.is_terminal(i):
                    continue
                ancestor = ancestors[pos]
                parent_state = states[pos]
                children = tree.nodes[i].children
                if not children:
                    raise DecoderError(
                        f"cannot score node {i}: nonterminal without children"
                    )
                for j, c in enumerate(children + [None]):
                    row = len(us)
                    us.append(u)
                    ancestors_at.append(ancestor)
                    parents_at.append(parent_state)
                    first_child.append(j == 0)
                    if c is None:
                        gold_class.append(CLASS_STOP)
                        gold_sym = STOP_ID
                    elif tree.nodes[c].terminal:
                        k = model.term_index(tree.nodes[c].label)
                        gold_class.append(CLASS_TERM)
                        term_rows.append(row)
                        term_gold.append(k)
                        gold_sym = model._term_base + k
                    else:
                        k = model.nt_index(tree.nodes[c].label)
                        gold_class.append(CLASS_NT)
                        nt_rows.append(row)
                        nt_gold.append(k)
                        gold_sym = model._nt_base + k
                    consumed = gold_sym if sampler is None else sampler.consumed(
                        gold_sym, lambda: greedy(u, ancestor, parent_state, j > 0))
                    u = gen_step(model, u, consumed)

        prev_states = states
        prev_ancestors = ancestors
        prev_positions = {i: pos for pos, i in enumerate(layer)}

    if us:
        u_rows = ad.stack_rows(us)
        parent_rows = ad.stack_rows(parents_at)
        parts = [u_rows, ad.stack_rows(ancestors_at), parent_rows]
        if conditioning is not None:
            parts.append(conditioning.attend(u_rows, parent_rows))
        feats = ad.concat(parts)
        n = len(us)
        stop_mask = np.zeros((n, 3), dtype=bool)
        stop_mask[:, CLASS_STOP] = first_child
        gate = ad.log_softmax(ad.affine(feats, model.w_gate, model.b_gate), mask=stop_mask)
        terms.append(ad.gather_sum(gate, np.arange(n), gold_class))
        for rows, gold, w, b in ((nt_rows, nt_gold, model.w_nt, model.b_nt),
                                 (term_rows, term_gold, model.w_term, model.b_term)):
            if rows:
                lp = ad.log_softmax(ad.affine(ad.take_rows(feats, rows), w, b))
                terms.append(ad.gather_sum(lp, np.arange(len(rows)), gold))
    return ad.add_scalars(terms)


def tree_log_prob(model, tree, exclude_root=False, sampler=None):
    """Teacher-forced log p(tree) in nats, as a scalar graph tensor.

    With exclude_root=True the root term is dropped, matching the oracle's
    conditional-on-root scoring.  `sampler` applies scheduled sampling.
    """
    return _score_tree(model, tree, sampler=sampler, exclude_root=exclude_root)


# ---------------------------------------------------------------------------
# generation


def generate_scored(model, rng=None, greedy=False, root_label=None,
                    max_depth=None, max_children=None, max_layer_width=None):
    """Sample (or argmax) one tree; returns (tree, recorded log-prob).

    Safety rails: parents at the depth cap only emit terminals, child groups
    are cut at max_children, layers at max_layer_width (while reserving one
    slot per remaining parent, so every nonterminal still gets a child).
    Sampling follows the rail-constrained distribution; the recorded log-prob
    is the model's own score of each decision, so the sum equals
    tree_log_prob of the returned tree.
    """
    cfg = model.config
    max_depth = cfg.max_depth if max_depth is None else max_depth
    max_children = cfg.max_children_per_node if max_children is None else max_children
    max_layer_width = cfg.max_layer_width if max_layer_width is None else max_layer_width
    if max_depth < 1 or max_children < 1 or max_layer_width < 1:
        raise DecoderError("generation limits must be >= 1")
    if rng is None and not greedy:
        raise DecoderError("sampling requires an rng (or pass greedy=True)")

    with ad.no_grad():
        total = 0.0
        root_lp = model.root_log_probs()
        if root_label is not None:
            root_idx = model.nt_index(root_label)
        elif greedy:
            root_idx = int(np.argmax(root_lp.values))
        else:
            root_idx = _sample_categorical(np.exp(root_lp.values), rng)
        total += float(root_lp.values[root_idx])
        root_name = model.config.nonterminals[root_idx]

        builder = TreeBuilder(root_name, terminal=False)
        layer_nodes = [0]
        layer_syms = [model.symbol_id(root_name, False)]
        layer_terminal = [False]
        states = encode_layer(model, layer_syms, None, None)
        ancestors = [depth_step(model, None, layer_syms[0])]
        depth = 0

        while depth < max_depth:
            parents = [pos for pos, t in enumerate(layer_terminal) if not t]
            if not parents:
                break
            next_nodes, next_syms, next_terminal, next_parent_pos = [], [], [], []
            u = gen_step(model, None, LSTART_ID)
            force_terminal_layer = depth + 1 >= max_depth
            for k, pos in enumerate(parents):
                groups_left = len(parents) - k - 1
                node_idx = layer_nodes[pos]
                n_children = 0
                while True:
                    allowance = max_layer_width - len(next_syms) - groups_left
                    gate, nt_logp, term_logp = heads = _predict(
                        model, _features(u, ancestors[pos], states[pos]),
                        allow_stop=n_children > 0,
                    )
                    force_stop = n_children >= max_children or n_children >= allowance
                    cls, idx = _draw(heads, rng, greedy,
                                     force_terminal=force_terminal_layer,
                                     force_stop=force_stop)
                    if cls == CLASS_STOP:
                        total += float(gate[CLASS_STOP])
                        u = gen_step(model, u, STOP_ID)
                        break
                    if cls == CLASS_NT:
                        total += float(gate[CLASS_NT]) + float(nt_logp[idx])
                        label = cfg.nonterminals[idx]
                        sym = model._nt_base + idx
                        terminal = False
                    else:
                        total += float(gate[CLASS_TERM]) + float(term_logp[idx])
                        label = cfg.terminals[idx]
                        sym = model._term_base + idx
                        terminal = True
                    child = builder.add_child(node_idx, label, terminal)
                    next_nodes.append(child)
                    next_syms.append(sym)
                    next_terminal.append(terminal)
                    next_parent_pos.append(pos)
                    n_children += 1
                    u = gen_step(model, u, sym)
            prev_ctx = LayerContext(states, ancestors)
            states = encode_layer(model, next_syms, next_parent_pos, prev_ctx)
            ancestors = []
            for sym, ppos, terminal in zip(next_syms, next_parent_pos, next_terminal):
                ancestors.append(
                    None if terminal else depth_step(model, prev_ctx.ancestors[ppos], sym)
                )
            layer_nodes, layer_syms, layer_terminal = next_nodes, next_syms, next_terminal
            depth += 1
    return builder.build(), total


def generate(model, rng=None, greedy=False, **limits):
    tree, _ = generate_scored(model, rng=rng, greedy=greedy, **limits)
    return tree


def _sample_categorical(probs, rng):
    total = probs.sum()
    r = rng.random() * total
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if r < acc:
            return i
    return len(probs) - 1


def _draw(heads, rng, greedy, force_terminal, force_stop):
    """Pick (class, index) from _predict's heads under the generation rails.

    `force_terminal` excludes the nonterminal class without renormalizing
    the recorded log-probs; greedy ties go to the earlier class and index.
    """
    if force_stop:
        return CLASS_STOP, -1
    gate_lp, nt_logp, term_logp = heads
    gate = [c for c in (CLASS_NT, CLASS_TERM, CLASS_STOP)
            if gate_lp[c] != -math.inf and not (force_terminal and c == CLASS_NT)]
    if greedy:
        best = None
        for cls in gate:
            if cls == CLASS_STOP:
                score, idx = gate_lp[cls], -1
            else:
                logp = nt_logp if cls == CLASS_NT else term_logp
                idx = int(np.argmax(logp))
                score = gate_lp[cls] + logp[idx]
            if best is None or score > best[0]:
                best = (score, cls, idx)
        return best[1], best[2]
    weights = np.array([math.exp(gate_lp[c]) for c in gate])
    cls = gate[_sample_categorical(weights, rng)]
    if cls == CLASS_STOP:
        return CLASS_STOP, -1
    logp = nt_logp if cls == CLASS_NT else term_logp
    return cls, _sample_categorical(np.exp(logp), rng)
