"""Computations made apart from the tdtd package, used to check its outputs.

Nothing here imports tdtd.  Trees are nested tuples ``(label, children)``
with terminals as plain strings; they are read from the canonical bracketed
text the program writes.
"""
from __future__ import annotations

import math
from collections import Counter


def parse_tree(text):
    """Parse one bracketed tree ``(LABEL child ...)`` into nested tuples."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack = []
    root = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "(":
            if i + 1 >= len(tokens) or tokens[i + 1] in "()":
                raise ValueError(f"label expected after '(' in {text!r}")
            stack.append((tokens[i + 1], []))
            i += 2
            continue
        if tok == ")":
            if not stack:
                raise ValueError(f"unbalanced ')' in {text!r}")
            node = stack.pop()
            if not node[1]:
                raise ValueError(f"constituent ({node[0]}) has no children")
            if stack:
                stack[-1][1].append(node)
            elif root is None:
                root = node
            else:
                raise ValueError(f"text after the root in {text!r}")
        else:
            if not stack:
                raise ValueError(f"word {tok!r} outside any constituent")
            stack[-1][1].append(tok)
        i += 1
    if stack or root is None:
        raise ValueError(f"unclosed constituent in {text!r}")
    return root


def to_text(tree):
    """Canonical single-space bracketed text of a nested tree."""
    if isinstance(tree, str):
        return tree
    return "(" + tree[0] + " " + " ".join(to_text(c) for c in tree[1]) + ")"


def nonterminals(tree):
    """Every nonterminal node, breadth first."""
    out = []
    layer = [tree]
    while layer:
        out.extend(layer)
        layer = [c for node in layer for c in node[1] if not isinstance(c, str)]
    return out


def words(tree):
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        else:
            stack.extend(reversed(node[1]))
    return out


def node_count(tree):
    nts = nonterminals(tree)
    return len(nts) + sum(1 for node in nts for c in node[1] if isinstance(c, str))


def layer_widths(tree):
    """Number of nodes (terminals included) at each depth, root first."""
    widths = []
    layer = [tree]
    while layer:
        widths.append(len(layer))
        layer = [c for node in layer if not isinstance(node, str) for c in node[1]]
    return widths


def shape(tree):
    """(depth in edges, largest child count, widest layer)."""
    widths = layer_widths(tree)
    most_children = max(len(node[1]) for node in nonterminals(tree))
    return len(widths) - 1, most_children, max(widths)


# ---------------------------------------------------------------------------
# oracle NLL and Dup% from the grammar file's rule probabilities


def read_rules(path):
    """Map (lhs, ((symbol, is_terminal), ...)) to the stated rule probability."""
    rules = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            lhs, rhs, prob = fields[0], fields[1:-1], float(fields[-1])
            key = tuple((s[1:-1], True) if s.startswith('"') else (s, False) for s in rhs)
            rules[(lhs, key)] = prob
    return rules


def oracle_nll(tree, rules, penalty=1e-6):
    """-log P(tree | root): one rule per nonterminal, unseen rules cost
    -log(penalty)."""
    total = 0.0
    for label, children in nonterminals(tree):
        key = tuple((c, True) if isinstance(c, str) else (c[0], False) for c in children)
        total -= math.log(rules.get((label, key), penalty))
    return total


def sample_report(lines, rules, penalty=1e-6):
    """Mean NLL (per tree and per nonterminal), Dup% and the scored/skipped
    counts of bracketed trees, one per line."""
    grammar_nts = {lhs for lhs, _ in rules} | {
        s for _, rhs in rules for s, terminal in rhs if not terminal}
    total = per_node = 0.0
    scored = skipped = 0
    for line in lines:
        tree = parse_tree(line)
        if tree[0] not in grammar_nts:
            skipped += 1
            continue
        nll = oracle_nll(tree, rules, penalty)
        total += nll
        per_node += nll / max(len(nonterminals(tree)), 1)
        scored += 1
    return {
        "count": len(lines),
        "mean_nll": total / scored if scored else math.inf,
        "mean_nll_per_node": per_node / scored if scored else math.inf,
        "dup_rate": 1.0 - len(set(lines)) / len(lines),
        "nll_scored": scored,
        "nll_skipped": skipped,
    }


# ---------------------------------------------------------------------------
# BLEU-n: joint clipping against all references, uniform weights, brevity
# penalty against the closest reference length (shorter wins a tie), add-one
# smoothing of a zero clipped count, averaged over candidates


def bleu(candidates, references, n=4):
    max_ref = [Counter() for _ in range(n + 1)]
    for ref in references:
        for k in range(1, n + 1):
            for gram, c in Counter(tuple(ref[i:i + k]) for i in range(len(ref) - k + 1)).items():
                if c > max_ref[k][gram]:
                    max_ref[k][gram] = c
    ref_lengths = sorted({len(r) for r in references})
    total = 0.0
    for cand in candidates:
        if not cand:
            continue
        log_sum = 0.0
        for k in range(1, n + 1):
            counts = Counter(tuple(cand[i:i + k]) for i in range(len(cand) - k + 1))
            grams = sum(counts.values())
            clipped = sum(min(c, max_ref[k][g]) for g, c in counts.items())
            p = clipped / grams if clipped else 1.0 / (grams + 1.0)
            log_sum += math.log(p) / n
        c = len(cand)
        r = min(ref_lengths, key=lambda length: (abs(length - c), length))
        bp = 1.0 if c > r else math.exp(1.0 - r / c)
        total += bp * math.exp(log_sum)
    return total / len(candidates)
