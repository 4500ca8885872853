"""Evaluation: oracle-NLL sample reports, BLEU-n, labeled bracket F1.

All functions are pure over immutable inputs.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

from .pcfg import DEFAULT_PENALTY_PROB, GrammarError, oracle_nll
from .treebank import Tree, delinearize_brackets, to_bracketed

__all__ = [
    "MetricsError",
    "SampleReport",
    "sample_report",
    "bleu_n",
    "bracket_f1",
    "bracket_f1_corpus",
    "labeled_spans",
    "F1Result",
]


class MetricsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sample reports: NLL / Fail% / Dup%


@dataclass
class SampleReport:
    count: int
    mean_nll: float  # per tree, over scored samples; +inf when none scored
    mean_nll_per_node: float
    fail_rate: float  # fraction that could not be rebuilt into a tree
    dup_rate: float  # 1 - distinct canonical forms / count
    nll_scored: int  # samples entering the NLL means
    nll_skipped: int  # parseable samples whose root the grammar does not know

    FIELDS = ("count", "mean_nll", "mean_nll_per_node", "fail_rate", "dup_rate",
              "nll_scored", "nll_skipped")

    def to_tsv(self):
        header = "\t".join(self.FIELDS)
        row = "\t".join(_fmt(getattr(self, f)) for f in self.FIELDS)
        return f"{header}\n{row}\n"

    def to_json(self):
        return json.dumps({f: getattr(self, f) for f in self.FIELDS})

    def to_text(self):
        lines = [f"samples        {self.count}",
                 f"mean NLL       {_fmt(self.mean_nll)} nats/tree "
                 f"({_fmt(self.mean_nll_per_node)} per node, {self.nll_scored} scored)",
                 f"fail rate      {self.fail_rate:.4f}",
                 f"dup rate       {self.dup_rate:.4f}"]
        if self.nll_skipped:
            lines.append(f"nll skipped    {self.nll_skipped} (root unknown to grammar)")
        return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, float):
        return "inf" if math.isinf(v) else f"{v:.6f}"
    return str(v)


def sample_report(samples, grammar, penalty=DEFAULT_PENALTY_PROB):
    """Score generated samples against the oracle grammar.

    `samples` are Trees (Fail% is 0 by construction) or token sequences,
    which are delinearized first; sequences that cannot form a tree count
    into the fail rate and are excluded from the NLL means, mirroring the
    published protocol.  Dup% is 1 - distinct canonical bracketed forms over
    the total sample count.
    """
    samples = list(samples)
    if not samples:
        raise MetricsError("no samples to report on")
    trees = []
    failed = 0
    for s in samples:
        if isinstance(s, Tree):
            trees.append(s)
        else:
            rebuilt = delinearize_brackets(s)
            if isinstance(rebuilt, Tree):
                trees.append(rebuilt)
            else:
                failed += 1
    canon = {to_bracketed(t) for t in trees}
    total_nll = 0.0
    total_per_node = 0.0
    scored = 0
    skipped = 0
    for t in trees:
        try:
            nll = oracle_nll(grammar, t, penalty_prob=penalty)
        except GrammarError:
            skipped += 1
            continue
        total_nll += nll
        total_per_node += nll / max(t.nonterminal_count(), 1)
        scored += 1
    return SampleReport(
        count=len(samples),
        mean_nll=total_nll / scored if scored else math.inf,
        mean_nll_per_node=total_per_node / scored if scored else math.inf,
        fail_rate=failed / len(samples),
        dup_rate=1.0 - len(canon) / len(samples),
        nll_scored=scored,
        nll_skipped=skipped,
    )


# ---------------------------------------------------------------------------
# BLEU


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_counts(candidates, references, n):
    """For each candidate, (clipped, total) n-gram counts for k = 1..n.

    A candidate n-gram's count is clipped at its largest count in any one
    reference; those maxima are computed once per call, so the cost is
    linear in the candidates plus the references.
    """
    max_ref_counts = []
    for k in range(1, n + 1):
        most = {}
        for ref in references:
            for gram, c in _ngram_counts(ref, k).items():
                if c > most.get(gram, 0):
                    most[gram] = c
        max_ref_counts.append(most)
    for cand in candidates:
        row = []
        for k, most in enumerate(max_ref_counts, start=1):
            counts = _ngram_counts(cand, k)
            row.append((sum(min(c, most.get(g, 0)) for g, c in counts.items()),
                        sum(counts.values())))
        yield row


def _closest_ref_length(cand_len, ref_lengths):
    return min((abs(r - cand_len), r) for r in ref_lengths)[1]


def _sentence_bleu(cand, row, ref_lengths, n):
    if not cand:
        return 0.0
    log_sum = 0.0
    for clipped, total in row:
        # add-one smoothing whenever the clipped count is zero; a candidate
        # shorter than k yields 1 here and the brevity penalty carries the
        # punishment
        if clipped == 0:
            p_k = 1.0 / (total + 1.0)
        else:
            p_k = clipped / total
        log_sum += math.log(p_k) / n
    c = len(cand)
    r = _closest_ref_length(c, ref_lengths)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum)


def _corpus_bleu(candidates, rows, ref_lengths, n):
    clipped_totals = [0] * n
    totals = [0] * n
    cand_len = 0
    ref_len = 0
    for cand, row in zip(candidates, rows):
        if not cand:
            continue
        cand_len += len(cand)
        ref_len += _closest_ref_length(len(cand), ref_lengths)
        for k, (clipped, count) in enumerate(row):
            clipped_totals[k] += clipped
            totals[k] += count
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for k in range(n):
        if clipped_totals[k] == 0:
            p_k = 1.0 / (totals[k] + 1.0)
        else:
            p_k = clipped_totals[k] / totals[k]
        log_sum += math.log(p_k) / n
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum)


def bleu_n(candidates, references, n, mode="sentence"):
    """BLEU-n in [0, 1] for tokenized candidates against a full reference set.

    Modified n-gram precisions are clipped against all references jointly,
    combined by a uniform-weight geometric mean with a brevity penalty
    against the closest reference length.  mode="sentence" (default)
    averages per-candidate scores with add-one smoothing for zero
    precisions; mode="corpus" aggregates counts corpus-wide.
    """
    if n < 1:
        raise MetricsError("n must be >= 1")
    if not references:
        raise MetricsError("references must be non-empty")
    candidates = [list(c) for c in candidates]
    references = [list(r) for r in references]
    if not candidates:
        raise MetricsError("candidates must be non-empty")
    if mode not in ("sentence", "corpus"):
        raise MetricsError(f"unknown BLEU mode {mode!r}")
    rows = _clipped_counts(candidates, references, n)
    ref_lengths = {len(r) for r in references}
    if mode == "corpus":
        return _corpus_bleu(candidates, rows, ref_lengths, n)
    return sum(_sentence_bleu(c, row, ref_lengths, n)
               for c, row in zip(candidates, rows)) / len(candidates)


# ---------------------------------------------------------------------------
# labeled bracket F1


def labeled_spans(tree):
    """Multiset of (label, start, end) spans over terminal positions.

    Preterminal unary word tags are excluded: a span is counted only for
    nonterminals with at least one nonterminal child or at least two
    children (the usual bracket-scoring convention; exact evalb punctuation
    rules are not replicated).
    """
    spans = Counter()
    # terminal positions by depth-first order
    position = {}
    order = []
    stack = [tree.root]
    while stack:
        i = stack.pop()
        order.append(i)
        node = tree.nodes[i]
        if node.terminal:
            position[i] = len(position)
        else:
            stack.extend(reversed(node.children))
    # reversed pre-order bounds every child before its parent, without recursion
    bounds = {}
    for i in reversed(order):
        node = tree.nodes[i]
        if node.terminal:
            bounds[i] = (position[i], position[i] + 1)
        else:
            bounds[i] = (min((bounds[c][0] for c in node.children), default=math.inf),
                         max((bounds[c][1] for c in node.children), default=-math.inf))
    for i, node in enumerate(tree.nodes):
        if node.terminal:
            continue
        scoreable = len(node.children) >= 2 or any(
            not tree.nodes[c].terminal for c in node.children
        )
        if scoreable:
            lo, hi = bounds[i]
            spans[(node.label, lo, hi)] += 1
    return spans


@dataclass
class F1Result:
    precision: float
    recall: float
    f1: float
    matched: int
    predicted: int
    gold: int

    def to_tsv(self):
        return ("precision\trecall\tf1\tmatched\tpredicted\tgold\n"
                f"{self.precision:.6f}\t{self.recall:.6f}\t{self.f1:.6f}\t"
                f"{self.matched}\t{self.predicted}\t{self.gold}\n")

    def to_json(self):
        return json.dumps({
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
            "matched": self.matched, "predicted": self.predicted, "gold": self.gold,
        })


def _f1_from_counts(matched, predicted, gold):
    precision = matched / predicted if predicted else 0.0
    recall = matched / gold if gold else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return F1Result(precision, recall, f1, matched, predicted, gold)


def bracket_f1(predicted, gold):
    """Labeled bracket precision/recall/F1 for one tree pair."""
    return bracket_f1_corpus([(predicted, gold)])


def bracket_f1_corpus(pairs):
    """Corpus F1 aggregates matched/predicted/gold counts, not averages."""
    matched = predicted = gold = 0
    for p, g in pairs:
        if p.terminal_yield() != g.terminal_yield():
            raise MetricsError("terminal yields differ; trees are not comparable")
        p_spans = labeled_spans(p)
        g_spans = labeled_spans(g)
        matched += sum((p_spans & g_spans).values())
        predicted += sum(p_spans.values())
        gold += sum(g_spans.values())
    return _f1_from_counts(matched, predicted, gold)
