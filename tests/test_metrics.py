import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdtd.metrics import (MetricsError, bleu_n, bracket_f1, bracket_f1_corpus,
                          labeled_spans, sample_report)
from tdtd.pcfg import sample_tree
from tdtd.treebank import linearize_brackets, parse_bracketed

TREE_A = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VB sat)))")


# ---------------------------------------------------------------------------
# sample_report


def test_all_identical_samples(toy_grammar):
    n = 8
    samples = [parse_bracketed("(S (VP (VB runs)))")] * n
    report = sample_report(samples, toy_grammar)
    assert report.dup_rate == pytest.approx((n - 1) / n)
    assert report.fail_rate == 0.0


def test_all_distinct_valid_trees(toy_grammar):
    rng = np.random.default_rng(0)
    seen = set()
    samples = []
    while len(samples) < 12:
        t = sample_tree(toy_grammar, rng=rng)
        key = repr(t)
        if key not in seen:
            seen.add(key)
            samples.append(t)
    report = sample_report(samples, toy_grammar)
    assert report.fail_rate == 0.0
    assert report.dup_rate == 0.0
    assert math.isfinite(report.mean_nll) and report.mean_nll > 0


def test_token_sequences_count_failures(toy_grammar):
    good = linearize_brackets(parse_bracketed("(S (VP (VB runs)))"))
    bad = [")", "(S"]
    report = sample_report([good, bad, bad], toy_grammar)
    assert report.fail_rate == pytest.approx(2 / 3)
    assert report.nll_scored == 1


def test_unknown_root_skipped_not_failed(toy_grammar):
    alien = parse_bracketed("(Z (Q x))")
    known = parse_bracketed("(S (VP (VB runs)))")
    report = sample_report([alien, known], toy_grammar)
    assert report.fail_rate == 0.0
    assert report.nll_skipped == 1
    assert report.nll_scored == 1


def test_dup_rate_permutation_invariant(toy_grammar):
    rng = np.random.default_rng(1)
    samples = [sample_tree(toy_grammar, rng=rng) for _ in range(20)]
    base = sample_report(samples, toy_grammar)
    shuffled = list(samples)
    np.random.default_rng(5).shuffle(shuffled)
    assert sample_report(shuffled, toy_grammar).dup_rate == base.dup_rate


def test_adding_duplicate_never_decreases_dup_rate(toy_grammar):
    rng = np.random.default_rng(2)
    samples = [sample_tree(toy_grammar, rng=rng) for _ in range(10)]
    base = sample_report(samples, toy_grammar).dup_rate
    extended = sample_report(samples + [samples[0]], toy_grammar).dup_rate
    assert extended >= base


def test_report_emission_formats(toy_grammar):
    report = sample_report([parse_bracketed("(S (VP (VB runs)))")], toy_grammar)
    tsv = report.to_tsv()
    assert tsv.splitlines()[0].startswith("count\tmean_nll")
    payload = json.loads(report.to_json())
    assert payload["count"] == 1
    assert "fail rate" in report.to_text()


def test_empty_samples_rejected(toy_grammar):
    with pytest.raises(MetricsError):
        sample_report([], toy_grammar)


# ---------------------------------------------------------------------------
# BLEU


def test_bleu_identical_candidate_scores_one():
    ref = "the cat sat on the mat".split()
    assert bleu_n([ref], [ref], 4) == pytest.approx(1.0, abs=1e-12)


def test_bleu_hand_computed_brevity_penalty():
    candidate = "the cat sat".split()
    reference = "the cat sat down".split()
    expected = math.exp(1.0 - 4.0 / 3.0)  # p1 = p2 = 1, BP = e^(1-r/c)
    score = bleu_n([candidate], [reference], 2)
    assert score == pytest.approx(expected, abs=1e-12)
    assert score == pytest.approx(0.7165, abs=1e-4)


def test_bleu_bounds_and_empty_candidate():
    refs = [["a", "b", "c"]]
    assert bleu_n([[]], refs, 2) == 0.0
    for cand in (["a"], ["a", "b"], ["z", "z", "z"], ["a", "b", "c"]):
        score = bleu_n([cand], refs, 3)
        assert 0.0 <= score <= 1.0


def test_bleu_multi_reference_clipping():
    refs = [["the", "cat"], ["a", "dog"]]
    # bigram "the cat" comes from ref 1, "a dog" from ref 2
    score = bleu_n([["the", "cat"], ["a", "dog"]], refs, 2)
    assert score == pytest.approx(1.0, abs=1e-12)


def test_bleu_corpus_mode_differs_but_bounded():
    cands = [["the", "cat", "sat"], ["a", "dog"]]
    refs = [["the", "cat", "sat", "down"], ["a", "dog", "runs"]]
    for mode in ("sentence", "corpus"):
        score = bleu_n(cands, refs, 2, mode=mode)
        assert 0.0 < score <= 1.0
    with pytest.raises(MetricsError):
        bleu_n(cands, refs, 2, mode="document")


def test_bleu_requires_references():
    with pytest.raises(MetricsError):
        bleu_n([["a"]], [], 2)


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_length(cand_len, references):
    return min((abs(len(r) - cand_len), len(r)) for r in references)[1]


def _reference_sentence_bleu(candidate, references, n):
    """The per-candidate loop bleu_n replaced: every reference's n-grams are
    recounted for every candidate and every order."""
    if not candidate:
        return 0.0
    log_sum = 0.0
    for k in range(1, n + 1):
        counts = _ngrams(candidate, k)
        total = sum(counts.values())
        clipped = 0
        if counts:
            max_counts = Counter()
            for ref in references:
                ref_counts = _ngrams(ref, k)
                for gram in counts:
                    if ref_counts[gram] > max_counts[gram]:
                        max_counts[gram] = ref_counts[gram]
            clipped = sum(min(c, max_counts[g]) for g, c in counts.items())
        if clipped == 0:
            p_k = 1.0 / (total + 1.0)
        else:
            p_k = clipped / total
        log_sum += math.log(p_k) / n
    c = len(candidate)
    r = _closest_ref_length(c, references)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum)


def _reference_corpus_bleu(candidates, references, n):
    clipped_totals = [0] * n
    totals = [0] * n
    cand_len = 0
    ref_len = 0
    for cand in candidates:
        if not cand:
            continue
        cand_len += len(cand)
        ref_len += _closest_ref_length(len(cand), references)
        for k in range(1, n + 1):
            counts = _ngrams(cand, k)
            totals[k - 1] += sum(counts.values())
            max_counts = Counter()
            for ref in references:
                ref_counts = _ngrams(ref, k)
                for gram in counts:
                    if ref_counts[gram] > max_counts[gram]:
                        max_counts[gram] = ref_counts[gram]
            clipped_totals[k - 1] += sum(min(c, max_counts[g]) for g, c in counts.items())
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


_SENTENCES = st.lists(st.lists(st.sampled_from("abcde"), max_size=9), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(candidates=_SENTENCES, references=_SENTENCES, n=st.integers(1, 5))
def test_bleu_equals_per_candidate_reference(candidates, references, n):
    # equal, not close: the same clipped integers and the same float operations
    sentence = (sum(_reference_sentence_bleu(c, references, n) for c in candidates)
                / len(candidates))
    assert bleu_n(candidates, references, n) == sentence
    assert bleu_n(candidates, references, n, mode="corpus") == \
        _reference_corpus_bleu(candidates, references, n)


# ---------------------------------------------------------------------------
# bracket F1


def test_f1_identical_trees():
    result = bracket_f1(TREE_A, TREE_A)
    assert result.f1 == 1.0 and result.precision == 1.0 and result.recall == 1.0


def test_f1_hand_computed_one_third():
    gold = parse_bracketed("(S (NP (DT a) (NN b)) (VP (VB c)))")
    pred = parse_bracketed("(S (NP (DT a)) (VP (NN b) (VB c)))")
    # gold spans {S[0,3], NP[0,2], VP[2,3]}, pred {S[0,3], NP[0,1], VP[1,3]}
    assert labeled_spans(gold) == {("S", 0, 3): 1, ("NP", 0, 2): 1, ("VP", 2, 3): 1}
    assert labeled_spans(pred) == {("S", 0, 3): 1, ("NP", 0, 1): 1, ("VP", 1, 3): 1}
    result = bracket_f1(pred, gold)
    assert result.precision == pytest.approx(1 / 3, abs=1e-9)
    assert result.recall == pytest.approx(1 / 3, abs=1e-9)
    assert result.f1 == pytest.approx(1 / 3, abs=1e-9)


def test_f1_preterminals_excluded():
    spans = labeled_spans(TREE_A)
    labels = {label for label, _, _ in spans}
    assert "DT" not in labels and "NN" not in labels and "VB" not in labels
    assert {"S", "NP", "VP"} == labels


def test_f1_unary_chains_counted_per_label():
    tree = parse_bracketed("(A (B (C w)))")
    spans = labeled_spans(tree)
    assert spans == {("A", 0, 1): 1, ("B", 0, 1): 1}  # C is a preterminal


def test_f1_swaps_precision_and_recall():
    gold = parse_bracketed("(S (NP (DT a) (NN b)) (VP (VB c)))")
    pred = parse_bracketed("(S (DT a) (NN b) (VB c))")
    forward = bracket_f1(pred, gold)
    backward = bracket_f1(gold, pred)
    assert forward.precision == backward.recall
    assert forward.recall == backward.precision


def test_f1_yield_mismatch_rejected():
    with pytest.raises(MetricsError, match="yields"):
        bracket_f1(TREE_A, parse_bracketed("(S (NN dog))"))


def test_f1_corpus_aggregates_counts_not_averages():
    gold1 = parse_bracketed("(S (NP (DT a) (NN b)) (VP (VB c)))")
    pred1 = parse_bracketed("(S (NP (DT a)) (VP (NN b) (VB c)))")
    # second pair is a perfect parse with six scoreable spans
    gold2 = pred2 = parse_bracketed(
        "(S (NP (NP (DT a) (NN b)) (PP (IN c) (NP (NN d)))) (VP (VB e)))"
    )
    assert sum(labeled_spans(gold2).values()) == 6
    corpus = bracket_f1_corpus([(pred1, gold1), (pred2, gold2)])
    # (1 + 6) matches over (3 + 6) spans on each side
    assert corpus.precision == pytest.approx(7 / 9)
    assert corpus.recall == pytest.approx(7 / 9)
    mean_of_f1 = (bracket_f1(pred1, gold1).f1 + 1.0) / 2
    assert corpus.f1 != pytest.approx(mean_of_f1)
