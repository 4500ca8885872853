"""Checks of tdtd's outputs against properties of the method and against the
independent computations in reference.py.  Each check raises CheckError
with the reason, or returns what it parsed.

The program prints scores with six decimals, so a value computed apart is
compared with `printed_as`: the printed text must be the rendering of some
number within the tolerance of the value computed apart.
"""
from __future__ import annotations

import math

import reference


class CheckError(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckError(message)


def printed_as(text, value, tol):
    """True when `text` is how some x with |x - value| <= tol prints at the
    number of decimals `text` shows."""
    decimals = len(text.split(".", 1)[1]) if "." in text else 0
    return text in {f"{x:.{decimals}f}" for x in (value - tol, value, value + tol)}


def summary_ok(output):
    """The last line of a subcommand's output, and whether it ends OK."""
    lines = output.rstrip("\n").split("\n")
    return lines[-1], lines[-1].endswith(" OK")


# ---------------------------------------------------------------------------
# train


def check_train_report(text, kind):
    """Final dev NLL is finite and below the epoch-0 dev NLL."""
    rows = [line.split("\t") for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("epoch")]
    dev = [float(r[2]) for r in rows if r[2] != "-"]
    require(len(dev) >= 2, f"{kind}: report.tsv has {len(dev)} dev NLL rows")
    require(all(math.isfinite(d) for d in dev), f"{kind}: non-finite dev NLL {dev}")
    require(dev[-1] < dev[0], f"{kind}: final dev NLL {dev[-1]} not below epoch 0's {dev[0]}")


# ---------------------------------------------------------------------------
# generate and score


def check_generated(lines, count, caps, recorded, parse, validate, to_bracketed):
    """Every line parses, validates and round-trips; no tree exceeds the
    (depth, children, width) caps; `count` trees came out, the same trees
    generate_scored returned.  `parse`, `validate` and `to_bracketed` are
    the program's treebank functions."""
    require(len(lines) == count, f"generate wrote {len(lines)} trees, {count} requested")
    require(len(recorded) == count,
            f"generate_scored returned {len(recorded)} trees, {count} requested")
    max_depth, max_children, max_width = caps
    for i, line in enumerate(lines):
        tree = parse(line)
        report = validate(tree)
        require(report.ok, f"tree {i} does not validate: {report.violations}")
        require(to_bracketed(tree) == line, f"tree {i} does not round-trip")
        depth, children, width = reference.shape(reference.parse_tree(line))
        require(depth <= max_depth, f"tree {i} has depth {depth} > cap {max_depth}")
        require(children <= max_children,
                f"tree {i} has a node with {children} children > cap {max_children}")
        require(width <= max_width, f"tree {i} has a layer of {width} > cap {max_width}")
        require(to_bracketed(recorded[i][0]) == line,
                f"tree {i} differs from the one generate_scored returned")


def check_scores(tsv, recorded, tol=1e-10):
    """`score` reports, for each generated tree, the sum of the decision
    log-probabilities generate_scored recorded while drawing it."""
    rows = [line.split("\t") for line in tsv.splitlines() if line]
    require(len(rows) == len(recorded), f"score wrote {len(rows)} rows for {len(recorded)} trees")
    for i, (row, (_, logp)) in enumerate(zip(rows, recorded)):
        require(row[0] == str(i), f"score row {i} has index {row[0]}")
        require(printed_as(row[1], logp, tol),
                f"score of tree {i} is {row[1]}, generation recorded {logp!r}")


# ---------------------------------------------------------------------------
# evaluation


def check_sample_report(report, expected, tol=1e-9):
    """eval-nll --json against reference.sample_report."""
    for key in ("count", "nll_scored", "nll_skipped"):
        require(report[key] == expected[key], f"eval-nll {key}={report[key]}, expected {expected[key]}")
    require(report["fail_rate"] == 0.0, f"eval-nll fail rate {report['fail_rate']} on trees")
    for key in ("mean_nll", "mean_nll_per_node", "dup_rate"):
        require(abs(report[key] - expected[key]) <= tol,
                f"eval-nll {key}={report[key]!r}, computed apart {expected[key]!r}")


def check_bleu(printed, expected, tol=1e-9):
    """eval-bleu --json's score against reference.bleu."""
    require(printed_as(printed, expected, tol),
            f"eval-bleu score {printed}, computed apart {expected!r}")


# ---------------------------------------------------------------------------
# rerank


def check_rerank(tsv, blocks):
    """Each sentence's rows are a permutation of its candidates, ranked
    1..n, with scores <= 0 and non-increasing, and the probabilities of its
    distinct candidates sum to at most 1 (+1e-9, plus the six-decimal
    rounding of the printed scores).  `blocks` is [(words, [tree text])].
    Returns {(sentence, tree text): printed score}."""
    by_sentence = {}
    for line in tsv.splitlines():
        if not line:
            continue
        sentence, rank, score, tree = line.split("\t")
        by_sentence.setdefault(int(sentence), []).append((int(rank), score, tree))
    require(sorted(by_sentence) == list(range(len(blocks))),
            f"rerank output covers sentences {sorted(by_sentence)}, expected 0..{len(blocks) - 1}")
    scores = {}
    for index, (_, candidates) in enumerate(blocks):
        rows = by_sentence[index]
        require([r for r, _, _ in rows] == list(range(1, len(rows) + 1)),
                f"sentence {index}: ranks are not 1..{len(rows)} in order")
        require(sorted(t for _, _, t in rows) == sorted(candidates),
                f"sentence {index}: ranked trees are not a permutation of its candidates")
        values = [float(s) for _, s, _ in rows]
        require(all(v <= 0.0 for v in values), f"sentence {index}: a score is above 0")
        require(all(a >= b for a, b in zip(values, values[1:])),
                f"sentence {index}: scores increase down the ranking")
        distinct = {t: float(s) for _, s, t in rows}
        mass = sum(math.exp(v - 5e-7) for v in distinct.values())
        require(mass <= 1.0 + 1e-9, f"sentence {index}: candidate probabilities sum to {mass}")
        scores.update({(index, t): s for _, s, t in rows})
    return scores
