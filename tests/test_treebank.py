import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdtd import treebank as tb
from tdtd.metrics import bracket_f1
from tdtd.pcfg import sample_tree

EXAMPLE = "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"


# ---------------------------------------------------------------------------
# parsing


def test_parse_example_counts():
    tree = tb.parse_bracketed(EXAMPLE)
    assert tree.nonterminal_count() == 6
    assert tree.terminal_count() == 3
    assert tree.terminal_yield() == ["the", "cat", "sat"]


def test_parse_single_terminal():
    tree = tb.parse_bracketed("(X a)")
    assert tree.nonterminal_count() == 1
    assert tree.terminal_count() == 1
    root = tree.nodes[tree.root]
    assert root.label == "X" and len(root.children) == 1


def test_parse_is_whitespace_insensitive():
    messy = "( S\t( NP ( DT the )\n( NN cat ) ) ( VP ( VBD sat ) ) )"
    assert tb.parse_bracketed(messy) == tb.parse_bracketed(EXAMPLE)


def test_tree_equality_is_structural():
    a = tb.parse_bracketed(EXAMPLE)
    assert a == tb.parse_bracketed(EXAMPLE) and hash(a) == hash(tb.parse_bracketed(EXAMPLE))
    assert a != tb.parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sit)))")
    assert a != tb.parse_bracketed("(S (NP (DT the) (NN cat) (VP (VBD sat))))")
    # a childless nonterminal is not the terminal with the same label
    leaf = tb.TreeBuilder("S")
    leaf.add_child(0, "x", terminal=False)
    word = tb.TreeBuilder("S")
    word.add_child(0, "x", terminal=True)
    assert leaf.build() != word.build()


def test_deep_unary_chain_survives_equality_hash_and_f1():
    depth = 3000
    text = "(A " * depth + "w" + ")" * depth
    a, b = tb.parse_bracketed(text), tb.parse_bracketed(text)
    assert a == b and hash(a) == hash(b)
    assert a != tb.parse_bracketed("(A " * depth + "v" + ")" * depth)
    assert bracket_f1(a, b).f1 == 1.0


def test_parse_unbalanced_reports_end_offset():
    text = "(S (NP"
    with pytest.raises(tb.ParseError) as exc:
        tb.parse_bracketed(text)
    assert exc.value.offset == len(text)


def test_parse_empty_constituent():
    with pytest.raises(tb.ParseError, match="empty constituent"):
        tb.parse_bracketed("(S ())")
    with pytest.raises(tb.ParseError, match="empty constituent"):
        tb.parse_bracketed("(S (NP) (VP (V x)))")


def test_parse_bare_terminal_outside_brackets():
    with pytest.raises(tb.ParseError, match="expected"):
        tb.parse_bracketed("cat")
    with pytest.raises(tb.ParseError, match="empty input"):
        tb.parse_bracketed("   ")


def test_parse_trailing_content():
    with pytest.raises(tb.ParseError, match="trailing"):
        tb.parse_bracketed("(X a) b")
    with pytest.raises(tb.ParseError, match="trailing"):
        tb.parse_bracketed("(X a) (Y b)")
    with pytest.raises(tb.ParseError, match="trailing"):
        tb.parse_bracketed("(X a))")


def test_parse_missing_label():
    with pytest.raises(tb.ParseError, match="label"):
        tb.parse_bracketed("((X a))")


# ---------------------------------------------------------------------------
# canonical text


def test_round_trip_is_canonical():
    tree = tb.parse_bracketed("( S ( NP ( DT the ) ( NN cat ) ) ( VP ( VBD sat ) ) )")
    assert tb.to_bracketed(tree) == EXAMPLE


def test_round_trip_single_terminal():
    assert tb.to_bracketed(tb.parse_bracketed("(X a)")) == "(X a)"


def test_unary_chain_preserved():
    text = "(A (B (C w)))"
    assert tb.to_bracketed(tb.parse_bracketed(text)) == text


# ---------------------------------------------------------------------------
# layer views


def test_layer_view_example():
    tree = tb.parse_bracketed(EXAMPLE)
    view = tb.layer_view(tree)
    labels = [[tree.label(i) for i in layer] for layer in view.layers]
    assert labels == [["S"], ["NP", "VP"], ["DT", "NN", "VBD"], ["the", "cat", "sat"]]


def test_layer_view_single_node():
    tree = tb.Tree([tb.TreeNode("X", False, None)], 0)
    assert tb.layer_view(tree).layers == [[0]]


def test_layer_view_mixed_depth_terminals():
    tree = tb.parse_bracketed("(S (NP x) (VP (VB runs)))")
    view = tb.layer_view(tree)
    # the depth-2 terminal x has no children; it is absent from layer 3
    labels = [[tree.label(i) for i in layer] for layer in view.layers]
    assert labels == [["S"], ["NP", "VP"], ["x", "VB"], ["runs"]]


def test_layer_view_concatenation_property(toy_grammar):
    rng = np.random.default_rng(5)
    for _ in range(50):
        tree = sample_tree(toy_grammar, rng=rng)
        view = tb.layer_view(tree)
        flat = [i for layer in view.layers for i in layer]
        assert sorted(flat) == list(range(len(tree.nodes)))
        for d in range(len(view.layers) - 1):
            concat = [c for i in view.layers[d] for c in tree.nodes[i].children]
            assert concat == view.layers[d + 1]


def test_layer_view_terminal_yield_matches_depth_first(toy_grammar):
    rng = np.random.default_rng(6)
    for _ in range(50):
        tree = sample_tree(toy_grammar, rng=rng)
        view = tb.layer_view(tree)
        by_layer = [
            tree.label(i)
            for layer in view.layers
            for i in layer
            if tree.is_terminal(i)
        ]
        # within a layer, nodes are ordered by parent order; terminals across
        # layers concatenate to the sentence only when read depth-first, so
        # compare against the per-layer-position reading
        assert sorted(by_layer) == sorted(tree.terminal_yield())
    # and the left-to-right reading across all layers of a lexicalized tree
    tree = tb.parse_bracketed(EXAMPLE)
    view = tb.layer_view(tree)
    terminals = [tree.label(i) for layer in view.layers for i in layer if tree.is_terminal(i)]
    assert terminals == tree.terminal_yield()


# ---------------------------------------------------------------------------
# validation


def test_validate_example():
    report = tb.validate(tb.parse_bracketed(EXAMPLE))
    assert (report.depth, report.nonterminal_count, report.terminal_count) == (3, 6, 3)
    assert report.ok


def test_validate_childless_nonterminal():
    tree = tb.Tree([tb.TreeNode("X", False, None)], 0)
    report = tb.validate(tree)
    assert any("zero children" in v for v in report.violations)


def test_validate_two_roots():
    nodes = [tb.TreeNode("X", False, None), tb.TreeNode("Y", True, None)]
    nodes[0].children = []
    report = tb.validate(tb.Tree(nodes, 0))
    assert any("one root" in v for v in report.violations)


def test_validate_terminal_with_children():
    nodes = [tb.TreeNode("X", True, None), tb.TreeNode("a", True, 0)]
    nodes[0].children = [1]
    report = tb.validate(tb.Tree(nodes, 0))
    assert any("terminal with children" in v for v in report.violations)


# ---------------------------------------------------------------------------
# linearization


def test_linearize_example_tokens():
    tree = tb.parse_bracketed(EXAMPLE)
    tokens = tb.linearize_brackets(tree)
    assert tokens == ["(S", "(NP", "(DT", "the", ")", "(NN", "cat", ")", ")",
                      "(VP", "(VBD", "sat", ")", ")", ")"]
    assert len(tokens) == 15


def test_linearize_single():
    assert tb.linearize_brackets(tb.parse_bracketed("(X a)")) == ["(X", "a", ")"]


def test_linearize_token_count_property(toy_grammar):
    rng = np.random.default_rng(7)
    for _ in range(100):
        tree = sample_tree(toy_grammar, rng=rng)
        tokens = tb.linearize_brackets(tree)
        assert len(tokens) == 2 * tree.nonterminal_count() + tree.terminal_count()


def test_delinearize_round_trip(toy_grammar):
    rng = np.random.default_rng(8)
    for _ in range(100):
        tree = sample_tree(toy_grammar, rng=rng)
        rebuilt = tb.delinearize_brackets(tb.linearize_brackets(tree))
        assert isinstance(rebuilt, tb.Tree)
        assert rebuilt == tree


def test_delinearize_unclosed_open():
    failure = tb.delinearize_brackets(["(S", "(NP", "a", ")"])
    assert isinstance(failure, tb.BracketFailure)
    assert failure.kind == "unclosed_open"


def test_delinearize_first_violation_wins():
    # `(S (NP )` both closes NP empty and leaves S open; the empty close at
    # token 2 comes first in the stream, so it is the reported failure
    failure = tb.delinearize_brackets(["(S", "(NP", ")"])
    assert failure.kind == "empty_constituent"
    assert failure.position == 2


def test_delinearize_unmatched_close_at_position_zero():
    failure = tb.delinearize_brackets([")", "(S", "a", ")"])
    assert isinstance(failure, tb.BracketFailure)
    assert failure.kind == "unmatched_close"
    assert failure.position == 0


def test_delinearize_trailing_tokens():
    failure = tb.delinearize_brackets(["(S", "a", ")", "b"])
    assert failure.kind == "trailing_tokens"
    assert failure.position == 3


def test_delinearize_empty_constituent():
    failure = tb.delinearize_brackets(["(S", ")"])
    assert failure.kind == "empty_constituent"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(["(S", "(NP", ")", "the", "cat", "("]), max_size=12))
def test_delinearize_never_raises(tokens):
    result = tb.delinearize_brackets(tokens)
    assert isinstance(result, (tb.Tree, tb.BracketFailure))


@st.composite
def random_trees(draw):
    labels = st.sampled_from(["A", "B", "C"])
    words = st.sampled_from(["x", "y", "z"])

    def grow(depth):
        if depth >= 3 or draw(st.booleans()):
            return draw(words)
        n = draw(st.integers(1, 3))
        return (draw(labels), [grow(depth + 1) for _ in range(n)])

    nested = (draw(labels), [grow(1) for _ in range(draw(st.integers(1, 3)))])

    def build(builder, parent, item):
        if isinstance(item, str):
            builder.add_child(parent, item, True)
        else:
            idx = builder.add_child(parent, item[0], False)
            for child in item[1]:
                build(builder, idx, child)

    builder = tb.TreeBuilder(nested[0], False)
    for child in nested[1]:
        build(builder, 0, child)
    return builder.build()


@settings(max_examples=80, deadline=None)
@given(random_trees())
def test_text_and_token_round_trips(tree):
    assert tb.parse_bracketed(tb.to_bracketed(tree)) == tree
    assert tb.delinearize_brackets(tb.linearize_brackets(tree)) == tree


# ---------------------------------------------------------------------------
# subtree and files


def test_subtree():
    tree = tb.parse_bracketed(EXAMPLE)
    np_idx = tree.children(tree.root)[0]
    sub = tb.subtree(tree, np_idx)
    assert tb.to_bracketed(sub) == "(NP (DT the) (NN cat))"


def test_treebank_file_round_trip(tmp_path):
    trees = [tb.parse_bracketed(EXAMPLE), tb.parse_bracketed("(X a)")]
    path = tmp_path / "trees.txt"
    tb.write_treebank(path, trees)
    content = path.read_text()
    path.write_text("# a comment\n\n" + content)
    loaded = tb.read_treebank(path)
    assert loaded == trees


def test_treebank_file_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("(X a)\n(Y\n")
    with pytest.raises(tb.ParseError, match="bad.txt:2"):
        tb.read_treebank(path)
