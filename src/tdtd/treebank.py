"""Constituency trees: bracketed I/O, depth-layer views, bracket linearisation.

Trees are stored flat: a node array with parent/children indices plus a root
index.  They are treated as immutable once built (build with TreeBuilder or
parse_bracketed) and are safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Tree",
    "TreeBuilder",
    "TreeNode",
    "LayerView",
    "ValidationReport",
    "BracketFailure",
    "ParseError",
    "parse_bracketed",
    "to_bracketed",
    "layer_view",
    "validate",
    "linearize_brackets",
    "delinearize_brackets",
    "subtree",
    "read_treebank",
    "write_treebank",
]


class ParseError(ValueError):
    """Bracketed-text parse failure; `offset` is a character position."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass
class TreeNode:
    label: str
    terminal: bool
    parent: int | None
    children: list[int] = field(default_factory=list)


class Tree:
    """Ordered labeled tree; terminals are words, internal nodes are tags."""

    __slots__ = ("nodes", "root")

    def __init__(self, nodes, root=0):
        self.nodes = nodes
        self.root = root

    def label(self, i):
        return self.nodes[i].label

    def is_terminal(self, i):
        return self.nodes[i].terminal

    def children(self, i):
        return self.nodes[i].children

    def __len__(self):
        return len(self.nodes)

    def terminal_yield(self):
        """Words at the leaves, left to right (depth-first order)."""
        words = []
        stack = [self.root]
        while stack:
            i = stack.pop()
            node = self.nodes[i]
            if node.terminal:
                words.append(node.label)
            else:
                stack.extend(reversed(node.children))
        return words

    def nonterminal_count(self):
        return sum(1 for n in self.nodes if not n.terminal)

    def terminal_count(self):
        return sum(1 for n in self.nodes if n.terminal)

    def node_depths(self):
        """Depth per node index; root depth 0."""
        depths = [0] * len(self.nodes)
        stack = [self.root]
        while stack:
            i = stack.pop()
            for c in self.nodes[i].children:
                depths[c] = depths[i] + 1
                stack.append(c)
        return depths

    def depth(self):
        return max(self.node_depths(), default=0)

    def max_layer_width(self):
        return max(len(layer) for layer in layer_view(self).layers)

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return _canonical(self) == _canonical(other)

    def __hash__(self):
        return hash(_canonical(self))

    def __repr__(self):
        return f"Tree({to_bracketed(self)!r})"


def _canonical(tree):
    """Pre-order (label, terminal, child count) per node: equal exactly when
    the trees are, and built without recursion so deep trees compare too."""
    out = []
    stack = [tree.root]
    while stack:
        node = tree.nodes[stack.pop()]
        if node.terminal:
            out.append((node.label, True, 0))
        else:
            out.append((node.label, False, len(node.children)))
            stack.extend(reversed(node.children))
    return tuple(out)


class TreeBuilder:
    """Incremental construction; finish with build()."""

    def __init__(self, root_label, terminal=False):
        self._nodes = [TreeNode(root_label, terminal, None)]

    def add_child(self, parent, label, terminal):
        idx = len(self._nodes)
        self._nodes.append(TreeNode(label, terminal, parent))
        self._nodes[parent].children.append(idx)
        return idx

    def build(self):
        return Tree(self._nodes, 0)


@dataclass
class LayerView:
    """Node indices grouped by depth; layers[d+1] concatenates the children
    of layers[d] in left-to-right parent order."""

    layers: list[list[int]]


def layer_view(tree):
    layers = [[tree.root]]
    while True:
        nxt = []
        for i in layers[-1]:
            nxt.extend(tree.nodes[i].children)
        if not nxt:
            break
        layers.append(nxt)
    return LayerView(layers)


@dataclass
class ValidationReport:
    depth: int
    nonterminal_count: int
    terminal_count: int
    violations: list[str]

    @property
    def ok(self):
        return not self.violations


def _label_ok(label):
    return bool(label) and not any(c in label for c in "() \t\n\r")


def validate(tree):
    """Check structural invariants; violations are data, never raised."""
    violations = []
    n = len(tree.nodes)
    roots = [i for i, node in enumerate(tree.nodes) if node.parent is None]
    if len(roots) != 1:
        violations.append(f"expected exactly one root, found {len(roots)}")
    elif roots[0] != tree.root:
        violations.append(f"root field {tree.root} does not match parentless node {roots[0]}")
    for i, node in enumerate(tree.nodes):
        if not _label_ok(node.label):
            violations.append(f"node {i}: invalid label {node.label!r}")
        if node.terminal and node.children:
            violations.append(f"node {i}: terminal with children")
        if not node.terminal and not node.children:
            violations.append(f"node {i}: nonterminal with zero children")
        for c in node.children:
            if not 0 <= c < n:
                violations.append(f"node {i}: child index {c} out of range")
            elif tree.nodes[c].parent != i:
                violations.append(f"node {i}: child {c} does not point back")
    # reachability (also catches cycles: unreachable nodes show up above as
    # extra roots or here)
    seen = set()
    stack = [tree.root] if 0 <= tree.root < n else []
    while stack:
        i = stack.pop()
        if i in seen:
            violations.append(f"cycle through node {i}")
            break
        seen.add(i)
        stack.extend(c for c in tree.nodes[i].children if 0 <= c < n)
    if len(seen) != n and not any(v.startswith("cycle") for v in violations):
        violations.append(f"{n - len(seen)} node(s) unreachable from root")
    return ValidationReport(
        depth=tree.depth() if len(seen) == n else 0,
        nonterminal_count=tree.nonterminal_count(),
        terminal_count=tree.terminal_count(),
        violations=violations,
    )


def subtree(tree, node):
    """New Tree rooted at `node`."""
    builder = None
    mapping = {}
    order = [node]
    stack = [node]
    while stack:
        i = stack.pop()
        stack.extend(reversed(tree.nodes[i].children))
        if i != node:
            order.append(i)
    # order is depth-first; rebuild preserving child order
    src = tree.nodes[node]
    builder = TreeBuilder(src.label, src.terminal)
    mapping[node] = 0
    for i in order[1:]:
        n = tree.nodes[i]
        mapping[i] = builder.add_child(mapping[n.parent], n.label, n.terminal)
    return builder.build()


# ---------------------------------------------------------------------------
# bracketed text


def parse_bracketed(text):
    """Parse one bracketed expression `(LABEL child child ...)` into a Tree.

    Terminals are bare tokens; whitespace-insensitive.  Raises ParseError
    with a character offset on malformed input.
    """
    n = len(text)
    pos = 0

    def skip_ws(p):
        while p < n and text[p].isspace():
            p += 1
        return p

    def read_atom(p):
        start = p
        while p < n and not text[p].isspace() and text[p] not in "()":
            p += 1
        return text[start:p], p

    pos = skip_ws(pos)
    if pos >= n:
        raise ParseError("empty input", pos)
    if text[pos] != "(":
        raise ParseError(f"expected '(' but found {text[pos]!r}", pos)

    nodes = []
    stack = []  # indices of open nonterminals
    open_offsets = []

    while pos < n:
        pos = skip_ws(pos)
        if pos >= n:
            break
        ch = text[pos]
        if ch == "(":
            open_offset = pos
            pos = skip_ws(pos + 1)
            if pos >= n:
                raise ParseError("unbalanced brackets: unclosed '('", n)
            if text[pos] == ")":
                raise ParseError("empty constituent '()'", pos)
            if text[pos] == "(":
                raise ParseError("constituent is missing a label", pos)
            label, pos = read_atom(pos)
            parent = stack[-1] if stack else None
            idx = len(nodes)
            nodes.append(TreeNode(label, False, parent))
            if parent is not None:
                nodes[parent].children.append(idx)
            stack.append(idx)
            open_offsets.append(open_offset)
        elif ch == ")":
            if not stack:
                raise ParseError("unbalanced brackets: unmatched ')'", pos)
            closing = stack.pop()
            open_offsets.pop()
            if not nodes[closing].children:
                raise ParseError(
                    f"empty constituent ({nodes[closing].label})", pos
                )
            pos += 1
            if not stack:
                rest = skip_ws(pos)
                if rest < n:
                    raise ParseError("trailing content after root constituent", rest)
                break
        else:
            word, pos = read_atom(pos)
            if not stack:
                raise ParseError(f"terminal {word!r} outside any constituent", pos - len(word))
            idx = len(nodes)
            nodes.append(TreeNode(word, True, stack[-1]))
            nodes[stack[-1]].children.append(idx)

    if stack:
        raise ParseError("unbalanced brackets: unclosed '('", n)
    return Tree(nodes, 0)


def to_bracketed(tree):
    """Canonical single-space bracketed form; inverse of parse_bracketed."""
    # iterative to survive deep trees
    out = []
    stack = [("open", tree.root)]
    while stack:
        action, i = stack.pop()
        node = tree.nodes[i]
        if action == "open":
            if node.terminal:
                out.append(node.label)
            else:
                out.append("(" + node.label)
                stack.append(("close", i))
                for c in reversed(node.children):
                    stack.append(("open", c))
        else:
            out[-1] += ")"
    return " ".join(out)


# ---------------------------------------------------------------------------
# bracket-token sequences (for the sequential baseline)

CLOSE_TOKEN = ")"


def linearize_brackets(tree):
    """Depth-first token sequence: `(LABEL` per nonterminal open, the word
    per terminal, `)` per close.  Token count = 2*nonterminals + terminals."""
    tokens = []
    stack = [("open", tree.root)]
    while stack:
        action, i = stack.pop()
        if action == "close":
            tokens.append(CLOSE_TOKEN)
            continue
        node = tree.nodes[i]
        if node.terminal:
            tokens.append(node.label)
        else:
            tokens.append("(" + node.label)
            stack.append(("close", i))
            for c in reversed(node.children):
                stack.append(("open", c))
    return tokens


@dataclass(frozen=True)
class BracketFailure:
    """First structural violation found while rebuilding a tree from tokens."""

    kind: str  # unmatched_close | unclosed_open | empty_constituent |
    #            trailing_tokens | invalid_token | empty_input
    position: int  # token index of the violation (len(tokens) at end of input)
    message: str


def delinearize_brackets(tokens):
    """Rebuild a Tree from linearize_brackets-style tokens.

    Returns a Tree when well-formed, otherwise a BracketFailure describing
    the first violation.  Never raises on malformed input.
    """
    tokens = list(tokens)
    if not tokens:
        return BracketFailure("empty_input", 0, "no tokens")
    nodes = []
    stack = []
    root_done = False
    for pos, tok in enumerate(tokens):
        if root_done:
            return BracketFailure(
                "trailing_tokens", pos, f"token {tok!r} after the root constituent closed"
            )
        if tok == CLOSE_TOKEN:
            if not stack:
                return BracketFailure(
                    "unmatched_close", pos, f"unmatched {CLOSE_TOKEN!r} at position {pos}"
                )
            closing = stack.pop()
            if not nodes[closing].children:
                return BracketFailure(
                    "empty_constituent",
                    pos,
                    f"constituent ({nodes[closing].label}) closed with no children",
                )
            if not stack:
                root_done = True
        elif tok.startswith("("):
            label = tok[1:]
            if not _label_ok(label):
                return BracketFailure(
                    "invalid_token", pos, f"open token {tok!r} has no valid label"
                )
            parent = stack[-1] if stack else None
            idx = len(nodes)
            nodes.append(TreeNode(label, False, parent))
            if parent is not None:
                nodes[parent].children.append(idx)
            stack.append(idx)
        else:
            if not stack:
                return BracketFailure(
                    "invalid_token", pos, f"word {tok!r} outside any constituent"
                )
            if not _label_ok(tok):
                return BracketFailure("invalid_token", pos, f"invalid word token {tok!r}")
            idx = len(nodes)
            nodes.append(TreeNode(tok, True, stack[-1]))
            nodes[stack[-1]].children.append(idx)
    if stack:
        return BracketFailure(
            "unclosed_open",
            len(tokens),
            f"{len(stack)} constituent(s) left open at end of input",
        )
    return Tree(nodes, 0)


# ---------------------------------------------------------------------------
# treebank files: one bracketed tree per line, '#' comments, blanks ignored


def read_treebank(path):
    trees = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                trees.append(parse_bracketed(stripped))
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}", exc.offset) from None
    return trees


def write_treebank(path, trees):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tree in trees:
            fh.write(to_bracketed(tree))
            fh.write("\n")
