"""Reverse-mode automatic differentiation on dense float64 arrays.

Every operation returns a Tensor that remembers its parent Tensors and a
closure scattering the output gradient back onto them.  The op set is the
minimum the models need:

* the fused GRU step (GruCell.step) for every recurrence;
* row-matrix forms for the output heads and attention, which score all of
  a tree's decisions at once: affine and matmul over 1-d vectors or (P, n)
  row matrices, concat along the last axis, stack_rows and take_rows;
* last-axis (log-)softmax with an optional mask, and the reductions that
  turn log-probabilities into a score: pick, gather_sum, add_scalars;
* embed_row, neg and scale.

Everything is float64.  backward() is iterative (no recursion limit) and
deterministic: two runs over the same graph produce identical gradients.
"""
from __future__ import annotations

import base64
import math

import numpy as np

__all__ = [
    "AutodiffError",
    "CheckpointError",
    "Tensor",
    "ParamStore",
    "no_grad",
    "backward",
    "gradient_check",
    "Sgd",
    "Adam",
    "GruCell",
    "save_params",
    "load_params",
    "parse_params",
    "format_params",
    "init_uniform",
]


class AutodiffError(ValueError):
    """Shape or contract violation in a graph operation."""


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint file."""


_grad_enabled = True


class no_grad:
    """Context manager: compute values only, build no graph."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """Dense float64 array, optional same-shape gradient, graph links."""

    __slots__ = ("values", "grad", "_parents", "_backward")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._backward = None

    @classmethod
    def _wrap(cls, values, parents=(), backward=None):
        t = cls.__new__(cls)
        t.values = values
        t.grad = None
        t._parents = parents
        t._backward = backward
        return t

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def item(self):
        if self.values.size != 1:
            raise AutodiffError("item(): tensor is not a scalar")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, grad={'set' if self.grad is not None else 'none'})"


def const(values):
    """Leaf tensor that never receives gradient (no graph links)."""
    return Tensor(values)


def _check_vec(t, op):
    if t.values.ndim != 1:
        raise AutodiffError(f"{op}: expected 1-d vector, got shape {tuple(t.shape)}")


# ---------------------------------------------------------------------------
# elementwise and linear ops
#
# The linear ops take a 1-d vector or a row matrix (P, n) whose P rows are
# independent inputs, so a whole tree's decisions go through one product.


def neg(a):
    out = -a.values
    if not _grad_enabled:
        return Tensor._wrap(out)

    def bwd(g):
        a.grad -= g

    return Tensor._wrap(out, (a,), bwd)


def scale(a, c):
    """a * c for a python float c."""
    c = float(c)
    out = a.values * c
    if not _grad_enabled:
        return Tensor._wrap(out)

    def bwd(g):
        a.grad += g * c

    return Tensor._wrap(out, (a,), bwd)


def affine(x, w, b):
    """x @ w + b for x (n,) or (P, n), w (n, m), b (m,)."""
    xv, wv = x.values, w.values
    if wv.ndim != 2 or xv.ndim not in (1, 2) or xv.shape[-1] != wv.shape[0]:
        raise AutodiffError(
            f"affine: x {tuple(x.shape)} incompatible with w {tuple(w.shape)}"
        )
    if b.values.shape != (wv.shape[1],):
        raise AutodiffError(
            f"affine: b {tuple(b.shape)} incompatible with w {tuple(w.shape)}"
        )
    out = xv @ wv + b.values
    if not _grad_enabled:
        return Tensor._wrap(out)

    if xv.ndim == 1:
        def bwd(g):
            x.grad += wv @ g
            w.grad += np.outer(xv, g)
            b.grad += g
    else:
        def bwd(g):
            x.grad += g @ wv.T
            w.grad += xv.T @ g
            b.grad += g.sum(axis=0)

    return Tensor._wrap(out, (x, w, b), bwd)


def matmul(a, b, transpose_b=False):
    """a @ b, or a @ b.T with transpose_b, for a (n,) or (P, n) and a 2-d b."""
    av, bv = a.values, b.values
    bm = bv.T if transpose_b else bv
    if bv.ndim != 2 or av.ndim not in (1, 2) or av.shape[-1] != bm.shape[0]:
        raise AutodiffError(
            f"matmul: a {tuple(a.shape)} incompatible with b {tuple(b.shape)}"
            + (" transposed" if transpose_b else "")
        )
    out = av @ bm
    if not _grad_enabled:
        return Tensor._wrap(out)

    def bwd(g):
        a.grad += g @ bm.T
        gb = np.outer(av, g) if av.ndim == 1 else av.T @ g
        b.grad += gb.T if transpose_b else gb

    return Tensor._wrap(out, (a, b), bwd)


def concat(parts):
    """Concatenate along the last axis: 1-d vectors, or row matrices with
    equal row counts."""
    parts = tuple(parts)
    nd = parts[0].values.ndim
    ok = nd in (1, 2)
    for p in parts:
        ok = ok and p.values.ndim == nd
    if ok and nd == 2:
        ok = len({p.values.shape[0] for p in parts}) == 1
    if not ok:
        raise AutodiffError(
            f"concat: cannot join shapes {[tuple(q.shape) for q in parts]}"
        )
    out = np.concatenate([p.values for p in parts], -1)
    if not _grad_enabled:
        return Tensor._wrap(out)
    sizes = [p.values.shape[-1] for p in parts]

    def bwd(g):
        off = 0
        for p, n in zip(parts, sizes):
            p.grad += g[off : off + n] if nd == 1 else g[:, off : off + n]
            off += n

    return Tensor._wrap(out, parts, bwd)


def stack_rows(rows):
    """Stack 1-d vectors into a (L, d) matrix; a tensor may appear in
    several rows."""
    rows = tuple(rows)
    for r in rows:
        _check_vec(r, "stack_rows")
    out = np.stack([r.values for r in rows])
    if not _grad_enabled:
        return Tensor._wrap(out)

    def bwd(g):
        for i, r in enumerate(rows):
            r.grad += g[i]

    return Tensor._wrap(out, rows, bwd)


def take_rows(a, index):
    """Rows a[index] of a 2-d tensor, for a sequence of row indices."""
    index = np.asarray(index, dtype=np.intp)
    if a.values.ndim != 2 or index.ndim != 1:
        raise AutodiffError("take_rows: expected a 2-d tensor and a 1-d index")
    if index.size and not (0 <= index.min() and index.max() < a.values.shape[0]):
        raise AutodiffError(f"take_rows: index out of range for {a.values.shape[0]} rows")
    out = a.values[index]
    if not _grad_enabled:
        return Tensor._wrap(out)

    def bwd(g):
        np.add.at(a.grad, index, g)

    return Tensor._wrap(out, (a,), bwd)


def embed_row(table, index):
    """Row lookup in a 2-d embedding table."""
    if table.values.ndim != 2:
        raise AutodiffError("embed_row: table must be 2-d")
    index = int(index)
    if not 0 <= index < table.values.shape[0]:
        raise AutodiffError(f"embed_row: index {index} out of range")
    out = table.values[index]
    if not _grad_enabled:
        return Tensor._wrap(out)

    def bwd(g):
        table.grad[index] += g

    return Tensor._wrap(out, (table,), bwd)


# ---------------------------------------------------------------------------
# softmax family, picks, reductions
#
# Both softmaxes work over the last axis and take an optional boolean mask
# of the input's shape: entries where it is True are excluded, so their
# output is -inf (log_softmax) or 0 (softmax) and their gradient exactly 0.


def _masked(values, mask, op):
    """(values with masked entries set to -inf, mask as a bool array)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise AutodiffError(
            f"{op}: mask shape {mask.shape} differs from input {values.shape}"
        )
    return np.where(mask, -np.inf, values), mask


def _log_softmax(x):
    """Log-softmax values over the last axis of a numpy array; -inf entries
    stay -inf.  Also the graph-free heads' normaliser."""
    if x.ndim == 1:
        shifted = x - x.max()
        return shifted - math.log(np.exp(shifted).sum())
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(a, mask=None):
    x = a.values
    if mask is not None:
        x, mask = _masked(x, mask, "log_softmax")
    out = _log_softmax(x)
    if not _grad_enabled:
        return Tensor._wrap(out)

    def bwd(g):
        if mask is not None:
            g = np.where(mask, 0.0, g)
        a.grad += g - np.exp(out) * g.sum(axis=-1, keepdims=True)

    return Tensor._wrap(out, (a,), bwd)


def softmax(a, mask=None):
    x = a.values
    if mask is not None:
        x, mask = _masked(x, mask, "softmax")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    if not _grad_enabled:
        return Tensor._wrap(out)

    def bwd(g):
        if mask is not None:
            g = np.where(mask, 0.0, g)
        a.grad += out * (g - (g * out).sum(axis=-1, keepdims=True))

    return Tensor._wrap(out, (a,), bwd)


def pick(a, index):
    """Scalar a[index]."""
    _check_vec(a, "pick")
    index = int(index)
    if not 0 <= index < a.values.shape[0]:
        raise AutodiffError(f"pick: index {index} out of range")
    out = np.asarray(a.values[index])
    if not _grad_enabled:
        return Tensor._wrap(out)

    def bwd(g):
        a.grad[index] += g

    return Tensor._wrap(out, (a,), bwd)


def gather_sum(a, rows, cols):
    """Scalar sum over k of a[rows[k], cols[k]], for a 2-d tensor."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if a.values.ndim != 2 or rows.ndim != 1 or rows.shape != cols.shape:
        raise AutodiffError("gather_sum: expected a 2-d tensor and equal-length 1-d indices")
    n_rows, n_cols = a.values.shape
    if rows.size and not (0 <= rows.min() and rows.max() < n_rows
                          and 0 <= cols.min() and cols.max() < n_cols):
        raise AutodiffError(f"gather_sum: index out of range for shape {a.values.shape}")
    out = np.asarray(a.values[rows, cols].sum())
    if not _grad_enabled:
        return Tensor._wrap(out)

    def bwd(g):
        np.add.at(a.grad, (rows, cols), g)

    return Tensor._wrap(out, (a,), bwd)


def add_scalars(terms):
    """Sum a list of scalar tensors into one scalar."""
    terms = tuple(terms)
    total = 0.0
    for t in terms:
        if t.values.size != 1:
            raise AutodiffError("add_scalars: non-scalar term")
        total += float(t.values)
    out = np.asarray(total)
    if not _grad_enabled:
        return Tensor._wrap(out)

    def bwd(g):
        for t in terms:
            t.grad += g

    return Tensor._wrap(out, terms, bwd)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents precede children


def backward(loss, store=None):
    """Populate .grad on every tensor reachable from the scalar `loss`.

    Grad fields of reachable tensors are reset, then filled with
    d(loss)/d(tensor).  If `store` is given, its tensors that do not
    participate in the graph get zero gradients, so an optimizer step is
    always well-defined afterwards.
    """
    if loss.values.size != 1:
        raise AutodiffError("backward: loss must be a scalar")
    order = _topo_order(loss)
    for t in order:
        t.grad = np.zeros_like(t.values)
    loss.grad = np.ones_like(loss.values)
    for t in reversed(order):
        if t._backward is not None:
            t._backward(t.grad)
    if store is not None:
        reached = {id(t) for t in order}
        for _, t in store.items():
            if id(t) not in reached:
                t.grad = np.zeros_like(t.values)


# ---------------------------------------------------------------------------
# parameter registry


def init_uniform(rng, shape, fan_in):
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(fan_in)
    return (rng.random(shape) * 2.0 - 1.0) * bound


# passed as a model's rng when every value will be overwritten, so that
# building it draws no random initialisation
_NO_INIT = object()


class ParamStore:
    """Named registry of parameter tensors; each tensor registered once."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}
        self._ids: set[int] = set()

    def add(self, name, tensor):
        if name in self._entries:
            raise AutodiffError(f"parameter name already registered: {name!r}")
        if id(tensor) in self._ids:
            raise AutodiffError(f"tensor already registered under another name: {name!r}")
        self._entries[name] = tensor
        self._ids.add(id(tensor))
        return tensor

    def param(self, name, shape, rng=None, fan_in=None, zero=False):
        """Create, register and return a new parameter tensor.

        Without an rng (or with `zero`, or with _NO_INIT for a model whose
        values are about to be read from a file) the values are zeros.
        """
        shape = tuple(shape)
        if zero or rng is None or rng is _NO_INIT:
            values = np.zeros(shape)
        else:
            if fan_in is None:
                fan_in = shape[0]
            values = init_uniform(rng, shape, fan_in)
        return self.add(name, Tensor(values))

    def __getitem__(self, name):
        return self._entries[name]

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def clear_grads(self):
        for t in self._entries.values():
            t.grad = None

    def global_grad_norm(self):
        sq = 0.0
        for t in self._entries.values():
            if t.grad is not None:
                sq += float((t.grad * t.grad).sum())
        return math.sqrt(sq)

    def clip_grads(self, max_norm):
        norm = self.global_grad_norm()
        if norm > max_norm > 0.0:
            factor = max_norm / norm
            for t in self._entries.values():
                if t.grad is not None:
                    t.grad *= factor
        return norm


# ---------------------------------------------------------------------------
# optimizers


class Sgd:
    """Plain stochastic gradient descent."""

    def __init__(self, learning_rate=0.01):
        self.learning_rate = learning_rate

    def step(self, store):
        for name, t in store.items():
            if t.grad is None:
                raise AutodiffError(f"optimizer step: missing gradient for {name!r}")
            t.values -= self.learning_rate * t.grad
        store.clear_grads()


class Adam:
    """Adam with bias correction; moment state keyed by parameter name."""

    def __init__(self, learning_rate=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, store):
        for name, t in store.items():
            if t.grad is None:
                raise AutodiffError(f"optimizer step: missing gradient for {name!r}")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, t in store.items():
            g = t.grad
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(t.values)
                self._v[name] = np.zeros_like(t.values)
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            t.values -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.eps)
        store.clear_grads()


def make_optimizer(kind, learning_rate):
    if kind == "adam":
        return Adam(learning_rate=learning_rate)
    if kind == "sgd":
        return Sgd(learning_rate=learning_rate)
    raise AutodiffError(f"unknown optimizer: {kind!r}")


# ---------------------------------------------------------------------------
# GRU cell


class GruCell:
    """Single-layer GRU with fused gate weights.

    step(x, h) computes the standard update/reset-gate recurrence:
        z, r = sigmoid([x; h] Wg + bg)
        n    = tanh([x; r*h] Wc + bc)
        h'   = (1 - z) * n + z * h

    The whole step is one graph node with a hand-derived backward; the hot
    loops spend most of their time here.
    """

    def __init__(self, store, prefix, input_size, hidden_size, rng):
        self.input_size = input_size
        self.hidden_size = hidden_size
        total = input_size + hidden_size
        self.wg = store.param(f"{prefix}.wg", (total, 2 * hidden_size), rng)
        self.bg = store.param(f"{prefix}.bg", (2 * hidden_size,), zero=True)
        self.wc = store.param(f"{prefix}.wc", (total, hidden_size), rng)
        self.bc = store.param(f"{prefix}.bc", (hidden_size,), zero=True)

    def step(self, x, h):
        hs = self.hidden_size
        if x.values.shape != (self.input_size,) or h.values.shape != (hs,):
            raise AutodiffError(
                f"gru step: expected x ({self.input_size},) and h ({hs},), got "
                f"{tuple(x.shape)} and {tuple(h.shape)}"
            )
        wg, bg, wc, bc = self.wg, self.bg, self.wc, self.bc
        xh = np.concatenate((x.values, h.values))
        zr = 0.5 * (np.tanh(0.5 * (xh @ wg.values + bg.values)) + 1.0)
        z = zr[:hs]
        r = zr[hs:]
        rh = r * h.values
        xrh = np.concatenate((x.values, rh))
        n = np.tanh(xrh @ wc.values + bc.values)
        out = (1.0 - z) * n + z * h.values
        if not _grad_enabled:
            return Tensor._wrap(out)

        e = self.input_size

        def bwd(g):
            dn = g * (1.0 - z)
            dz = g * (h.values - n)
            dh = g * z
            dc = dn * (1.0 - n * n)
            dxrh = wc.values @ dc
            drh = dxrh[e:]
            dr = drh * h.values
            dh += drh * r
            dzr = np.concatenate((dz * z * (1.0 - z), dr * r * (1.0 - r)))
            dxh = wg.values @ dzr
            dh += dxh[e:]
            x.grad += dxrh[:e] + dxh[:e]
            h.grad += dh
            wg.grad += np.outer(xh, dzr)
            bg.grad += dzr
            wc.grad += np.outer(xrh, dc)
            bc.grad += dc

        return Tensor._wrap(out, (x, h, wg, bg, wc, bc), bwd)


# ---------------------------------------------------------------------------
# gradient checking


def gradient_check(closure, store, eps=1e-5, samples_per_tensor=8, rng=None,
                   min_magnitude=1e-4):
    """Max relative error between backward() and central finite differences.

    `closure` must rebuild the (deterministic) loss graph on every call.  Up
    to `samples_per_tensor` coordinates of each parameter are perturbed; pass
    None to probe every coordinate.  Error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).

    Central differences cannot resolve derivatives below the cancellation
    floor eps_machine*|loss|/(2*eps), so sampling prefers coordinates with
    |analytic| >= min_magnitude; when a tensor has none (e.g. an all-zero
    gradient), its largest-magnitude coordinate is probed instead, which
    keeps exact zeros in the comparison.  Pass min_magnitude=0 to sample
    uniformly.
    """
    loss = closure()
    backward(loss, store)
    analytic = {name: t.grad.copy() for name, t in store.items()}
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for name, t in store.items():
        n = t.values.size
        a_flat = analytic[name].reshape(-1)
        eligible = np.flatnonzero(np.abs(a_flat) >= min_magnitude)
        if eligible.size == 0:
            eligible = np.array([int(np.argmax(np.abs(a_flat)))])
        if samples_per_tensor is None or n <= samples_per_tensor:
            coords = range(n) if min_magnitude == 0 else list(eligible)
        elif eligible.size <= samples_per_tensor:
            coords = list(eligible)
        else:
            coords = sorted(
                rng.choice(eligible, size=samples_per_tensor, replace=False)
            )
        flat = t.values.reshape(-1)
        for j in coords:
            orig = flat[j]
            flat[j] = orig + eps
            with no_grad():
                up = closure().item()
            flat[j] = orig - eps
            with no_grad():
                down = closure().item()
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            err = abs(a_flat[j] - numeric) / max(abs(a_flat[j]), abs(numeric), 1e-8)
            worst = max(worst, err)
    store.clear_grads()
    return worst


# ---------------------------------------------------------------------------
# checkpoint serialization

CHECKPOINT_MAGIC = "TDTD-CKPT v2"
_CHECKPOINT_MAGIC_V1 = "TDTD-CKPT v1"
_CHECKPOINT_END = "end"


def format_params(store):
    """Serialize a ParamStore to checkpoint text.

    Each tensor is a `name ndim d1 d2 ...` header line followed by one line
    of standard base64 over its C-order little-endian float64 bytes, so the
    round trip is bit-exact; a final `end` line marks a complete file.
    """
    lines = [CHECKPOINT_MAGIC]
    for name, t in store.items():
        dims = " ".join(str(d) for d in t.values.shape)
        lines.append(f"{name} {t.values.ndim} {dims}".rstrip())
        raw = np.ascontiguousarray(t.values, "<f8").tobytes()
        lines.append(base64.b64encode(raw).decode("ascii"))
    lines.append(_CHECKPOINT_END)
    return "\n".join(lines) + "\n"


def save_params(store, destination):
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_params(store))


def parse_params(text, expect_shapes=None, first_line=1):
    """Parse checkpoint text (a string, or a list of its lines) into a ParamStore.

    Reads the current `TDTD-CKPT v2` format and the older `TDTD-CKPT v1`
    (decimal values).  Malformed input raises CheckpointError naming the
    line, and the tensor where there is one; `first_line` is the line number
    of the text's first line, for a checkpoint embedded in a larger file.
    With `expect_shapes` (name -> shape tuple), missing tensors, extra
    tensors and shape mismatches raise CheckpointError naming the tensor.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    magic = lines[0].strip() if lines else ""
    if magic == CHECKPOINT_MAGIC:
        tensors = _read_tensors_v2(lines, first_line)
    elif magic == _CHECKPOINT_MAGIC_V1:
        tensors = _read_tensors_v1(lines, first_line)
    else:
        raise CheckpointError(f"line {first_line}: expected header {CHECKPOINT_MAGIC!r}")
    store = ParamStore()
    for lineno, name, shape, values in tensors:
        if name in store:
            raise CheckpointError(f"line {lineno}: duplicate tensor {name!r}")
        if expect_shapes is not None:
            if name not in expect_shapes:
                raise CheckpointError(f"line {lineno}: unexpected tensor {name!r}")
            if tuple(expect_shapes[name]) != shape:
                raise CheckpointError(
                    f"line {lineno}: tensor {name!r}: expected shape "
                    f"{tuple(expect_shapes[name])}, found {shape}"
                )
        store.add(name, Tensor(values))
    if expect_shapes is not None:
        for name in expect_shapes:
            if name not in store:
                raise CheckpointError(f"missing tensor {name!r}")
    return store


def _parse_tensor_header(header, lineno):
    """(name, shape, element count) from a split `name ndim d1 d2 ...` line."""
    if len(header) < 2:
        raise CheckpointError(f"line {lineno}: malformed tensor header")
    name = header[0]
    try:
        ndim = int(header[1])
        shape = tuple(int(d) for d in header[2 : 2 + ndim])
    except ValueError:
        raise CheckpointError(f"line {lineno}: malformed tensor header") from None
    if len(shape) != ndim or len(header) != 2 + ndim or min(shape, default=0) < 0:
        raise CheckpointError(f"line {lineno}: malformed tensor header")
    count = 1
    for d in shape:
        count *= d
    return name, shape, count


def _read_tensors_v2(lines, first_line):
    """Yield (header line number, name, shape, values) from base64 checkpoint lines."""
    n_lines = len(lines)
    last = n_lines - 1 + first_line
    i = 1
    while True:
        if i >= n_lines:
            raise CheckpointError(
                f"line {last}: unexpected end of file, expected {_CHECKPOINT_END!r}"
            )
        lineno = i + first_line
        header = lines[i].split()
        if header == [_CHECKPOINT_END]:
            break
        name, shape, count = _parse_tensor_header(header, lineno)
        if i + 1 >= n_lines:
            raise CheckpointError(
                f"line {last}: unexpected end of file in tensor {name!r}"
            )
        try:
            raw = base64.b64decode(lines[i + 1], validate=True)
        except ValueError:  # binascii.Error, or non-ASCII text
            raise CheckpointError(
                f"line {lineno + 1}: bad base64 in tensor {name!r}"
            ) from None
        if len(raw) < 8 * count:
            raise CheckpointError(
                f"line {lineno + 1}: unexpected end of file in tensor {name!r} "
                f"({len(raw)} of {8 * count} bytes)"
            )
        if len(raw) > 8 * count:
            raise CheckpointError(f"line {lineno + 1}: too many values for {name!r}")
        # astype copies, so the array is writable and owns its data
        values = np.frombuffer(raw, "<f8").reshape(shape).astype(np.float64)
        yield lineno, name, shape, values
        i += 2
    for j in range(i + 1, n_lines):
        if lines[j].strip():
            raise CheckpointError(
                f"line {j + first_line}: unexpected text after {_CHECKPOINT_END!r}"
            )


def _read_tensors_v1(lines, first_line):
    """Yield (header line number, name, shape, values) from decimal checkpoint lines."""
    i = 1
    n_lines = len(lines)
    last = n_lines - 1 + first_line
    while i < n_lines:
        header = lines[i].split()
        if not header:
            i += 1
            continue
        lineno = i + first_line
        name, shape, count = _parse_tensor_header(header, lineno)
        values = np.empty(count)
        got = 0
        i += 1
        while got < count:
            if i >= n_lines:
                raise CheckpointError(
                    f"line {last}: unexpected end of file in tensor {name!r}"
                )
            for tok in lines[i].split():
                if got >= count:
                    raise CheckpointError(f"line {i + first_line}: too many values for {name!r}")
                try:
                    values[got] = float(tok)
                except ValueError:
                    raise CheckpointError(
                        f"line {i + first_line}: bad value {tok!r} in tensor {name!r}"
                    ) from None
                got += 1
            i += 1
        yield lineno, name, shape, values.reshape(shape)


def load_params(source, expect_shapes=None):
    with open(source, "r", encoding="utf-8") as fh:
        return parse_params(fh.read(), expect_shapes)
