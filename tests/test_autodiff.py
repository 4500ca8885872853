import base64
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdtd import autodiff as ad


def _param(store, name, values):
    t = ad.Tensor(np.asarray(values, dtype=np.float64))
    store.add(name, t)
    return t


# test-local graph ops in plain numpy: a smooth nonlinearity and a full sum,
# to turn any tensor into a scalar loss without ops the program does not use


def _tanh(a):
    out = np.tanh(a.values)

    def bwd(g):
        a.grad += g * (1.0 - out * out)

    return ad.Tensor._wrap(out, (a,), bwd)


def _sum(a):
    def bwd(g):
        a.grad += g

    return ad.Tensor._wrap(np.asarray(a.values.sum()), (a,), bwd)


# ---------------------------------------------------------------------------
# forward fixtures


def test_affine_identity():
    x = ad.Tensor([1.0, 2.0])
    w = ad.Tensor(np.eye(2))
    b = ad.Tensor([0.0, 0.0])
    assert np.array_equal(ad.affine(x, w, b).values, [1.0, 2.0])


def test_shape_mismatch_names_operation():
    with pytest.raises(ad.AutodiffError, match="affine"):
        ad.affine(ad.Tensor([1.0, 2.0, 3.0]), ad.Tensor(np.eye(2)), ad.Tensor([0.0, 0.0]))
    with pytest.raises(ad.AutodiffError, match="matmul"):
        ad.matmul(ad.Tensor([1.0]), ad.Tensor(np.eye(2)))


# ---------------------------------------------------------------------------
# backward fixtures


def test_product_rule():
    x = ad.Tensor([[3.0]])
    y = ad.Tensor([[4.0]])
    loss = ad.gather_sum(ad.matmul(x, y), [0], [0])
    ad.backward(loss)
    assert x.grad[0, 0] == 4.0 and y.grad[0, 0] == 3.0


def test_sum_gradient_all_ones():
    x = ad.Tensor(np.arange(6, dtype=float).reshape(2, 3))
    rows, cols = np.divmod(np.arange(6), 3)
    loss = ad.gather_sum(x, rows, cols)
    assert loss.item() == 15.0
    ad.backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    x = ad.Tensor([1.0, 2.0])
    with pytest.raises(ad.AutodiffError, match="scalar"):
        ad.backward(ad.scale(x, 2.0))


def test_backward_deterministic():
    rng = np.random.default_rng(0)
    store = ad.ParamStore()
    w = store.param("w", (4, 4), rng)
    x = store.param("x", (4,), rng)
    b = store.param("b", (4,), rng)

    def closure():
        return _sum(_tanh(ad.affine(ad.softmax(x), w, b)))

    ad.backward(closure(), store)
    first = {n: t.grad.copy() for n, t in store.items()}
    ad.backward(closure(), store)
    for n, t in store.items():
        assert np.array_equal(first[n], t.grad)


def test_unreachable_tensors_get_zero_grad():
    store = ad.ParamStore()
    x = _param(store, "x", [2.0])
    unused = _param(store, "unused", [[1.0, 2.0]])
    ad.backward(ad.pick(x, 0), store)
    assert np.array_equal(unused.grad, np.zeros((1, 2)))
    assert x.grad[0] == 1.0


# ---------------------------------------------------------------------------
# finite-difference property over the op set


def _fd_case(seed, build):
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    closure = build(store, rng)
    err = ad.gradient_check(closure, store, samples_per_tensor=None, min_magnitude=0.0)
    assert err < 1e-4, f"seed {seed}: finite-difference mismatch {err}"


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000))
def test_elementwise_chain_matches_finite_differences(seed):
    def build(store, rng):
        n = int(rng.integers(1, 7))
        a = store.param("a", (n,), rng)
        b = store.param("b", (n,), rng)

        def closure():
            # both paths through `a` push the loss the same way, so its
            # gradient never cancels to a value below what differences resolve
            t = ad.concat((ad.neg(_tanh(a)), ad.scale(b, 0.7), ad.neg(a)))
            return _sum(_tanh(ad.scale(t, -1.3)))

        return closure

    _fd_case(seed, build)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000))
def test_linear_algebra_ops_match_finite_differences(seed):
    def build(store, rng):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        x = store.param("x", (n,), rng)
        w = store.param("w", (n, m), rng)
        b = store.param("b", (m,), rng)
        mat = store.param("mat", (3, m), rng)

        def closure():
            y = ad.affine(x, w, b)
            scores = ad.matmul(y, mat, transpose_b=True)
            ctx = ad.matmul(ad.softmax(scores), mat)
            stacked = ad.stack_rows((y, ctx))
            return _sum(_tanh(stacked))

        return closure

    _fd_case(seed, build)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000))
def test_softmax_pick_embedding_match_finite_differences(seed):
    def build(store, rng):
        k = int(rng.integers(2, 6))
        e = int(rng.integers(1, 5))
        table = store.param("table", (k, e), rng)
        v = store.param("v", (e,), rng)
        idx = int(rng.integers(k))
        pos = int(rng.integers(e))

        def closure():
            row = ad.embed_row(table, idx)
            lp = ad.log_softmax(ad.concat((row, v)))
            # the 0.5 keeps the log-sum-exp terms from cancelling exactly
            return ad.add_scalars((ad.neg(ad.pick(lp, pos)),
                                   ad.scale(ad.pick(lp, (pos + 1) % (2 * e)), 0.5)))

        return closure

    _fd_case(seed, build)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_gru_chain_matches_finite_differences(seed):
    def build(store, rng):
        in_size = int(rng.integers(1, 5))
        hidden = int(rng.integers(1, 6))
        cell = ad.GruCell(store, "cell", in_size, hidden, rng)
        x1 = store.param("x1", (in_size,), rng)
        x2 = store.param("x2", (in_size,), rng)
        h0 = store.param("h0", (hidden,), rng)

        def closure():
            h = cell.step(x1, h0)
            h = cell.step(x2, h)
            return _sum(_tanh(h))

        return closure

    _fd_case(seed, build)


def test_two_layer_gru_loss_matches_finite_differences():
    # layered GRU with a softmax pick on top, the realistic composite
    rng = np.random.default_rng(7)
    store = ad.ParamStore()
    c1 = ad.GruCell(store, "l1", 3, 5, rng)
    c2 = ad.GruCell(store, "l2", 5, 4, rng)
    head_w = store.param("head_w", (4, 6), rng)
    head_b = store.param("head_b", (6,), rng)
    xs = [store.param(f"x{i}", (3,), rng) for i in range(3)]
    h1 = store.param("h1", (5,), rng)
    h2 = store.param("h2", (4,), rng)

    def closure():
        a, b = h1, h2
        total = []
        for x in xs:
            a = c1.step(x, a)
            b = c2.step(a, b)
            total.append(ad.neg(ad.pick(ad.log_softmax(ad.affine(b, head_w, head_b)), 2)))
        return ad.add_scalars(total)

    err = ad.gradient_check(closure, store, samples_per_tensor=None, min_magnitude=0.0)
    assert err < 1e-4


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000))
def test_row_ops_match_finite_differences(seed):
    # the row-matrix forms the stacked heads and attention use
    def build(store, rng):
        p, n, m, k = (int(v) for v in rng.integers(1, 5, size=4))
        x = store.param("x", (p, n), rng)
        extra = store.param("extra", (p, 2), rng)
        w = store.param("w", (n + 2, m), rng)
        b = store.param("b", (m,), rng)
        mat = store.param("mat", (k, m), rng)
        mask = rng.random((p, m)) < 0.4
        mask[:, int(rng.integers(m))] = False  # one entry of each row stays
        rows = rng.integers(p, size=int(rng.integers(1, 2 * p + 1)))
        live_r, live_c = np.nonzero(~mask)

        def closure():
            y = ad.affine(ad.concat((x, extra)), w, b)
            attn = ad.softmax(ad.matmul(y, mat, transpose_b=True))
            z = ad.matmul(attn, mat)
            lp = ad.log_softmax(ad.scale(z, 1.7), mask=mask)
            sm = ad.softmax(y, mask=mask)
            # softmax gradients mix signs and can cancel to a value below what
            # differences resolve; a linear term steeper than any of them (over
            # the strategy's seeds: |grad| <= 0.65, 0.54, 0.62, 2.2, 13.3)
            # keeps every coordinate's gradient away from zero
            slopes = ((x, 1.0), (extra, 1.0), (w, 1.0), (b, 3.0), (mat, 15.0))
            return ad.add_scalars((
                ad.gather_sum(lp, live_r, live_c),
                ad.scale(ad.gather_sum(ad.take_rows(sm, rows), np.arange(len(rows)),
                                       rows % m), 0.5),
                *(ad.scale(_sum(t), slope) for t, slope in slopes),
            ))

        return closure

    _fd_case(seed, build)


def test_masked_softmax_entries_are_excluded_exactly():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((3, 4))
    mask = np.array([[False, True, False, False],
                     [False, False, False, True],
                     [True, True, False, True]])
    for op, masked_value in ((ad.log_softmax, -np.inf), (ad.softmax, 0.0)):
        a = ad.Tensor(logits.copy())
        out = op(a, mask=mask)
        assert (out.values[mask] == masked_value).all()
        for r in range(3):
            # each row is the op over its unmasked entries alone
            alone = op(ad.Tensor(logits[r][~mask[r]])).values
            assert np.allclose(out.values[r][~mask[r]], alone, rtol=0, atol=1e-15)
        # an upstream gradient on masked entries still gives them exactly 0
        a.grad = np.zeros_like(logits)
        out._backward(rng.standard_normal((3, 4)))
        assert (a.grad[mask] == 0.0).all()
        assert (a.grad[:2][~mask[:2]] != 0.0).all()  # row 2 has one live entry
    assert ad.log_softmax(ad.Tensor([0.3, -1.0]), mask=[True, False]).values[1] == 0.0
    with pytest.raises(ad.AutodiffError, match="mask shape"):
        ad.softmax(ad.Tensor(logits), mask=mask[:2])


def test_one_d_results_unchanged():
    # the 1-d forms compute exactly what the one-vector ops computed before
    # the row-matrix forms were added
    rng = np.random.default_rng(6)
    x, q = rng.standard_normal(5), rng.standard_normal(4)
    w, b, mat = rng.standard_normal((5, 4)), rng.standard_normal(4), rng.standard_normal((3, 4))
    xt, wt, bt = ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)
    y = ad.affine(xt, wt, bt)
    assert np.array_equal(y.values, x @ w + b)
    for t in (xt, wt, bt):
        t.grad = np.zeros_like(t.values)
    y._backward(q)
    assert np.array_equal(xt.grad, w @ q)
    assert np.array_equal(wt.grad, np.outer(x, q))
    assert np.array_equal(bt.grad, q)
    shifted = q - q.max()
    assert np.array_equal(ad.log_softmax(ad.Tensor(q)).values,
                          shifted - math.log(np.exp(shifted).sum()))
    e = np.exp(shifted)
    assert np.array_equal(ad.softmax(ad.Tensor(q)).values, e / e.sum())
    assert np.array_equal(ad.concat((ad.Tensor(x), ad.Tensor(q))).values,
                          np.concatenate((x, q)))
    # matmul against the matrix-vector products it replaced
    scores = ad.matmul(ad.Tensor(q), ad.Tensor(mat), transpose_b=True).values
    assert np.array_equal(scores, mat @ q)
    assert np.array_equal(ad.matmul(ad.Tensor(scores), ad.Tensor(mat)).values, mat.T @ scores)


def test_row_forms_match_one_row_at_a_time():
    rng = np.random.default_rng(8)
    xs, w, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 3)), rng.standard_normal(3)
    rows = ad.log_softmax(ad.affine(ad.Tensor(xs), ad.Tensor(w), ad.Tensor(b))).values
    for r in range(4):
        one = ad.log_softmax(ad.affine(ad.Tensor(xs[r]), ad.Tensor(w), ad.Tensor(b))).values
        assert np.allclose(rows[r], one, rtol=0, atol=1e-14)


def test_gather_and_take_rows_contracts():
    a = ad.Tensor(np.arange(6.0).reshape(3, 2))
    assert ad.gather_sum(a, [2, 0, 2], [1, 0, 1]).item() == 10.0
    a.grad = np.zeros((3, 2))
    ad.gather_sum(a, [2, 0, 2], [1, 0, 1])._backward(np.asarray(1.0))
    assert np.array_equal(a.grad, [[1, 0], [0, 0], [0, 2]])  # repeats accumulate
    assert np.array_equal(ad.take_rows(a, [2, 2, 0]).values, [[4, 5], [4, 5], [0, 1]])
    with pytest.raises(ad.AutodiffError, match="gather_sum"):
        ad.gather_sum(a, [3], [0])
    with pytest.raises(ad.AutodiffError, match="gather_sum"):
        ad.gather_sum(a, [0, 1], [0])
    with pytest.raises(ad.AutodiffError, match="take_rows"):
        ad.take_rows(a, [-1])
    with pytest.raises(ad.AutodiffError, match="concat"):
        ad.concat((a, ad.Tensor(np.zeros((2, 2)))))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40))
def test_log_softmax_normalizes(seed, n):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(scale=10.0, size=n))
    out = ad.log_softmax(x)
    assert abs(np.exp(out.values).sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# optimizers


def test_sgd_single_scalar():
    store = ad.ParamStore()
    w = _param(store, "w", [1.0])
    w.grad = np.array([1.0])
    ad.Sgd(learning_rate=0.1).step(store)
    assert w.values[0] == pytest.approx(0.9, abs=1e-15)
    assert w.grad is None


def test_zero_grads_leave_parameters_unchanged():
    store = ad.ParamStore()
    w = _param(store, "w", [[1.0, -2.0], [0.5, 3.0]])
    before = w.values.copy()
    for opt in (ad.Sgd(0.1), ad.Adam(0.1)):
        w.grad = np.zeros_like(w.values)
        opt.step(store)
        assert np.array_equal(w.values, before)


def test_adam_first_step_matches_hand_recurrence():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g = 0.5
    # independent evaluation of the recurrence
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = 1.0 - lr * m_hat / (math.sqrt(v_hat) + eps)

    store = ad.ParamStore()
    w = _param(store, "w", [1.0])
    w.grad = np.array([g])
    ad.Adam(learning_rate=lr, beta1=b1, beta2=b2, eps=eps).step(store)
    assert w.values[0] == pytest.approx(expected, abs=1e-15)
    # bias-corrected first step has magnitude ~ lr
    assert abs(1.0 - w.values[0]) == pytest.approx(lr, rel=1e-6)


def test_adam_two_steps_match_hand_recurrence():
    lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
    grads = [0.3, -0.8]
    value = 2.0
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        value -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)

    store = ad.ParamStore()
    w = _param(store, "w", [2.0])
    opt = ad.Adam(learning_rate=lr, beta1=b1, beta2=b2, eps=eps)
    for g in grads:
        w.grad = np.array([g])
        opt.step(store)
    assert w.values[0] == pytest.approx(value, abs=1e-14)


def test_missing_grad_is_contract_error():
    store = ad.ParamStore()
    _param(store, "w", [1.0])
    with pytest.raises(ad.AutodiffError, match="missing gradient for 'w'"):
        ad.Adam().step(store)


def test_param_store_rejects_duplicates():
    store = ad.ParamStore()
    t = _param(store, "w", [1.0])
    with pytest.raises(ad.AutodiffError):
        store.add("w", ad.Tensor([2.0]))
    with pytest.raises(ad.AutodiffError):
        store.add("w2", t)


# ---------------------------------------------------------------------------
# gradient_check itself


def test_gradient_check_linear_model_is_exact():
    rng = np.random.default_rng(3)
    store = ad.ParamStore()
    w = store.param("w", (5,), rng)
    x = ad.const(rng.normal(size=(5, 1)))

    def closure():
        return ad.pick(ad.matmul(w, x), 0)

    assert ad.gradient_check(closure, store, samples_per_tensor=None,
                             min_magnitude=0.0) < 1e-9


# ---------------------------------------------------------------------------
# checkpoints


def _random_store(seed):
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    store.param("alpha", (3, 4), rng)
    store.param("beta", (7,), rng)
    store.param("gamma.delta", (2, 2), rng)
    return store


def test_checkpoint_round_trip_bit_exact(tmp_path):
    store = _random_store(11)
    path = tmp_path / "model.ckpt"
    ad.save_params(store, path)
    loaded = ad.load_params(path)
    assert loaded.names() == store.names()
    for name, t in store.items():
        assert np.array_equal(loaded[name].values, t.values), name


def test_checkpoint_header_line():
    text = ad.format_params(_random_store(0))
    assert text.splitlines()[0] == "TDTD-CKPT v2"
    assert text.endswith("\n")


def test_checkpoint_missing_tensor_named():
    store = _random_store(1)
    text = ad.format_params(store)
    expect = {name: t.values.shape for name, t in store.items()}
    expect["extra"] = (2,)
    with pytest.raises(ad.CheckpointError, match="missing tensor 'extra'"):
        ad.parse_params(text, expect_shapes=expect)


def test_checkpoint_wrong_shape_reports_expected_vs_found():
    store = _random_store(2)
    text = ad.format_params(store)
    expect = {name: t.values.shape for name, t in store.items()}
    expect["beta"] = (3, 3)
    with pytest.raises(ad.CheckpointError, match=r"expected shape \(3, 3\), found \(7,\)"):
        ad.parse_params(text, expect_shapes=expect)


def test_checkpoint_malformed_reports_line():
    with pytest.raises(ad.CheckpointError, match="line 1"):
        ad.parse_params("not a checkpoint\n")
    good = ad.format_params(_random_store(3))
    bad = good.replace("alpha 2 3 4", "alpha 2 3 banana")
    with pytest.raises(ad.CheckpointError, match="line 2"):
        ad.parse_params(bad)
    truncated = "\n".join(good.splitlines()[:3]) + "\n"
    with pytest.raises(ad.CheckpointError, match="unexpected end of file"):
        ad.parse_params(truncated)


# bit patterns the float64 round trip must keep: -0.0, the smallest and the
# largest subnormal, +-inf, a signalling NaN, the quiet NaN, a negative NaN
# with a payload
SPECIAL_BITS = np.array([0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
                         0x7FF0000000000000, 0xFFF0000000000000, 0x7FF0000000000001,
                         0x7FF8000000000000, 0xFFF8000000000ABC], dtype=np.uint64)


def _special_store():
    store = ad.ParamStore()
    _param(store, "special", SPECIAL_BITS.view(np.float64).reshape(2, 4))
    _param(store, "scalar", np.float64(-3.25))
    _param(store, "empty", np.zeros((0, 3)))
    _param(store, "plain", np.linspace(-1.0, 1.0, 7))
    return store


def _same_bits(a, b):
    assert a.names() == b.names()
    for name, t in a.items():
        assert b[name].values.shape == t.values.shape, name
        assert b[name].values.tobytes() == t.values.tobytes(), name


def test_checkpoint_v2_special_values_bit_exact():
    store = _special_store()
    text = ad.format_params(store)
    assert text == ad.format_params(store)
    loaded = ad.parse_params(text)
    _same_bits(store, loaded)
    for _, t in loaded.items():
        assert t.values.dtype == np.float64
        assert t.values.flags.writeable and t.values.flags.owndata


def test_checkpoint_v2_layout():
    store = ad.ParamStore()
    _param(store, "w", [[1.0, -0.0]])
    assert ad.format_params(store) == "TDTD-CKPT v2\nw 2 1 2\nAAAAAAAA8D8AAAAAAAAAgA==\nend\n"
    assert ad.parse_params(["TDTD-CKPT v2", "w 2 1 2", "AAAAAAAA8D8AAAAAAAAAgA==", "end"])[
        "w"].values.tobytes() == store["w"].values.tobytes()


# a v1 checkpoint as written before the base64 format, read by the v1 parser
V1_CHECKPOINT = """\
TDTD-CKPT v1
w 2 2 3
1 -0 2.5
4.9406564584124654e-324 inf nan

b 1 2
0.10000000000000001 -7
s 0
-3.25
"""


def test_checkpoint_v1_still_read():
    loaded = ad.parse_params(V1_CHECKPOINT, expect_shapes={"w": (2, 3), "b": (2,), "s": ()})
    assert loaded.names() == ["w", "b", "s"]
    expect_w = np.array([[1.0, -0.0, 2.5], [5e-324, math.inf, math.nan]])
    assert loaded["w"].values.tobytes() == expect_w.tobytes()
    assert loaded["b"].values.tobytes() == np.array([0.1, -7.0]).tobytes()
    assert loaded["s"].values.shape == () and loaded["s"].values == -3.25
    with pytest.raises(ad.CheckpointError, match="unexpected end of file in tensor 'b'"):
        ad.parse_params(V1_CHECKPOINT.split("0.1")[0])


def test_checkpoint_v2_faults_name_line_and_tensor():
    good = ad.format_params(_random_store(4))
    lines = good.splitlines()
    beta_b64 = lines.index("beta 1 7") + 1

    def fails(mutated_lines, pattern):
        with pytest.raises(ad.CheckpointError, match=pattern):
            ad.parse_params("\n".join(mutated_lines) + "\n")

    bad = list(lines)
    bad[beta_b64] = bad[beta_b64][:-4] + "*" + bad[beta_b64][-3:]
    fails(bad, rf"line {beta_b64 + 1}: bad base64 in tensor 'beta'")
    bad[beta_b64] = lines[beta_b64][:-4] + "é" + lines[beta_b64][-3:]
    fails(bad, rf"line {beta_b64 + 1}: bad base64 in tensor 'beta'")
    bad[beta_b64] = lines[beta_b64][:-12]
    fails(bad, rf"line {beta_b64 + 1}: unexpected end of file in tensor 'beta'")
    bad[beta_b64] = base64.b64encode(base64.b64decode(lines[beta_b64]) + bytes(8)).decode()
    fails(bad, rf"line {beta_b64 + 1}: too many values for 'beta'")
    fails(lines[:-1], "unexpected end of file, expected 'end'")
    fails(lines + ["beta 1 7"], "unexpected text after 'end'")
    fails(lines[:-1] + lines[beta_b64 - 1 : beta_b64 + 1] + ["end"], "duplicate tensor 'beta'")
    for header in ("beta 1 x", "beta 1 -7", "beta 2 7"):
        fails(lines[:beta_b64 - 1] + [header] + lines[beta_b64:], rf"line {beta_b64}: malformed")
    expect = {"alpha": (3, 4), "beta": (7,)}
    with pytest.raises(ad.CheckpointError, match="unexpected tensor 'gamma.delta'"):
        ad.parse_params(good, expect_shapes=expect)


def test_checkpoint_v2_cut_at_every_line_boundary():
    lines = ad.format_params(_special_store()).splitlines()
    for k in range(len(lines)):
        with pytest.raises(ad.CheckpointError):
            ad.parse_params("".join(line + "\n" for line in lines[:k]))
    _same_bits(_special_store(), ad.parse_params("\n".join(lines)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_checkpoint_v2_corrupt_base64_char_rejected(data):
    lines = ad.format_params(_random_store(5)).splitlines()
    row = data.draw(st.sampled_from([i for i in range(2, len(lines) - 1, 2)]))
    col = data.draw(st.integers(0, len(lines[row]) - 1))
    char = data.draw(st.sampled_from(list("*!.-_ #\x00é\t")))
    lines[row] = lines[row][:col] + char + lines[row][col + 1 :]
    with pytest.raises(ad.CheckpointError, match=rf"line {row + 1}: bad base64"):
        ad.parse_params("\n".join(lines) + "\n")
