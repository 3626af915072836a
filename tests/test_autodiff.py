import contextlib
import math
import zlib

import numpy as np
import pytest

from jointseg import autodiff as ad
from jointseg.layers import Conv1x1
from oracles import (absolute, add_columns, add_scalar, concat, fd_grad, gate_unfused,
                     max_rel_err, neg, pointwise_conv_columns, pointwise_conv_unfused,
                     reduce_sum, relu, sigmoid, sub)


def scalar_loss(out: ad.Tensor, weights: np.ndarray) -> ad.Tensor:
    """Reduce an op output to a scalar with fixed random weights."""
    return reduce_sum(ad.mul(out, ad.Tensor(weights)))


def check_op_grad(build, x0: np.ndarray, seed=0, tol=1e-5):
    """Analytic gradient of sum(build(x) * w) vs central finite differences."""
    rng = np.random.default_rng(seed)
    x0 = x0.astype(np.float64)
    probe = None

    def f(xv):
        out = build(ad.Tensor(xv))
        nonlocal probe
        if probe is None:
            probe = rng.standard_normal(out.shape)
        return scalar_loss(out, probe).item()

    f(x0)  # fix the probe weights
    x = ad.Tensor(x0, requires_grad=True)
    ad.backward(scalar_loss(build(x), probe))
    assert max_rel_err(x.grad, fd_grad(f, x0)) < tol


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    eye = ad.Tensor(np.eye(2))
    assert np.array_equal(ad.matmul(eye, eye).values, np.eye(2))


def test_matmul_hand_case():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([[1.0], [1.0]])
    assert np.array_equal(ad.matmul(a, b).values, [[3.0], [7.0]])


def test_matmul_zero_rows():
    a = ad.Tensor(np.zeros((0, 3)))
    b = ad.Tensor(np.ones((3, 2)))
    assert ad.matmul(a, b).shape == (0, 2)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ad.DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# pointwise conv

def test_pointwise_conv_zero_input_gives_bias():
    w = ad.Tensor(np.ones((3, 2)))
    b = ad.Tensor([[0.5, -1.0]])
    out = ad.pointwise_conv(ad.Tensor(np.zeros((4, 3))), w, b, activation="none")
    assert np.allclose(out.values, np.tile([0.5, -1.0], (4, 1)))


def test_pointwise_conv_identity():
    x = ad.Tensor(np.random.default_rng(0).standard_normal((5, 3)))
    out = ad.pointwise_conv(x, ad.Tensor(np.eye(3)), ad.Tensor(np.zeros((1, 3))), "none")
    assert np.allclose(out.values, x.values)


def test_pointwise_conv_matches_manual_matmul_add():
    rng = np.random.default_rng(1)
    x, w, b = rng.standard_normal((6, 4)), rng.standard_normal((4, 3)), rng.standard_normal((1, 3))
    out = ad.pointwise_conv(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), "relu")
    assert np.allclose(out.values, np.maximum(x @ w + b, 0))


def test_pointwise_conv_channel_mismatch():
    with pytest.raises(ad.DimensionError):
        ad.pointwise_conv(ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros((5, 2))),
                          ad.Tensor(np.zeros((1, 2))))
    with pytest.raises(ad.DimensionError, match=r"\(4, 2\).*\(2, 3\)"):  # bias shape
        ad.pointwise_conv(ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros((3, 2))),
                          ad.Tensor(np.zeros((2, 3))))


def conv_case(dtype, seed=0):
    """x, W, b with integer-valued entries, so many pre-activations are exactly
    0; row 0's are made exactly 0 by its bias."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, (40, 6)).astype(dtype)
    w = rng.integers(-2, 3, (6, 5)).astype(dtype)
    x[1:] += rng.standard_normal((39, 6)).astype(dtype) * (rng.random((39, 1)) < 0.5)
    b = -(x[:1] @ w)
    return x, w, b


@pytest.mark.parametrize("activation", ["relu", "none"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_grad", [True, False])
def test_pointwise_conv_equals_unfused_composition(activation, dtype, x_grad):
    x0, w0, b0 = conv_case(dtype)
    assert (x0 @ w0 + b0 == 0).sum() > 10  # the ReLU kink is exercised
    probe = np.random.default_rng(1).standard_normal((40, 5)).astype(dtype)
    results = []
    for conv in (ad.pointwise_conv, pointwise_conv_unfused):
        x = ad.Tensor(x0, requires_grad=x_grad)
        w, b = ad.Tensor(w0, requires_grad=True), ad.Tensor(b0, requires_grad=True)
        out = conv(x, w, b, activation)
        ad.backward(scalar_loss(out, probe))
        results.append((out.values, x.grad, w.grad, b.grad))
    fused, unfused = results
    assert fused[0].dtype == unfused[0].dtype == dtype
    assert (fused[1] is None) == (unfused[1] is None) == (not x_grad)
    for got, want in zip(fused, unfused):
        assert got is want is None or np.array_equal(got, want)


def special_values(dtype):
    """±0, ±NaN, ±inf, the smallest and largest ± subnormals and ±1.5."""
    tiny = np.finfo(dtype).smallest_subnormal
    big = np.finfo(dtype).smallest_normal - tiny
    v = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, big, -big, 1.5, -1.5],
                 dtype=dtype)
    assert np.signbit(v[3]) and not np.signbit(v[2])  # both NaN signs present
    return v


def bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pointwise_conv_relu_keeps_the_bits_of_where_on_special_values(dtype):
    # the ReLU is np.fmax(out, 0); it must give the bits of
    # np.where(out > 0, out, 0), which maps -0.0 and NaN to +0.0,
    # at every array length (SIMD bodies and scalar tails alike)
    v = special_values(dtype)
    for n in range(1, 3 * len(v) + 1):
        pre = np.resize(v, n)
        got = np.fmax(pre, 0)
        assert got.dtype == dtype
        assert np.array_equal(bits(got), bits(np.where(pre > 0, pre, 0)))
    # Through the node, against the three-node reference with its np.where.
    # The node applies the ReLU in place and backward masks with out > 0, so
    # pre-activations of 0, NaN of both signs, ±inf and ± subnormals (inputs
    # of ±0.0) meet a random upstream gradient, with and without a graph.
    x0 = np.resize(v, 3 * len(v))[:, None]
    w0 = np.ones((1, 4), dtype=dtype)
    b0 = np.full((1, 4), -0.0, dtype=dtype)
    pre = x0 @ w0 + b0
    assert np.signbit(pre[np.isnan(pre)]).any() and not np.signbit(pre[np.isnan(pre)]).all()
    assert {np.inf, -np.inf, 0.0, v[6], -v[6], v[8], -v[8]} <= set(pre.ravel().tolist())
    probe = np.random.default_rng(3).standard_normal((len(x0), 4)).astype(dtype)
    probe[::4] = 0.0
    results = []
    for conv in (ad.pointwise_conv, pointwise_conv_unfused):
        x = ad.Tensor(x0, requires_grad=True)
        w, b = ad.Tensor(w0, requires_grad=True), ad.Tensor(b0, requires_grad=True)
        with np.errstate(invalid="ignore"):  # W's gradient sums NaN and inf inputs
            out = conv(x, w, b, "relu")
            ad.backward(scalar_loss(out, probe))
        with ad.no_grad():
            plain = conv(x, w, b, "relu")
        results.append((out.values, plain.values, x.grad, w.grad, b.grad))
    fused, unfused = results
    for got, want in zip(fused, unfused):
        assert got.dtype == dtype and np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("activation", ["relu", "none"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tuple_pointwise_conv_equals_concat_then_conv(activation, dtype):
    # the oracle's tuple conv, which the concatenating network reference
    # uses; three inputs, the first without gradient, as the relative
    # coordinates of a set-abstraction layer
    x0, w0, b0 = conv_case(dtype)
    cols = ((0, 1), (1, 4), (4, 6))
    probe = np.random.default_rng(1).standard_normal((40, 5)).astype(dtype)
    results = []
    for fused in (True, False):
        xs = [ad.Tensor(x0[:, i:j], requires_grad=k > 0) for k, (i, j) in enumerate(cols)]
        w, b = ad.Tensor(w0, requires_grad=True), ad.Tensor(b0, requires_grad=True)
        x = tuple(xs) if fused else concat(concat(xs[0], xs[1]), xs[2])
        out = pointwise_conv_columns(x, w, b, activation) if fused \
            else ad.pointwise_conv(x, w, b, activation)
        assert (out._parents == (*xs, w, b)) == fused
        ad.backward(scalar_loss(out, probe))
        results.append((out.values, w.grad, b.grad) + tuple(t.grad for t in xs))
    fused, unfused = results
    assert fused[0].dtype == unfused[0].dtype == dtype and fused[3] is None
    assert [g.shape for g in fused[4:]] == [(40, 3), (40, 2)]
    for got, want in zip(fused, unfused):
        assert got is want is None or np.array_equal(got, want)


@pytest.mark.parametrize("activation", ["relu", "none"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_terms_on_row_blocks_equal_concat_then_conv(activation, dtype):
    # three operands on consecutive row blocks; the first carries no
    # gradient, as the relative coordinates of a set-abstraction layer do.
    # The split products round differently from the one over the
    # concatenation, so they agree to a few units of the dtype's rounding.
    x0, w0, b0 = conv_case(dtype)
    cols = ((0, 1), (1, 4), (4, 6))
    probe = np.random.default_rng(1).standard_normal((40, 5)).astype(dtype)
    results = []
    for terms in (True, False):
        xs = [ad.Tensor(x0[:, i:j], requires_grad=k > 0) for k, (i, j) in enumerate(cols)]
        w, b = ad.Tensor(w0, requires_grad=True), ad.Tensor(b0, requires_grad=True)
        x = [(t, slice(i, j)) for t, (i, j) in zip(xs, cols)] if terms \
            else concat(concat(xs[0], xs[1]), xs[2])
        out = ad.pointwise_conv(x, w, b, activation)
        assert (out._parents == (*xs, w, b)) == terms
        ad.backward(scalar_loss(out, probe))
        results.append((out.values, w.grad, b.grad) + tuple(t.grad for t in xs))
    split, whole = results
    assert split[0].dtype == whole[0].dtype == dtype and split[3] is None
    assert [g.shape for g in split[4:]] == [(40, 3), (40, 2)]
    tol = 1e-5 if dtype == np.float32 else 1e-13
    for got, want in zip(split, whole):
        assert got is want is None or (got.dtype == want.dtype and max_rel_err(got, want) < tol)


def test_tuple_pointwise_conv_checks_row_counts_and_channels():
    w, b = ad.Tensor(np.zeros((5, 2))), ad.Tensor(np.zeros((1, 2)))
    with pytest.raises(ad.DimensionError, match="equal row counts"):
        pointwise_conv_columns((ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros((3, 2)))), w, b)
    with pytest.raises(ad.DimensionError, match=r"\(4, 4\).*\(5, 2\)"):
        pointwise_conv_columns((ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros((4, 1)))), w, b)
    x = ad.Tensor(np.ones((4, 5)))
    out = pointwise_conv_columns((x,), ad.Tensor(np.ones((5, 2))), b, "none")
    assert np.array_equal(out.values, np.full((4, 2), 5.0))


def test_conv_terms_check_row_counts_channels_and_shapes():
    w, b = ad.Tensor(np.zeros((5, 2))), ad.Tensor(np.zeros((1, 2)))
    top, bot = slice(0, 3), slice(3, None)
    a = ad.Tensor(np.zeros((4, 3)))
    with pytest.raises(ad.DimensionError, match="equal row counts"):
        ad.pointwise_conv([(a, top), (ad.Tensor(np.zeros((3, 2))), bot)], w, b)
    with pytest.raises(ad.DimensionError, match="equal row counts"):
        ad.pointwise_conv([(a, top), (ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2))),
                                      bot)], w, b)
    with pytest.raises(ad.DimensionError, match=r"\(4, 1\).*\(5, 2\)"):
        ad.pointwise_conv([(a, top), (ad.Tensor(np.zeros((4, 1))), bot)], w, b)
    with pytest.raises(ad.DimensionError, match=r"\(4, 3\).*\(5, 2\)"):
        ad.pointwise_conv(a, w, b)
    with pytest.raises(ad.DimensionError, match="3 columns"):
        ad.pointwise_conv([(a, top), (ad.Tensor(np.zeros((4, 2))), ad.Tensor(np.zeros((3, 2))),
                                      bot)], w, b)
    with pytest.raises(ad.DimensionError, match="constant"):  # gradients do not reach P
        ad.pointwise_conv([(ad.Tensor(np.eye(3), requires_grad=True), a, top),
                           (ad.Tensor(np.zeros((3, 2))), bot)], w, b)
    with pytest.raises(ad.DimensionError, match=r"scale must be \(4, 1\)"):
        ad.pointwise_conv([(a, top), (ad.Tensor(np.zeros((4, 2))), bot)], w, b,
                          scale=ad.Tensor(np.ones((1, 1))))
    for c in (np.zeros((4, 4)), np.zeros((2, 2)), np.zeros((1, 1)), np.zeros(2)):
        with pytest.raises(ad.DimensionError, match="broadcastable"):
            ad.pointwise_conv([(a, top), (ad.Tensor(np.zeros((4, 2))), bot)], w, ad.Tensor(c))
    x = ad.Tensor(np.ones((4, 5)))
    for x_arg in (x, [(x, slice(None))], [(x, slice(0, 5))]):
        out = ad.pointwise_conv(x_arg, ad.Tensor(np.ones((5, 2))), b, "none")
        assert np.array_equal(out.values, np.full((4, 2), 5.0))
    # a one-row term is added to every row; so is a one-row P term
    ones = ad.Tensor(np.ones((4, 3)))
    for term, want in (((ad.Tensor([[0.0, 1.0]]), bot), 4.0),
                       ((ad.Tensor(np.ones((1, 3))), ad.Tensor(np.ones((3, 2))), bot), 9.0)):
        out = ad.pointwise_conv([(ones, top), term], ad.Tensor(np.ones((5, 2))), b, "none")
        assert np.array_equal(out.values, np.full((4, 2), want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_terms_equal_their_explicit_composition(dtype):
    # relu(s ⊙ (a·W[0:3] + P @ (c·W[3:5]) + a·W[2:5] + r·W[0:3]) + b): a plain
    # term, a (P, x) term, a shared operand on a second row block, a one-row
    # term and a per-row scale, against the product of each input built
    # explicitly; the shared operand's row blocks overlap
    rng = np.random.default_rng(13)
    a0, c0, r0 = (rng.standard_normal(s).astype(dtype) for s in ((6, 3), (4, 2), (1, 3)))
    p0 = rng.uniform(0, 1, (6, 4)).astype(dtype)
    w0, b0 = rng.standard_normal((5, 4)).astype(dtype), rng.standard_normal((1, 4)).astype(dtype)
    s0 = rng.uniform(0.1, 1, (6, 1)).astype(dtype)
    probe = rng.standard_normal((6, 4)).astype(dtype)
    results = []
    for terms in (True, False):
        a, c, r, w, b, s = (ad.Tensor(v, requires_grad=True) for v in (a0, c0, r0, w0, b0, s0))
        p = ad.Tensor(p0)
        if terms:
            out = ad.pointwise_conv([(a, slice(0, 3)), (p, c, slice(3, 5)), (a, slice(2, 5)),
                                     (r, slice(0, 3))], w, b, "relu", scale=s)
            assert out._parents == (a, c, r, w, b, s)
        else:
            w_rows = [ad.gather_rows(ad.Tensor(np.eye(5, dtype=dtype)), rows) for rows in
                      (np.arange(3), np.arange(3, 5), np.arange(2, 5))]
            blocks = [ad.matmul(m, w) for m in w_rows]
            pre = ad.add(ad.add(ad.add(ad.matmul(a, blocks[0]),
                                       ad.matmul(ad.matmul(p, c), blocks[1])),
                                ad.matmul(a, blocks[2])), ad.matmul(r, blocks[0]))
            out = relu(ad.add(ad.mul(pre, s), b))
        ad.backward(scalar_loss(out, probe))
        results.append((out.values,) + tuple(t.grad for t in (a, c, r, w, b, s)))
    tol = 1e-5 if dtype == np.float32 else 1e-13
    assert (results[0][0] > 0).any() and (results[0][0] == 0).any()
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert max_rel_err(got, want) < tol


def test_conv1x1_output_is_one_node():
    layer = Conv1x1("c", 3, 4, np.random.default_rng(0))
    x = ad.Tensor(np.ones((5, 3), dtype=np.float32), requires_grad=True)
    out = layer(x)
    assert len(out._parents) == 3
    assert all(p is q for p, q in zip(out._parents, (x, layer.weight, layer.bias)))


# ---------------------------------------------------------------------------
# sigmoid gate

def gate_case(dtype, seed=0):
    """a (N, 3) and b (N, 5), a shifted down in the first 20 rows and b up in
    the next 20, so gate means fall on both sides of 0."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((44, 3)).astype(dtype)
    b = rng.standard_normal((44, 5)).astype(dtype)
    a[:20] -= 2
    b[20:40] += 2
    a[40:], b[40:] = [[1, -1, 2]], [[-2, 0, 0.5, -0.5, 0]]
    return a, b


@pytest.mark.parametrize("b_rows", [44, 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gate_scale_is_the_gate_of_a_beside_a_plus_b(dtype, b_rows):
    # the semantic head gates [f, f + context] with a one-row context; its
    # row sums are summed in another order, so values agree to rounding
    a0, b0 = gate_case(dtype)
    b0 = b0[:b_rows, :3]
    sums = 2 * a0.sum(axis=1) + np.broadcast_to(b0, a0.shape).sum(axis=1)
    assert (sums < 0).any() and (sums > 0).any()  # both branches of the sigmoid
    probe = np.random.default_rng(1).standard_normal((44, 1)).astype(dtype)
    results = []
    for fused in (True, False):
        a, b = ad.Tensor(a0, requires_grad=True), ad.Tensor(b0, requires_grad=True)
        if fused:
            out = ad.gate_scale(a, b)
            assert out._parents == (a, b)
        else:
            out = sigmoid(ad.reduce_mean(concat(a, ad.add(a, b)), axis=1))
        ad.backward(scalar_loss(out, probe))
        results.append((out.values, a.grad, b.grad))
    tol = 1e-6 if dtype == np.float32 else 1e-14
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert max_rel_err(got, want) < tol
    # the scale of the gated rows themselves
    a, b = ad.Tensor(a0), ad.Tensor(b0)
    gated, cat = gate_unfused(a, ad.add(a, b)).values, np.concatenate([a0, a0 + b0], axis=1)
    assert max_rel_err(gated, cat * ad.gate_scale(a, b).values) < tol
    with pytest.raises(ad.DimensionError, match="one row"):
        ad.gate_scale(a, ad.Tensor(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# elementwise

def test_sigmoid_at_zero():
    assert sigmoid(ad.Tensor([[0.0]])).item() == 0.5
    assert ad.gate_scale(ad.Tensor([[1.0, -2.0]]), ad.Tensor([[2.0, 0.0]])).item() == 0.5


def test_add_zero_identity():
    x = np.random.default_rng(2).standard_normal((3, 4))
    out = ad.add(ad.Tensor(x), ad.Tensor(np.zeros((3, 4))))
    assert np.array_equal(out.values, x)


def test_mul_row_broadcast_matches_loop():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 256))
    col = rng.standard_normal((8, 1))
    out = ad.mul(ad.Tensor(a), ad.Tensor(col)).values
    expected = np.empty_like(a)
    for i in range(8):
        for j in range(256):
            expected[i, j] = a[i, j] * col[i, 0]
    assert np.allclose(out, expected)


@pytest.mark.parametrize("c_rows", [40, 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tuple_add_equals_concat_then_add(dtype, c_rows):
    # the oracle's tuple add: the concatenating fusion reference adds the
    # upsampled coarse level to [full, mid_up]
    rng = np.random.default_rng(7)
    a0, b0 = rng.standard_normal((40, 3)).astype(dtype), rng.standard_normal((40, 5)).astype(dtype)
    c0 = rng.standard_normal((c_rows, 8)).astype(dtype)
    probe = rng.standard_normal((40, 8)).astype(dtype)
    results = []
    for fused in (True, False):
        a, b, c = (ad.Tensor(v, requires_grad=True) for v in (a0, b0, c0))
        out = add_columns((a, b), c) if fused else ad.add(concat(a, b), c)
        assert (out._parents == (a, b, c)) == fused
        ad.backward(scalar_loss(out, probe))
        results.append((out.values, a.grad, b.grad, c.grad))
    fused, unfused = results
    assert fused[0].dtype == unfused[0].dtype == dtype
    assert [g.shape for g in fused[1:]] == [(40, 3), (40, 5), (c_rows, 8)]
    for got, want in zip(fused, unfused):
        assert np.array_equal(bits(got), bits(want))


def test_tuple_add_checks_row_counts_and_broadcast():
    a, b = ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros((4, 2)))
    with pytest.raises(ad.DimensionError, match="equal row counts"):
        add_columns((a, ad.Tensor(np.zeros((3, 2)))), ad.Tensor(np.zeros((4, 5))))
    for c in (np.zeros((4, 4)), np.zeros((2, 5)), np.zeros((1, 1)), np.zeros(5)):
        with pytest.raises(ad.DimensionError, match="broadcastable"):
            add_columns((a, b), ad.Tensor(c))
    out = add_columns((a, b), ad.Tensor(np.arange(5.0)[None]))
    assert np.array_equal(out.values, np.tile(np.arange(5.0), (4, 1)))


# ---------------------------------------------------------------------------
# outputs written in place: never into an input

def assert_inputs_kept(tensors, before, out):
    for t, v in zip(tensors, before):
        assert np.array_equal(bits(t.values), bits(v))
        assert not np.shares_memory(out.values, t.values)


@pytest.mark.parametrize("recording", [True, False])
def test_one_part_conv_and_single_operand_add_leave_their_operand_alone(recording):
    # the convolution writes into its fresh products; its operands, left
    # matrices and scale are the caller's arrays
    rng = np.random.default_rng(11)
    x, w, b, s, w3 = (ad.Tensor(rng.standard_normal(shape), requires_grad=True)
                      for shape in ((6, 4), (4, 4), (1, 4), (6, 1), (12, 4)))
    p = ad.Tensor(rng.uniform(0, 1, (6, 6)))
    inputs = (x, w, b, s, w3, p)
    before = [t.values.copy() for t in inputs]
    with contextlib.nullcontext() if recording else ad.no_grad():
        for x_arg in (x, [(x, slice(None))]):
            out = ad.pointwise_conv(x_arg, w, b, "relu")
            assert np.array_equal(out.values, np.fmax(before[0] @ before[1] + before[2], 0))
            assert_inputs_kept(inputs, before, out)
        out = ad.pointwise_conv([(x, slice(0, 4)), (p, x, slice(4, 8)), (x, slice(8, 12))], w3,
                                b, "relu", scale=s)
        assert out.shape == (6, 4)
        assert_inputs_kept(inputs, before, out)
        out = ad.add(x, b)
        assert np.array_equal(out.values, before[0] + before[2])
        assert_inputs_kept(inputs, before, out)


@pytest.mark.parametrize("case", ["concat_is_the_broadcast_row", "concat_narrower_than_b"])
def test_tuple_add_allocates_when_the_sum_does_not_fit_its_concatenation(case):
    rng = np.random.default_rng(12)
    rows, dtype, c_rows = (1, np.float64, 40) if case == "concat_is_the_broadcast_row" \
        else (40, np.float32, 1)
    a0 = rng.standard_normal((rows, 3)).astype(dtype)
    b0 = rng.standard_normal((rows, 5)).astype(dtype)
    c0 = rng.standard_normal((c_rows, 8))
    probe = rng.standard_normal((40, 8))
    results = []
    for fused in (True, False):
        a, b, c = (ad.Tensor(v, requires_grad=True) for v in (a0, b0, c0))
        out = add_columns((a, b), c) if fused else ad.add(concat(a, b), c)
        assert out.shape == (40, 8) and out.dtype == np.float64
        assert_inputs_kept((a, b, c), (a0, b0, c0), out)
        ad.backward(scalar_loss(out, probe))
        results.append((out.values, a.grad, b.grad, c.grad))
    fused, unfused = results
    for got, want in zip(fused, unfused):
        assert np.array_equal(bits(got), bits(want))


def test_broadcast_rejects_two_axis_mismatch():
    with pytest.raises(ad.DimensionError):
        ad.add(ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros((1, 1))))
    with pytest.raises(ad.DimensionError):
        ad.mul(ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros((4, 3))))


# ---------------------------------------------------------------------------
# reductions and concat

def test_reduce_mean_constant():
    out = ad.reduce_mean(ad.Tensor(np.full((4, 3), 2.5)), axis=0)
    assert np.allclose(out.values, 2.5)
    assert out.shape == (1, 3)


def test_reduce_mean_hand_case():
    out = ad.reduce_mean(ad.Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=1)
    assert np.array_equal(out.values, [[2.0], [6.0]])


def test_reduce_mean_axis_out_of_range():
    with pytest.raises(ad.DimensionError):
        ad.reduce_mean(ad.Tensor(np.zeros((2, 2))), axis=2)


def test_concat_with_empty_columns():
    x = np.random.default_rng(5).standard_normal((4, 3))
    out = concat(ad.Tensor(x), ad.Tensor(np.zeros((4, 0))))
    assert np.array_equal(out.values, x)


def test_concat_shape_contract():
    out = concat(ad.Tensor(np.zeros((7, 128))), ad.Tensor(np.zeros((7, 128))))
    assert out.shape == (7, 256)
    with pytest.raises(ad.DimensionError):
        concat(ad.Tensor(np.zeros((7, 2))), ad.Tensor(np.zeros((6, 2))))


def test_concat_gradient_splits_to_inputs():
    rng = np.random.default_rng(6)
    a0, b0 = rng.standard_normal((3, 2)), rng.standard_normal((3, 4))
    probe = rng.standard_normal((3, 6))

    a = ad.Tensor(a0, requires_grad=True)
    b = ad.Tensor(b0, requires_grad=True)
    ad.backward(scalar_loss(concat(a, b), probe))

    fa = fd_grad(lambda v: scalar_loss(concat(ad.Tensor(v), ad.Tensor(b0)), probe).item(), a0)
    fb = fd_grad(lambda v: scalar_loss(concat(ad.Tensor(a0), ad.Tensor(v)), probe).item(), b0)
    assert max_rel_err(a.grad, fa) < 1e-5
    assert max_rel_err(b.grad, fb) < 1e-5


# ---------------------------------------------------------------------------
# backward contracts

def test_backward_sum_gives_ones():
    x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(reduce_sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    x = ad.Tensor([[3.0]], requires_grad=True)
    ad.backward(reduce_sum(ad.mul(x, x)))
    assert np.allclose(x.grad, [[6.0]])


def test_backward_requires_scalar():
    x = ad.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ad.GraphError):
        ad.backward(ad.mul(x, x))


def test_backward_accumulates_linearly():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((3, 3))

    def losses(x):
        return reduce_sum(ad.mul(x, x)), reduce_sum(relu(x))

    x = ad.Tensor(x0, requires_grad=True)
    l1, l2 = losses(x)
    ad.backward(l1)
    ad.backward(l2)  # accumulate without reset

    y = ad.Tensor(x0, requires_grad=True)
    m1, m2 = losses(y)
    ad.backward(ad.add(m1, m2))
    assert np.allclose(x.grad, y.grad)


def test_forward_independent_of_recording():
    rng = np.random.default_rng(8)
    x0, w0 = rng.standard_normal((4, 3)), rng.standard_normal((3, 2))

    def run():
        return relu(ad.matmul(ad.Tensor(x0, requires_grad=True), ad.Tensor(w0))).values

    recorded = run()
    with ad.no_grad():
        plain = run()
    assert np.array_equal(recorded, plain)


def test_topological_order_of_recorded_graph():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.mul(ad.add(x, x), x)
    order = ad.graph_nodes(y)
    pos = {id(t): i for i, t in enumerate(order)}
    for node in order:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


# ---------------------------------------------------------------------------
# softmax cross entropy

def test_cross_entropy_uniform_logits():
    loss = ad.softmax_cross_entropy(ad.Tensor(np.zeros((5, 4))), np.zeros(5, dtype=int))
    assert abs(loss.item() - math.log(4)) < 1e-12


def test_cross_entropy_confident_logits_near_zero():
    logits = np.full((3, 4), -100.0)
    labels = np.array([0, 1, 3])
    logits[np.arange(3), labels] = 100.0
    assert ad.softmax_cross_entropy(ad.Tensor(logits), labels).item() < 1e-12


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((7, 5))
    labels = rng.integers(0, 5, 7)
    loss = ad.softmax_cross_entropy(ad.Tensor(logits), labels).item()
    expected = 0.0
    for i in range(7):
        p = np.exp(logits[i]) / np.exp(logits[i]).sum()
        expected -= math.log(p[labels[i]])
    assert abs(loss - expected / 7) < 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="label out of range"):
        ad.softmax_cross_entropy(ad.Tensor(np.zeros((2, 3))), np.array([0, 3]))


# ---------------------------------------------------------------------------
# gradient checks for every differentiable primitive

PRIMITIVES = {
    "add": lambda x: ad.add(x, ad.Tensor(_const((4, 3), 10))),
    "add_broadcast": lambda x: ad.add(x, ad.Tensor(_const((1, 3), 11))),
    "sub": lambda x: sub(ad.Tensor(_const((4, 3), 12)), x),
    "mul": lambda x: ad.mul(x, ad.Tensor(_const((4, 3), 13))),
    "mul_broadcast": lambda x: ad.mul(x, ad.Tensor(_const((4, 1), 14))),
    "neg": neg,
    "add_scalar": lambda x: add_scalar(x, 0.7),
    "mul_scalar": lambda x: ad.mul_scalar(x, -1.3),
    "relu": relu,
    "sigmoid": sigmoid,
    "absolute": absolute,
    "matmul_left": lambda x: ad.matmul(x, ad.Tensor(_const((3, 2), 15))),
    "matmul_right": lambda x: ad.matmul(ad.Tensor(_const((2, 4), 16)), x),
    "reduce_mean0": lambda x: ad.reduce_mean(x, axis=0),
    "reduce_mean1": lambda x: ad.reduce_mean(x, axis=1),
    "reduce_sum_all": reduce_sum,
    "reduce_sum1": lambda x: reduce_sum(x, axis=1),
    "concat_left": lambda x: concat(x, ad.Tensor(_const((4, 2), 17))),
    "gather": lambda x: ad.gather_rows(x, np.array([2, 0, 0, 3, 1])),
    "rowmax": lambda x: ad.rowmax_pool(x, 2),
    "conv_relu": lambda x: ad.pointwise_conv(
        x, ad.Tensor(_const((3, 2), 18)), ad.Tensor(_const((1, 2), 19)), "relu"),
    "conv_none": lambda x: ad.pointwise_conv(
        x, ad.Tensor(_const((3, 2), 20)), ad.Tensor(_const((1, 2), 21)), "none"),
    "add_tuple_left": lambda x: add_columns((x, ad.Tensor(_const((4, 2), 33))),
                                            ad.Tensor(_const((4, 5), 34))),
    "add_tuple_right": lambda x: add_columns((ad.Tensor(_const((4, 2), 35)), x),
                                             ad.Tensor(_const((1, 5), 36))),
    "add_tuple_both": lambda x: add_columns((x, x), ad.Tensor(_const((4, 6), 37))),
    "conv_tuple_left": lambda x: pointwise_conv_columns(
        (x, ad.Tensor(_const((4, 2), 27))), ad.Tensor(_const((5, 2), 28)),
        ad.Tensor(_const((1, 2), 29)), "relu"),
    "conv_tuple_right": lambda x: pointwise_conv_columns(
        (ad.Tensor(_const((4, 2), 30)), x), ad.Tensor(_const((5, 2), 31)),
        ad.Tensor(_const((1, 2), 32)), "none"),
    "conv_term_left": lambda x: ad.pointwise_conv(
        [(x, slice(0, 3)), (ad.Tensor(_const((4, 2), 27)), slice(3, 5))],
        ad.Tensor(_const((5, 2), 28)), ad.Tensor(_const((1, 2), 29)), "relu"),
    "conv_term_right": lambda x: ad.pointwise_conv(
        [(ad.Tensor(_const((4, 2), 30)), slice(0, 2)), (x, slice(2, 5))],
        ad.Tensor(_const((5, 2), 31)), ad.Tensor(_const((1, 2), 32)), "none"),
    "conv_term_left_matrix": lambda x: ad.pointwise_conv(
        [(ad.Tensor(_const((6, 2), 40)), slice(0, 2)), (ad.Tensor(_const((6, 4), 41)), x, slice(2, 5))],
        ad.Tensor(_const((5, 2), 42)), ad.Tensor(_const((1, 2), 43)), "relu"),
    "conv_term_shared_rows": lambda x: ad.pointwise_conv(
        [(x, slice(0, 3)), (ad.Tensor(_const((4, 1), 44)), slice(3, 4)), (x, slice(1, 4))],
        ad.Tensor(_const((4, 2), 45)), ad.Tensor(_const((1, 2), 46)), "relu"),
    "conv_term_one_row": lambda x: ad.pointwise_conv(
        [(ad.Tensor(_const((6, 2), 47)), slice(0, 2)), (ad.reduce_mean(x, axis=0), slice(2, 5))],
        ad.Tensor(_const((5, 2), 48)), ad.Tensor(_const((1, 2), 49)), "relu"),
    "conv_term_scale": lambda x: ad.pointwise_conv(
        ad.Tensor(_const((4, 3), 50)), ad.Tensor(_const((3, 2), 51)), ad.Tensor(_const((1, 2), 52)),
        "relu", scale=ad.reduce_mean(x, axis=1)),
    "conv_term_scaled_operand": lambda x: ad.pointwise_conv(
        [(x, slice(0, 3)), (ad.Tensor(_const((4, 2), 53)), ad.Tensor(_const((2, 2), 54)), slice(3, 5))],
        ad.Tensor(_const((5, 2), 55)), ad.Tensor(_const((1, 2), 56)), "relu",
        scale=ad.Tensor(_const((4, 1), 57))),
    "conv_term_weight": lambda x: conv_term_weight(x),
    "gate_scale_a": lambda x: ad.gate_scale(x, ad.Tensor(_const((4, 3), 64))),
    "gate_scale_b": lambda x: ad.gate_scale(ad.Tensor(_const((4, 3), 65)), x),
    "gate_scale_b_row": lambda x: ad.gate_scale(ad.Tensor(_const((4, 3), 66)),
                                                ad.reduce_mean(x, axis=0)),
    "gate_scale_both": lambda x: ad.gate_scale(x, x),
}


def _const(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def conv_term_weight(w):
    """A convolution of weight ``w`` (4, 3) whose gradient every term kind
    feeds: a plain term, a (P, x) term, an operand on two overlapping row
    blocks, a one-row term and a per-row scale."""
    shared = ad.Tensor(_const((5, 2), 58))
    return ad.pointwise_conv(
        [(shared, slice(0, 2)), (ad.Tensor(_const((5, 6), 59)), ad.Tensor(_const((6, 2), 60)),
                                 slice(2, 4)),
         (shared, slice(1, 3)), (ad.Tensor(_const((1, 4), 61)), slice(0, 4))],
        w, ad.Tensor(_const((1, 3), 62)), "relu", scale=ad.Tensor(_const((5, 1), 63)))


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradient_matches_finite_differences(name):
    build = PRIMITIVES[name]
    x0 = np.random.default_rng(zlib.crc32(name.encode())).standard_normal((4, 3)) + 0.05
    check_op_grad(build, x0, seed=42)


def test_add_gradient_reaches_broadcast_row():
    # the joint head adds a (1, W) context row to every point's features
    rows = ad.Tensor(_const((6, 5), 22))
    row0 = np.random.default_rng(20).standard_normal((1, 5))
    check_op_grad(lambda x: ad.add(rows, x), row0)
    check_op_grad(lambda x: ad.add(x, rows), row0)


def test_cross_entropy_gradient():
    rng = np.random.default_rng(21)
    x0 = rng.standard_normal((5, 4))
    labels = rng.integers(0, 4, 5)

    def f(xv):
        return ad.softmax_cross_entropy(ad.Tensor(xv), labels).item()

    x = ad.Tensor(x0, requires_grad=True)
    ad.backward(ad.softmax_cross_entropy(x, labels))
    assert max_rel_err(x.grad, fd_grad(f, x0)) < 1e-5


def test_rowmax_gradient_flows_only_to_argmax():
    x0 = np.array([[1.0, 5.0], [3.0, 2.0], [0.0, 7.0], [4.0, 1.0]])
    x = ad.Tensor(x0, requires_grad=True)
    ad.backward(reduce_sum(ad.rowmax_pool(x, 2)))
    assert np.array_equal(x.grad, [[0, 1], [1, 0], [0, 1], [1, 0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rowmax_pool_signed_zeros_and_nan(dtype):
    # groups of 4 rows: mixed-sign zeros, zeros below a positive, NaN among
    # numbers, and two NaNs. The output is each group's np.max with or without
    # a recorded graph, and the gradient goes to the first row equal to it.
    # Only where +0.0 and -0.0 tie for the max can that differ from taking
    # the argmax row's value, in the sign of the zero; the convolutions that
    # feed the pooling in the network end in a ReLU, whose output holds
    # neither -0.0 nor NaN, so there the two agree in every bit.
    nan, z = np.nan, 0.0
    cols = np.array([[-z, z, -z, z], [z, -z, -z, z], [-z, -z, z, -z], [-z, -1.0, 2.0, z],
                     [1.0, nan, 3.0, 2.0], [nan, -nan, 1.0, nan], [-1.0, -z, -2.0, -3.0]]).T
    x0 = np.concatenate([cols, cols[::-1]], axis=0).astype(dtype)  # (8, 7): two groups
    blocks = x0.reshape(2, 4, 7)
    want = blocks.max(axis=1)
    x = ad.Tensor(x0, requires_grad=True)
    recorded = ad.rowmax_pool(x, 4)
    with ad.no_grad():
        plain = ad.rowmax_pool(x, 4)
    assert plain._parents == () and recorded._parents == (x,)
    for out in (recorded, plain):
        assert out.values.dtype == dtype and np.array_equal(bits(out.values), bits(want))
    by_arg = np.take_along_axis(blocks, blocks.argmax(axis=1)[:, None], axis=1)[:, 0]
    same = bits(by_arg) == bits(want)
    assert np.array_equal(by_arg, want, equal_nan=True)
    assert same[:, 3:].all() and (~same).any()  # only the all-zero columns can differ
    ad.backward(reduce_sum(recorded))
    assert np.array_equal(x.grad.reshape(2, 4, 7).argmax(axis=1), blocks.argmax(axis=1))
    assert np.array_equal(x.grad.sum(axis=0), np.full(7, 2.0, dtype))
    # a ReLU convolution's output holds neither -0.0 nor NaN
    relu_out = ad.pointwise_conv(ad.Tensor(x0), ad.Tensor(np.eye(7, dtype=dtype)),
                                 ad.Tensor(np.zeros((1, 7), dtype)), "relu").values
    assert not np.isnan(relu_out).any() and not np.signbit(relu_out).any()
    pooled = relu_out.reshape(2, 4, 7)
    assert np.array_equal(bits(ad.rowmax_pool(ad.Tensor(relu_out), 4).values),
                          bits(np.take_along_axis(pooled, pooled.argmax(axis=1)[:, None],
                                                  axis=1)[:, 0]))


def test_parameter_names_and_init():
    p = ad.Parameter("layer.weight", ad.he_uniform((4, 3), 4, np.random.default_rng(0)))
    assert isinstance(p, ad.Tensor) and p.requires_grad and p.shape == (4, 3)
    with pytest.raises(ad.DimensionError):
        p.assign(np.zeros((3, 4)))
