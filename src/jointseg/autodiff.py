"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed engine providing exactly the differentiable primitives
the segmentation network needs: matrix products, per-point (kernel-size-1)
convolutions of one input or a tuple of inputs fused with their column
concatenation, bias and ReLU into one graph node, sums (of one input or a
tuple of inputs taken as their concatenated columns) and products with
single-axis broadcasting, scaling, axis means, the sigmoid gate of the joint
head, row gather/scatter, grouped max pooling, a fused softmax
cross-entropy, and the discriminative loss's per-row squared L1 hinge.

Tensors are immutable after construction except for their ``grad`` buffers.
Operations executed while recording is enabled (the default) build a dynamic
graph; ``backward`` on a scalar loss accumulates d(loss)/d(leaf) into the
``grad`` buffer of every reachable leaf with ``requires_grad``.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(RuntimeError):
    """A graph-level contract was violated (e.g. backward on a non-scalar)."""


_RECORDING = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block. Forward values are unchanged."""
    global _RECORDING
    prev = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = prev


class Tensor:
    """A dense float array plus an optional position in the operation graph.

    Leaves are created directly from data; interior nodes are created by the
    operation functions below and remember how to push gradients to their
    parents. ``grad`` stays ``None`` until a backward pass reaches the tensor,
    and accumulates across backward passes until ``zero_grad``.
    """

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backprop")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        arr = np.asarray(values, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backprop = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        if self.values.size != 1:
            raise GraphError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def _tracks(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op over ``parents`` is recorded: gradients can flow through it."""
    return _RECORDING and any(p.requires_grad for p in parents)


def _make(values: np.ndarray, parents: tuple[Tensor, ...], backprop) -> Tensor:
    """Wrap an op result, recording parents only when gradients can flow."""
    track = _tracks(parents)
    out = Tensor(values, requires_grad=track)
    if track:
        out._parents = parents
        out._backprop = backprop
    return out


def graph_nodes(root: Tensor) -> list[Tensor]:
    """The recorded graph below ``root`` in topological order (parents first)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Reverse accumulation of d(loss)/d(leaf) into leaf ``grad`` buffers.

    ``loss`` must be a scalar. Repeated calls without ``zero_grad`` keep
    accumulating, so the gradient of a sum of losses equals the sum of the
    separate gradients.
    """
    if loss.values.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = graph_nodes(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}

    def accum(t: Tensor, g: np.ndarray) -> None:
        if not t.requires_grad:
            return
        key = id(t)
        if key in grads:
            grads[key] = grads[key] + g
        else:
            grads[key] = g

    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backprop is not None:
            node._backprop(g, accum)
        elif node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.values)
            node.grad += g


# ---------------------------------------------------------------------------
# broadcasting helpers (single-axis only)

def _check_broadcast(sa: tuple[int, ...], sb: tuple[int, ...]) -> None:
    if sa == sb:
        return
    if len(sa) == len(sb):
        diff = [i for i in range(len(sa)) if sa[i] != sb[i]]
        if len(diff) == 1 and (sa[diff[0]] == 1 or sb[diff[0]] == 1):
            return
    raise DimensionError(f"shapes {sa} and {sb} are not equal or single-axis broadcastable")


def _add_into(fresh: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``fresh + b``, written into ``fresh``, an array no other tensor holds,
    when the sum has its shape and dtype; otherwise a new array."""
    fits = (np.broadcast_shapes(fresh.shape, b.shape) == fresh.shape
            and np.result_type(fresh, b) == fresh.dtype)
    return np.add(fresh, b, out=fresh if fits else None)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    for axis in range(len(shape)):
        if shape[axis] == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor | tuple[Tensor, ...], b: Tensor) -> Tensor:
    """a + b over 2-D operands with single-axis broadcasting, as one node.

    A tuple ``a`` is taken as its columns concatenated in order, and the sum
    is written into that fresh concatenation when it fits. Values and
    gradients equal those of ``add(concat(a), b)`` bit for bit.
    """
    parts = a if isinstance(a, tuple) else (a,)
    av = _columns(parts, "add")
    _check_broadcast(av.shape, b.shape)
    shape = av.shape

    def backprop(g, accum):
        _split_columns(_unbroadcast(g, shape), parts, accum)
        accum(b, _unbroadcast(g, b.shape))

    out = _add_into(av, b.values) if len(parts) > 1 else av + b.values
    return _make(out, parts + (b,), backprop)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    out = a.values * b.values
    av, bv = a.values, b.values

    def backprop(g, accum):
        if a.requires_grad:
            accum(a, _unbroadcast(g * bv, a.shape))
        if b.requires_grad:
            accum(b, _unbroadcast(g * av, b.shape))

    return _make(out, (a, b), backprop)


def mul_scalar(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backprop(g, accum):
        accum(x, g * c)

    return _make(x.values * c, (x,), backprop)


def l1_hinge_squared(a: Tensor, b: Tensor, margin: float, below: bool = False) -> Tensor:
    """Per row, the squared hinge ``relu(±(Σ_j |a - b| - margin))²`` as one
    (N, 1) node.

    ``below=False`` penalizes L1 distances above the margin (the pull term of
    the discriminative loss), ``below=True`` the shortfall below it (push).
    Values and gradients equal those of the composition sub, absolute, row
    sum, margin shift, (negation), ReLU and square bit for bit; the hinge and
    the absolute value take subgradient 0 at their kinks.
    """
    if a.values.ndim != 2 or a.shape != b.shape:
        raise DimensionError(f"l1_hinge_squared needs equal 2-D shapes, got {a.shape} and {b.shape}")
    diff = a.values - b.values
    sign = np.sign(diff)
    gap = np.abs(diff).sum(axis=1, keepdims=True) + (-margin)
    if below:
        gap = -gap
    mask = gap > 0
    h = np.where(mask, gap, 0)
    shape = a.shape

    def backprop(g, accum):
        gh = g * h
        gh = (gh + gh) * mask  # the square's two product-rule terms, summed as a mul node would
        gd = np.broadcast_to(-gh if below else gh, shape) * sign
        accum(a, gd)
        accum(b, -gd)

    return _make(h * h, (a, b), backprop)


# ---------------------------------------------------------------------------
# linear algebra and structure ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    out = a.values @ b.values
    av, bv = a.values, b.values

    def backprop(g, accum):
        if a.requires_grad:
            accum(a, g @ bv.T)
        if b.requires_grad:
            accum(b, av.T @ g)

    return _make(out, (a, b), backprop)


def reduce_mean(x: Tensor, axis: int) -> Tensor:
    if not 0 <= axis < x.values.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {x.shape}")
    n = x.shape[axis]
    out = x.values.mean(axis=axis, keepdims=True)
    shape = x.shape

    def backprop(g, accum):
        accum(x, np.broadcast_to(g / n, shape))

    return _make(out, (x,), backprop)


def _columns(parts: tuple[Tensor, ...], op: str) -> np.ndarray:
    """Column-wise concatenation of 2-D operands; one operand is used as is."""
    if any(p.values.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
        raise DimensionError(f"{op} needs 2-D operands with equal row counts, got {[p.shape for p in parts]}")
    return parts[0].values if len(parts) == 1 else np.concatenate([p.values for p in parts], axis=1)


def _split_columns(g: np.ndarray, parts: tuple[Tensor, ...], accum) -> None:
    """Backward of ``_columns``: each operand takes its column view of g, in order."""
    for p, stop in zip(parts, itertools.accumulate(p.shape[1] for p in parts)):
        accum(p, g[:, stop - p.shape[1]:stop])


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows by index; backward scatter-adds into the source rows."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if x.values.ndim != 2:
        raise DimensionError(f"gather_rows needs a 2-D tensor, got {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise DimensionError(f"row index out of range for {x.shape[0]} rows")
    out = x.values[idx]
    shape = x.shape

    def backprop(g, accum):
        z = np.zeros(shape, dtype=g.dtype)
        np.add.at(z, idx, g)
        accum(x, z)

    return _make(out, (x,), backprop)


def rowmax_pool(x: Tensor, group_size: int) -> Tensor:
    """Max over each contiguous group of ``group_size`` rows.

    Input (m*group_size, C) -> output (m, C). The gradient flows only to the
    argmax row of each (group, channel); ties resolve to the lowest row index.
    """
    n, c = x.shape
    if group_size <= 0 or n % group_size != 0:
        raise DimensionError(f"row count {n} not divisible by group size {group_size}")
    m = n // group_size
    blocks = x.values.reshape(m, group_size, c)
    arg = blocks.argmax(axis=1)  # (m, C), first max wins
    out = np.take_along_axis(blocks, arg[:, None, :], axis=1)[:, 0, :]

    def backprop(g, accum):
        z = np.zeros((m, group_size, c), dtype=g.dtype)
        np.put_along_axis(z, arg[:, None, :], g[:, None, :], axis=1)
        accum(x, z.reshape(n, c))

    return _make(out, (x,), backprop)


def pointwise_conv(x: Tensor | tuple[Tensor, ...], weight: Tensor, bias: Tensor,
                   activation: str = "relu") -> Tensor:
    """Per-point shared affine map x @ W + b with optional ReLU, as one node.

    This is a 1D convolution with kernel size 1: every point (row) is mapped
    by the same (Cin, Cout) weight and (1, Cout) bias; a tuple ``x`` is taken
    as its columns concatenated in order. The bias and the ReLU are applied in
    place to the product, and backward reads the ReLU mask from the output.
    Values and gradients equal those of ``relu(add(matmul(concat(x), W), b))``
    bit for bit (subgradient 0 at 0).
    """
    if activation not in ("relu", "none"):
        raise ValueError(f"unknown activation {activation!r}")
    parts = x if isinstance(x, tuple) else (x,)
    xv, wv = _columns(parts, "pointwise_conv"), weight.values
    if weight.values.ndim != 2 or xv.shape[1] != weight.shape[0]:
        raise DimensionError(f"channel mismatch: input {xv.shape} vs weight {weight.shape}")
    _check_broadcast((xv.shape[0], weight.shape[1]), bias.shape)
    relu = activation == "relu"
    out = _add_into(xv @ wv, bias.values)
    if relu:
        # the bits of np.where(pre > 0, pre, 0), NaN and -0.0 included; out > 0
        # then equals pre > 0 everywhere, so backward reads the mask from out
        np.fmax(out, 0, out=out)

    def backprop(g, accum):
        gm = g * (out > 0) if relu else g
        if any(p.requires_grad for p in parts):
            _split_columns(gm @ wv.T, parts, accum)
        if weight.requires_grad:
            accum(weight, xv.T @ gm)
        accum(bias, _unbroadcast(gm, bias.shape))

    return _make(out, parts + (weight, bias), backprop)


def gate(a: Tensor, b: Tensor) -> Tensor:
    """``[a, b] · sigmoid(row mean of [a, b])`` as one node; values and
    gradients equal those of concat, reduce_mean over axis 1, sigmoid and mul
    bit for bit. Without a recorded graph the product is written into the
    fresh concatenation, which backward would otherwise read."""
    cat = _columns((a, b), "gate")
    v = cat.mean(axis=1, keepdims=True)
    s = np.empty_like(v)
    pos = v >= 0  # exp of a non-positive argument only, either side
    s[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    s[~pos] = ev / (1.0 + ev)

    def backprop(g, accum):
        gs = (g * cat).sum(axis=1, keepdims=True)
        _split_columns(g * s + gs * s * (1.0 - s) / cat.shape[1], (a, b), accum)

    return _make(np.multiply(cat, s, out=None if _tracks((a, b)) else cat), (a, b), backprop)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over rows of -log softmax(logits)[label], stabilized by max shift."""
    lab = np.asarray(labels, dtype=np.int64).ravel()
    if logits.values.ndim != 2:
        raise DimensionError(f"logits must be (N, C), got {logits.shape}")
    n, c = logits.shape
    if lab.shape[0] != n:
        raise DimensionError(f"{n} rows of logits but {lab.shape[0]} labels")
    if lab.size and (lab.min() < 0 or lab.max() >= c):
        raise ValueError(f"label out of range [0, {c})")
    z = logits.values - logits.values.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), lab].mean()
    out = np.array([[loss]], dtype=logits.dtype)
    probs = np.exp(log_probs)

    def backprop(g, accum):
        gl = probs.copy()
        gl[np.arange(n), lab] -= 1.0
        accum(logits, gl * (float(np.reshape(g, ())) / n))

    return _make(out, (logits,), backprop)


# ---------------------------------------------------------------------------
# parameters

class Parameter(Tensor):
    """A named trainable leaf tensor."""

    __slots__ = ("name",)

    def __init__(self, name: str, values: np.ndarray):
        super().__init__(values, requires_grad=True)
        self.name = name

    def assign(self, values: np.ndarray) -> None:
        arr = np.asarray(values)
        if arr.shape != self.shape:
            raise DimensionError(f"parameter {self.name}: cannot assign shape {arr.shape} to {self.shape}")
        self.values = arr.astype(self.dtype)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def he_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """Fan-in scaled uniform init, suited to ReLU layers."""
    bound = math.sqrt(6.0 / max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)
