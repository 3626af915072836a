"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed engine providing exactly the differentiable primitives
the segmentation network needs: matrix products, per-point (kernel-size-1)
convolutions fused with their bias, per-row scale and ReLU into one graph
node, sums and products with single-axis broadcasting, scaling, axis means,
the per-row sigmoid scale of the joint head's gate over ``[a, a + b]``, row
gather, grouped max pooling, a fused softmax cross-entropy, and the
discriminative loss's per-row squared L1 hinge.

A convolution takes terms bound to row blocks of its weight, so
``[a, P @ x] · W`` runs as ``a · W_top + P @ (x · W_bot)``, building neither
the concatenation nor the upsampled rows.

Tensors are immutable after construction except for their ``grad`` buffers.
Operations executed while recording is enabled (the default) build a dynamic
graph; ``backward`` on a scalar loss accumulates d(loss)/d(leaf) into the
``grad`` buffer of every reachable leaf with ``requires_grad``.
"""

from __future__ import annotations

import contextlib
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


def _into(op, fresh: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``op(fresh, b)``, written into ``fresh``, an array no other tensor
    holds, when the result has its shape and dtype; otherwise a new array."""
    fits = (np.broadcast_shapes(fresh.shape, b.shape) == fresh.shape
            and np.result_type(fresh, b) == fresh.dtype)
    return op(fresh, b, out=fresh if fits else None)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    for axis in range(len(shape)):
        if shape[axis] == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b with single-axis broadcasting."""
    _check_broadcast(a.shape, b.shape)

    def backprop(g, accum):
        accum(a, _unbroadcast(g, a.shape))
        accum(b, _unbroadcast(g, b.shape))

    return _make(a.values + b.values, (a, b), backprop)


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

    Input (m*group_size, C) -> output (m, C), the ``np.max`` of each group.
    The gradient flows only to the argmax row of each (group, channel); ties
    resolve to the lowest row index. The argmax is taken in backward, so a
    forward without a recorded graph does no more than the max.
    """
    n, c = x.shape
    if group_size <= 0 or n % group_size != 0:
        raise DimensionError(f"row count {n} not divisible by group size {group_size}")
    m = n // group_size
    blocks = x.values.reshape(m, group_size, c)

    def backprop(g, accum):
        arg = blocks.argmax(axis=1)  # (m, C), first max wins
        z = np.zeros((m, group_size, c), dtype=g.dtype)
        np.put_along_axis(z, arg[:, None, :], g[:, None, :], axis=1)
        accum(x, z.reshape(n, c))

    return _make(blocks.max(axis=1), (x,), backprop)


def _conv_terms(x, weight: Tensor) -> list[tuple]:
    """The terms of a convolution input as (P values or None, operand, row
    slices, summed weight rows), one per distinct (P, operand) pair in order
    of first use, checked against the weight."""
    terms = [(x, slice(None))] if isinstance(x, Tensor) else x
    groups: dict[tuple[int, int], tuple] = {}
    for term in terms:
        *left, t, rows = term
        p = left[0] if left else None
        if t.values.ndim != 2 or weight.values[rows].shape[0] != t.shape[1]:
            raise DimensionError(f"channel mismatch: operand {t.shape} vs rows {rows} "
                                 f"of weight {weight.shape}")
        if p is not None and (p.requires_grad or p.values.ndim != 2 or p.shape[1] != t.shape[0]):
            raise DimensionError(f"left matrix {p.shape} (requires_grad={p.requires_grad}) "
                                 f"must be a constant with {t.shape[0]} columns")
        groups.setdefault((id(p), id(t)), (p, t, []))[2].append(rows)
    out = []
    for p, t, blocks in groups.values():
        w = weight.values[blocks[0]]
        for rows in blocks[1:]:
            w = w + weight.values[rows]
        out.append((None if p is None else p.values, t, blocks, w))
    return out


def pointwise_conv(x, weight: Tensor, bias: Tensor, activation: str = "relu",
                   scale: Tensor | None = None) -> Tensor:
    """Per-point shared affine map with optional per-row scale and ReLU, as
    one node: ``relu(s ⊙ Σ_t P_t @ (x_t @ W[rows_t]) + b)``.

    A 1D convolution with kernel size 1: every point (row) is mapped by the
    same (Cin, Cout) weight and (1, Cout) bias. ``x`` is one (N, Cin) tensor,
    mapped by the whole weight, or a sequence of terms ``(x, rows)`` or
    ``(P, x, rows)``: the operand is mapped by the row block ``weight[rows]``
    (a slice), then by the constant left matrix ``P`` if given. Terms on
    consecutive row blocks map the operands' column concatenation, and a
    ``(P, x)`` term maps ``P @ x``, with neither built. Terms that share an
    operand and ``P`` are merged, their row blocks summed; a one-row term is
    added to every row. ``scale`` is an optional (N, 1) factor per row.

    The scale, bias and ReLU are applied in place to the summed products,
    and backward reads the ReLU mask from the output. One tensor ``x`` gives
    the bits of ``relu(add(matmul(x, W), b))`` (subgradient 0 at 0); terms
    equal the composition over the concatenation up to rounding.
    """
    if activation not in ("relu", "none"):
        raise ValueError(f"unknown activation {activation!r}")
    if weight.values.ndim != 2:
        raise DimensionError(f"weight must be 2-D, got {weight.shape}")
    terms = _conv_terms(x, weight)
    lengths = {t.shape[0] if p is None else p.shape[0] for p, t, _, _ in terms}
    n = max(lengths)
    if not lengths <= {1, n}:
        raise DimensionError(f"pointwise_conv terms need equal row counts (or one row), "
                             f"got {sorted(lengths)}")
    _check_broadcast((n, weight.shape[1]), bias.shape)
    if scale is not None and scale.shape != (n, 1):
        raise DimensionError(f"scale must be ({n}, 1), got {scale.shape}")
    parents = tuple(t for _, t, _, _ in terms) + (weight, bias) + (() if scale is None else (scale,))
    keep = scale is not None and scale.requires_grad and _tracks(parents)
    z = None
    for p, t, _, w in terms:
        y = t.values @ w if p is None else p @ (t.values @ w)
        z = y if z is None else _into(np.add, z, y)
    out = z
    if scale is not None:
        out = z * scale.values if keep else _into(np.multiply, z, scale.values)
    out = _into(np.add, out, bias.values)
    relu = activation == "relu"
    if relu:
        # the bits of np.where(pre > 0, pre, 0), NaN and -0.0 included; out > 0
        # then equals pre > 0 everywhere, so backward reads the mask from out
        np.fmax(out, 0, out=out)

    def backprop(g, accum):
        gm = g * (out > 0) if relu else g
        accum(bias, _unbroadcast(gm, bias.shape))
        if scale is not None:
            if keep:
                accum(scale, (gm * z).sum(axis=1, keepdims=True))
            gm = gm * scale.values
        gw = None
        for p, t, blocks, w in terms:
            gy = _unbroadcast(gm, (t.shape[0] if p is None else p.shape[0], gm.shape[1]))
            if p is not None:
                gy = p.T @ gy
            if t.requires_grad:
                accum(t, gy @ w.T)
            if not weight.requires_grad:
                continue
            gt = t.values.T @ gy
            if len(terms) == 1 and blocks == [slice(None)]:
                gw = gt
                continue
            if gw is None:
                gw = np.zeros_like(weight.values)
            for rows in blocks:
                gw[rows] += gt
        if gw is not None:
            accum(weight, gw)

    return _make(out, parents, backprop)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """The logistic function, taking ``exp`` of non-positive arguments only."""
    s = np.empty_like(v)
    pos = v >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    s[~pos] = ev / (1.0 + ev)
    return s


def gate_scale(a: Tensor, b: Tensor) -> Tensor:
    """The per-row gate ``sigmoid(row mean of [a, a + b])`` that scales the
    rows of ``[a, a + b]``, as one (N, 1) node that builds neither ``a + b``
    nor the concatenation: over a's W columns the row mean is
    ``(2·Σa + Σb) / 2W``. ``b`` has a's shape or is one row added to
    every row of ``a``."""
    if a.values.ndim != 2 or b.shape not in (a.shape, (1, a.shape[1])):
        raise DimensionError(f"gate_scale needs b of shape {a.shape} or one row, got {b.shape}")
    width = 2 * a.shape[1]
    s = _sigmoid((2 * a.values.sum(axis=1, keepdims=True)
                  + b.values.sum(axis=1, keepdims=True)) / width)

    def backprop(g, accum):
        gv = g * s * (1.0 - s) / width  # (N, 1): d(loss)/d(row sum) of [a, a + b]
        accum(a, np.broadcast_to(gv + gv, a.shape))
        accum(b, _unbroadcast(np.broadcast_to(gv, a.shape), b.shape))

    return _make(s, (a, b), backprop)


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
