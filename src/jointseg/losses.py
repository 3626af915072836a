"""Training losses: cross-entropy semantics plus a discriminative instance
embedding loss.

The discriminative term is a sum of two hinged penalties over per-instance
mean embeddings: a pull term drawing every embedding to within ``delta_v``
(L1) of its instance mean, and a push term keeping distinct instance means at
least ``2 * delta_d`` apart, normalized over ordered pairs; it is one graph
node over the embeddings. The total training loss is the unweighted sum of
the cross-entropy and discriminative terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad


@dataclass
class LossConfig:
    delta_v: float = 0.5
    delta_d: float = 1.5

    def __post_init__(self):
        if not (np.isfinite(self.delta_d) and self.delta_d > self.delta_v > 0):
            raise ValueError(f"need finite delta_d > delta_v > 0, got {self.delta_v}, {self.delta_d}")


@dataclass
class InstanceGrouping:
    """Per-instance member index lists over the annotated points.

    ``indices`` holds every member in instance order and ``owner`` the
    instance of each entry of ``indices``.
    """

    members: list[np.ndarray]
    indices: np.ndarray = field(init=False, repr=False)
    owner: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.members = [np.asarray(m, dtype=np.int64) for m in self.members]
        for i, m in enumerate(self.members):
            if m.size == 0:
                raise ValueError(f"instance {i} has an empty member list")
        self.indices = np.concatenate(self.members) if self.members else np.empty(0, np.int64)
        if self.indices.size != np.unique(self.indices).size:
            raise ValueError("instance member lists overlap")
        self.owner = np.repeat(np.arange(len(self.members)), [m.size for m in self.members])

    @property
    def num_instances(self) -> int:
        return len(self.members)

    @classmethod
    def from_labels(cls, instance_ids: np.ndarray) -> "InstanceGrouping":
        """Group point indices by instance id; negative ids are unannotated
        and excluded."""
        ids = np.asarray(instance_ids)
        return cls([np.flatnonzero(ids == u) for u in np.unique(ids) if u >= 0])


class DiscriminativeLossTerms(NamedTuple):
    total: ad.Tensor
    pull: ad.Tensor
    push: ad.Tensor


def _l1_hinge_squared(a: np.ndarray, b: np.ndarray, margin: float, side: int):
    """Per row, ``h² = relu(side · (Σ_j |a - b| - margin))²`` as (N, 1), and the map
    from its gradient to a's (b's is the negation), with subgradient 0 at kinks."""
    diff = a - b
    sign = np.sign(diff)
    gap = (np.abs(diff).sum(axis=1, keepdims=True) + (-margin)) * side
    mask = gap > 0
    h = np.where(mask, gap, 0)

    def grad(g):
        gh = g * h
        return (gh + gh) * mask * side * sign  # the square's two product-rule terms

    return h * h, grad


def discriminative_loss(embeddings: ad.Tensor, grouping: InstanceGrouping,
                        cfg: LossConfig) -> DiscriminativeLossTerms:
    """Pull/push embedding loss over the given instance grouping.

    Pull averages the per-point squared hinge within each instance and then
    over instances; push averages squared hinges over ordered pairs of
    distinct instance means (zero for a single instance), which equals the
    mean over unordered pairs. All distances are L1. Both terms are zero for
    an empty grouping, as a block without annotated points gives.

    ``total`` is one graph node over the embeddings; ``pull`` and ``push``
    are constants. The means are an (m, N_a) averaging matrix times the N_a
    annotated rows, pull is weights 1 / (m * N_i) times the squared hinges,
    and push sums the m(m-1)/2 pair hinges over max(pairs, 1). Backward sums
    the means' gradient over pull, first and second pair as a graph would.
    """
    m = grouping.num_instances
    if m == 0:
        zero = ad.Tensor(np.zeros((1, 1), dtype=embeddings.dtype))
        return DiscriminativeLossTerms(total=zero, pull=zero, push=zero)
    idx = ad._row_index(embeddings, grouping.indices)
    owner = grouping.owner
    sizes = np.bincount(owner, minlength=m)
    averaging = np.zeros((m, owner.size), dtype=embeddings.dtype)
    averaging[owner, np.arange(owner.size)] = 1.0 / sizes[owner]
    weights = (1.0 / (m * sizes[owner]))[None, :].astype(embeddings.dtype)  # (1, N_a)
    first, second = np.triu_indices(m, 1)
    pairs = max(first.size, 1)

    points = embeddings.values[idx]                                # (N_a, K)
    means = averaging @ points                                     # (m, K)
    pull_h, pull_grad = _l1_hinge_squared(means[owner], points, cfg.delta_v, 1)
    push_h, push_grad = _l1_hinge_squared(means[first], means[second], 2 * cfg.delta_d, -1)
    pull = weights @ pull_h
    push = push_h.sum(axis=0, keepdims=True) / pairs

    def backprop(g, accum):
        g_pull, g_pair = pull_grad(weights.T @ g), push_grad(g / pairs)
        g_means = (ad._scatter_rows(g_pull, owner, m) + ad._scatter_rows(g_pair, first, m)
                   + ad._scatter_rows(-g_pair, second, m))
        accum(embeddings, ad._scatter_rows(averaging.T @ g_means - g_pull, idx, embeddings.shape[0]))

    total = ad._make(pull + push, (embeddings,), backprop)
    return DiscriminativeLossTerms(total=total, pull=ad.Tensor(pull), push=ad.Tensor(push))


def total_loss(logits: ad.Tensor, semantic_labels: np.ndarray,
               embeddings: ad.Tensor, grouping: InstanceGrouping,
               cfg: LossConfig) -> ad.Tensor:
    """Cross-entropy over all points plus the discriminative embedding loss."""
    ce = ad.softmax_cross_entropy(logits, semantic_labels)
    disc = discriminative_loss(embeddings, grouping, cfg)
    return ad.add(ce, disc.total)
