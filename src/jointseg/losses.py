"""Training losses: cross-entropy semantics plus a discriminative instance
embedding loss.

The discriminative term is a sum of two hinged penalties over per-instance
mean embeddings: a pull term drawing every embedding to within ``delta_v``
(L1) of its instance mean, and a push term keeping distinct instance means at
least ``2 * delta_d`` apart, normalized over ordered pairs. It is built as one
graph whose size does not depend on the number of instances. The total
training loss is the unweighted sum of the cross-entropy and discriminative
terms.
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
        if not (self.delta_d > self.delta_v > 0):
            raise ValueError(f"need delta_d > delta_v > 0, got {self.delta_v}, {self.delta_d}")


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


def discriminative_loss(embeddings: ad.Tensor, grouping: InstanceGrouping,
                        cfg: LossConfig) -> DiscriminativeLossTerms:
    """Pull/push embedding loss over the given instance grouping.

    Pull averages the per-point squared hinge within each instance and then
    over instances; push averages squared hinges over ordered pairs of
    distinct instance means (zero for a single instance), which equals the
    mean over unordered pairs. All distances are L1.

    The graph has the same nodes for any number of instances above one: the
    means are one product of a constant (m, N_a) averaging matrix with the
    N_a annotated rows, pull is one product of a constant row of weights
    1 / (m * N_i) with the per-point squared hinges, and push is one mean
    over the m(m-1)/2 gathered pairs of means.
    """
    m = grouping.num_instances
    if m < 1:
        raise ValueError("grouping must contain at least one instance")
    dtype = embeddings.dtype
    owner = grouping.owner
    n_a = owner.size
    sizes = np.bincount(owner, minlength=m)

    points = ad.gather_rows(embeddings, grouping.indices)      # (N_a, K)
    averaging = np.zeros((m, n_a), dtype=dtype)
    averaging[owner, np.arange(n_a)] = 1.0 / sizes[owner]
    means = ad.matmul(ad.Tensor(averaging), points)            # (m, K)

    hinges = ad.l1_hinge_squared(ad.gather_rows(means, owner), points, cfg.delta_v)
    weights = (1.0 / (m * sizes[owner]))[None, :].astype(dtype)  # (1, N_a)
    pull = ad.matmul(ad.Tensor(weights), hinges)

    if m == 1:
        push = ad.Tensor(np.zeros((1, 1), dtype=dtype))
    else:
        first, second = np.triu_indices(m, 1)
        hinges = ad.l1_hinge_squared(ad.gather_rows(means, first), ad.gather_rows(means, second),
                                     2 * cfg.delta_d, below=True)  # (m(m-1)/2, 1)
        push = ad.reduce_mean(hinges, axis=0)

    return DiscriminativeLossTerms(total=ad.add(pull, push), pull=pull, push=push)


def total_loss(logits: ad.Tensor, semantic_labels: np.ndarray,
               embeddings: ad.Tensor, grouping: InstanceGrouping,
               cfg: LossConfig) -> ad.Tensor:
    """Cross-entropy over all points plus the discriminative embedding loss."""
    ce = ad.softmax_cross_entropy(logits, semantic_labels)
    disc = discriminative_loss(embeddings, grouping, cfg)
    return ad.add(ce, disc.total)
