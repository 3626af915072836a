"""Joint instance/semantic segmentation head.

Two cross-wired branches sit on top of the fused backbone features. The
instance branch transforms semantic features into the instance space, adds
them to the instance features, gates the concatenated result by a per-point
sigmoid of its feature mean, and maps it to a K-dim embedding. The semantic
branch aggregates the gated instance features into one global context row
(convolution, then mean over points), adds it to every row of the semantic
features by broadcasting, applies the same gating pattern, and maps to class
logits.

Either cross-injection can be disabled: with instance fusion off the
semantic-to-instance transform is replaced by zero, with semantic fusion off
the instance context is a zero row; the heads always run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .layers import Conv1x1, collect_parameters


@dataclass
class JointHeadFeatures:
    """All named intermediates of one forward pass (row count N throughout)."""

    sem_to_ins: ad.Tensor      # (N, W)   transformed semantic features
    ins_fused: ad.Tensor       # (N, W)   instance features + transform
    ins_cat: ad.Tensor         # (N, 2W)  concat of instance and fused features
    ins_gate: ad.Tensor        # (N, 1)   sigmoid of per-point feature mean
    ins_gated: ad.Tensor       # (N, 2W)  gated instance fusion features
    ins_context: ad.Tensor     # (1, W)   global instance context
    sem_cat: ad.Tensor         # (N, 2W)  concat of semantic and context-fused
    sem_gate: ad.Tensor        # (N, 1)
    sem_gated: ad.Tensor       # (N, 2W)
    embeddings: ad.Tensor      # (N, K)
    logits: ad.Tensor          # (N, C)


class JointSegmentationHead:
    """Parameters and forward pass of the joint head.

    ``width`` is the channel count of each incoming feature matrix (128 in
    the full network; tests shrink it). Each gate is a sigmoid of the
    per-point mean over the feature axis; the instance context is the mean
    over the point axis.
    """

    def __init__(self, num_classes: int, embedding_dim: int = 5, width: int = 128,
                 rng: np.random.Generator | None = None, dtype=np.float32,
                 instance_fusion: bool = True, semantic_fusion: bool = True):
        if rng is None:
            rng = np.random.default_rng(0)
        self.width = width
        self.instance_fusion = instance_fusion
        self.semantic_fusion = semantic_fusion
        w = width
        self.sem_to_ins = Conv1x1("joint.sem_to_ins", w, w, rng, dtype, activation="relu")
        self.ins_head1 = Conv1x1("joint.ins_head1", 2 * w, w, rng, dtype, activation="relu")
        self.ins_head2 = Conv1x1("joint.ins_head2", w, embedding_dim, rng, dtype, activation="none")
        self.ins_to_sem = Conv1x1("joint.ins_to_sem", 2 * w, w, rng, dtype, activation="relu")
        self.sem_head1 = Conv1x1("joint.sem_head1", 2 * w, w, rng, dtype, activation="relu")
        self.sem_head2 = Conv1x1("joint.sem_head2", w, num_classes, rng, dtype, activation="none")

    # -- branches -----------------------------------------------------------

    def instance_branch(self, f_sem: ad.Tensor, f_ins: ad.Tensor):
        """Semantic-aware instance embeddings.

        Returns (embeddings, gated fusion features, intermediates dict); the
        gated features also feed the semantic branch.
        """
        self._check_inputs(f_sem, f_ins)
        if self.instance_fusion:
            sem_t = self.sem_to_ins(f_sem)
            fused = ad.add(f_ins, sem_t)
        else:
            sem_t = ad.Tensor(np.zeros_like(f_ins.values))
            fused = f_ins
        cat = ad.concat(f_ins, fused)                                  # (N, 2W)
        gate = ad.sigmoid(ad.reduce_mean(cat, axis=1))
        gated = ad.mul(cat, gate)
        emb = self.ins_head2(self.ins_head1(gated))
        return emb, gated, {"sem_to_ins": sem_t, "ins_fused": fused, "ins_cat": cat,
                            "ins_gate": gate, "ins_gated": gated}

    def semantic_branch(self, f_sem: ad.Tensor, ins_gated: ad.Tensor):
        """Instance-aware class logits from the gated instance features."""
        if self.semantic_fusion:
            context = ad.reduce_mean(self.ins_to_sem(ins_gated), axis=0)  # (1, W)
            fused = ad.add(f_sem, context)
        else:
            context = ad.Tensor(np.zeros_like(f_sem.values[:1]))
            fused = f_sem
        cat = ad.concat(f_sem, fused)                                  # (N, 2W)
        gate = ad.sigmoid(ad.reduce_mean(cat, axis=1))
        gated = ad.mul(cat, gate)
        logits = self.sem_head2(self.sem_head1(gated))
        return logits, {"ins_context": context, "sem_cat": cat, "sem_gate": gate,
                        "sem_gated": gated}

    def __call__(self, f_sem: ad.Tensor, f_ins: ad.Tensor) -> JointHeadFeatures:
        emb, ins_gated, a = self.instance_branch(f_sem, f_ins)
        logits, b = self.semantic_branch(f_sem, ins_gated)
        return JointHeadFeatures(embeddings=emb, logits=logits, **a, **b)

    def _check_inputs(self, f_sem: ad.Tensor, f_ins: ad.Tensor) -> None:
        if f_sem.shape != f_ins.shape or f_sem.shape[1] != self.width:
            raise ad.DimensionError(
                f"joint head expects two (N, {self.width}) inputs, got {f_sem.shape} and {f_ins.shape}")

    def parameters(self):
        return collect_parameters([self.sem_to_ins, self.ins_head1, self.ins_head2,
                                   self.ins_to_sem, self.sem_head1, self.sem_head2])
