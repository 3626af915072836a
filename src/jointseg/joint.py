"""Joint instance/semantic segmentation head.

Two cross-wired branches sit on top of the fused backbone features. The
instance branch transforms semantic features into the instance space, adds
them to the instance features, gates the concatenated result by a per-point
sigmoid of its feature mean (one ``ad.gate`` node), and maps it to a K-dim
embedding. The semantic branch aggregates the gated instance features into
one global context row (convolution, then mean over points), adds it to
every row of the semantic features by broadcasting, gates in the same way,
and maps to class logits. Its first layer takes the gated
``[f, f + c] · s`` by linearity, as
``s ⊙ (f · (W_top + W_bot) + c · W_bot)`` in one ``ad.pointwise_conv`` node
with the gate ``s`` (one ``ad.gate_scale`` node) as its per-row scale, so it
builds neither the sum nor the (N, 2W) concatenation.

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
    ins_gated: ad.Tensor       # (N, 2W)  gated [instance, fused] features
    ins_context: ad.Tensor     # (1, W)   global instance context
    sem_gate: ad.Tensor        # (N, 1)   gate of [semantic, context-fused]
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
        gated = ad.gate(f_ins, fused)                                  # (N, 2W)
        emb = self.ins_head2(self.ins_head1(gated))
        return emb, gated, {"sem_to_ins": sem_t, "ins_fused": fused, "ins_gated": gated}

    def semantic_branch(self, f_sem: ad.Tensor, ins_gated: ad.Tensor):
        """Instance-aware class logits from the gated instance features."""
        if self.semantic_fusion:
            context = ad.reduce_mean(self.ins_to_sem(ins_gated), axis=0)  # (1, W)
        else:
            context = ad.Tensor(np.zeros_like(f_sem.values[:1]))
        w = self.width
        top, bot = slice(0, w), slice(w, 2 * w)
        gate = ad.gate_scale(f_sem, context)                           # (N, 1)
        h = self.sem_head1([(f_sem, top), (f_sem, bot), (context, bot)], gate)
        return self.sem_head2(h), {"ins_context": context, "sem_gate": gate}

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
