"""Joint instance/semantic segmentation head.

Two cross-wired branches sit on top of the fused backbone features, and both
follow one pattern: features ``f`` take a cross-branch term ``c``, the
concatenation ``[f, f + c]`` is gated by the per-point sigmoid of its
feature mean, and a convolution maps the gated result. The instance branch
takes ``c`` from transforming the semantic features into the instance space
and maps to a K-dim embedding. The semantic branch takes ``c`` from
aggregating the gated instance features into one global context row
(convolution, then mean over points) and maps to class logits.

Each convolution over a gated ``[f, f + c] · s`` takes it by linearity, as
``s ⊙ (f · (W_top + W_bot) + c · W_bot)`` in one ``ad.pointwise_conv`` node
with the gate ``s`` (one ``ad.gate_scale`` node) as its per-row scale, so
the head builds neither the sum nor the (N, 2W) concatenation.

Either cross-injection can be disabled: with instance fusion off the
semantic-to-instance transform is replaced by a zero row, with semantic
fusion off the instance context is a zero row; the heads always run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .layers import Conv1x1, collect_parameters


@dataclass
class JointHeadFeatures:
    """All named intermediates of one forward pass (row count N throughout)."""

    sem_to_ins: ad.Tensor      # (N, W)   transformed semantic features, or a (1, W) zero row
    ins_gate: ad.Tensor        # (N, 1)   gate of [instance, instance + transform]
    ins_context: ad.Tensor     # (1, W)   global instance context
    sem_gate: ad.Tensor        # (N, 1)   gate of [semantic, semantic + context]
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

    def __call__(self, f_sem: ad.Tensor, f_ins: ad.Tensor) -> JointHeadFeatures:
        self._check_inputs(f_sem, f_ins)
        zero = ad.Tensor(np.zeros_like(f_sem.values[:1]))
        sem_t = self.sem_to_ins(f_sem) if self.instance_fusion else zero
        ins = self._gated(f_ins, sem_t)
        emb = self.ins_head2(self.ins_head1(*ins))
        context = ad.reduce_mean(self.ins_to_sem(*ins), axis=0) if self.semantic_fusion else zero
        sem = self._gated(f_sem, context)
        return JointHeadFeatures(sem_to_ins=sem_t, ins_gate=ins[1], ins_context=context,
                                 sem_gate=sem[1], embeddings=emb,
                                 logits=self.sem_head2(self.sem_head1(*sem)))

    def _gated(self, f: ad.Tensor, c: ad.Tensor):
        """The convolution terms of ``[f, f + c]`` and its (N, 1) gate."""
        top, bot = slice(0, self.width), slice(self.width, 2 * self.width)
        return [(f, top), (f, bot), (c, bot)], ad.gate_scale(f, c)

    def _check_inputs(self, f_sem: ad.Tensor, f_ins: ad.Tensor) -> None:
        if f_sem.shape != f_ins.shape or f_sem.shape[1] != self.width:
            raise ad.DimensionError(
                f"joint head expects two (N, {self.width}) inputs, got {f_sem.shape} and {f_ins.shape}")

    def parameters(self):
        return collect_parameters([self.sem_to_ins, self.ins_head1, self.ins_head2,
                                   self.ins_to_sem, self.sem_head1, self.sem_head2])
