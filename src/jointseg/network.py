"""Full network assembly: backbone, per-branch feature fusion, joint head."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .backbone import DECODER_WIDTHS, Backbone, BlockGeometry, LayerSpec
from .fusion import FeatureFusion
from .joint import JointHeadFeatures, JointSegmentationHead
from .layers import collect_parameters


class SegmentationNetwork:
    """End-to-end model mapping (N, 9) block features to per-point class
    logits and instance embeddings.

    Ablation switches: ``use_fusion`` bypasses the feature-fusion heads and
    feeds the raw final decoder outputs to the joint head;
    ``instance_fusion`` / ``semantic_fusion`` toggle the joint head's
    cross-injections.
    """

    def __init__(self, spec: LayerSpec, num_classes: int, embedding_dim: int = 5,
                 seed: int = 0, dtype=np.float32, use_fusion: bool = True,
                 instance_fusion: bool = True, semantic_fusion: bool = True):
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.dtype = dtype
        self.use_fusion = use_fusion
        self.backbone = Backbone(spec, rng, dtype)
        self.fusion_sem = FeatureFusion("fusion_sem", rng, dtype)
        self.fusion_ins = FeatureFusion("fusion_ins", rng, dtype)
        self.head = JointSegmentationHead(num_classes, embedding_dim, DECODER_WIDTHS[2], rng,
                                          dtype, instance_fusion=instance_fusion,
                                          semantic_fusion=semantic_fusion)
        self._params = collect_parameters(
            [self.backbone, self.fusion_sem, self.fusion_ins, self.head])

    def compute_geometry(self, block_features: np.ndarray) -> BlockGeometry:
        return self.backbone.compute_geometry(np.asarray(block_features)[:, :3])

    def forward(self, block_features: np.ndarray,
                geometry: BlockGeometry | None = None) -> JointHeadFeatures:
        """(N, 9) block features in; geometry from columns 0-2 unless passed."""
        if geometry is None:
            geometry = self.compute_geometry(block_features)
        x = ad.Tensor(np.asarray(block_features).astype(self.dtype))
        sem_df, ins_df = self.backbone.apply(x, geometry)
        if self.use_fusion:
            f_sem = self.fusion_sem.apply(sem_df, geometry.fusion_coarse)
            f_ins = self.fusion_ins.apply(ins_df, geometry.fusion_coarse)
        else:
            f_sem, f_ins = sem_df.full, ins_df.full
        del sem_df, ins_df  # without a graph, the head's peak need not hold the decoder outputs
        return self.head(f_sem, f_ins)

    def parameters(self) -> list[ad.Parameter]:
        return self._params

    def named_parameters(self) -> dict[str, ad.Parameter]:
        return {p.name: p for p in self._params}

    def zero_grad(self) -> None:
        for p in self._params:
            p.zero_grad()

    def assign_parameters(self, arrays: dict[str, np.ndarray]) -> None:
        """Load parameter values by name, validating names and shapes."""
        named = self.named_parameters()
        missing = sorted(set(named) - set(arrays))
        extra = sorted(set(arrays) - set(named))
        if missing or extra:
            raise KeyError(f"parameter set mismatch: missing={missing}, unexpected={extra}")
        for name, values in arrays.items():
            named[name].assign(values)
