"""Multi-layer decoder feature fusion.

Fuses the last three decoder outputs into one refined full-resolution feature
matrix: the full features and the mid level, upsampled to full resolution,
side by side as 256 columns, plus the coarse level upsampled with the same
3-nearest-neighbor inverse-square-distance interpolation, mapped down to 128
by one ReLU convolution. The convolution is linear before its ReLU, so it
projects each coarser level first and interpolates the 128-wide product:

    relu(full · W[:128] + P_mid @ (mid · W[128:]) + P_coarse @ (coarse · W) + b)

one ``ad.pointwise_conv`` node that builds neither upsampled level nor their
sum.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .backbone import DecoderFeatures, beside
from .layers import Conv1x1

IN_WIDTH = 256   # full and mid features side by side, or the coarse features
OUT_WIDTH = 128


class FeatureFusion:
    """Fusion head for one decoder branch (256 -> 128)."""

    def __init__(self, name: str, rng, dtype=np.float32):
        self.conv = Conv1x1(f"{name}.conv", IN_WIDTH, OUT_WIDTH, rng, dtype, activation="relu")

    def apply(self, df: DecoderFeatures, mid_mat: ad.Tensor, coarse_mat: ad.Tensor) -> ad.Tensor:
        """(N_a, 128) fused features; ``mid_mat`` and ``coarse_mat`` interpolate
        the mid and coarse levels to the N_a full-resolution points."""
        return self.conv(beside(df.full, df.mid, mid_mat) + [(coarse_mat, df.coarse, slice(None))])

    def parameters(self):
        return self.conv.parameters()
