"""Multi-layer decoder feature fusion.

Fuses the last three decoder outputs into one refined full-resolution feature
matrix: the mid and coarse levels are upsampled to full resolution with
3-nearest-neighbor inverse-square-distance interpolation, the full and mid
features are concatenated, the coarse features are added element-wise, and a
single ReLU convolution maps the 256-wide result down to 128.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .backbone import DecoderFeatures
from .layers import Conv1x1

IN_WIDTH = 256   # full and mid features side by side, or the coarse features
OUT_WIDTH = 128


class FeatureFusion:
    """Fusion head for one decoder branch (256 -> 128)."""

    def __init__(self, name: str, rng, dtype=np.float32):
        self.conv = Conv1x1(f"{name}.conv", IN_WIDTH, OUT_WIDTH, rng, dtype, activation="relu")

    def apply(self, df: DecoderFeatures, mid_mat: ad.Tensor, coarse_mat: ad.Tensor) -> ad.Tensor:
        mid_up = ad.matmul(mid_mat, df.mid)           # (N_a, 128)
        coarse_up = ad.matmul(coarse_mat, df.coarse)  # (N_a, 256)
        stacked = ad.concat(df.full, mid_up)          # (N_a, 256)
        return self.conv(ad.add(stacked, coarse_up))  # (N_a, 128)

    def parameters(self):
        return self.conv.parameters()
