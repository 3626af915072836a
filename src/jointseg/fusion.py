"""Multi-layer decoder feature fusion.

Fuses the last three decoder outputs into one refined full-resolution feature
matrix. The full features and the mid level, which the decoder has already
upsampled to full resolution for its last layer, are taken side by side as
256 columns; the coarse level is upsampled here with the same
3-nearest-neighbor inverse-square-distance interpolation and added to them
in one ``ad.add`` node; a single ReLU convolution maps the 256-wide sum
down to 128.
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

    def apply(self, df: DecoderFeatures, coarse_mat: ad.Tensor) -> ad.Tensor:
        coarse_up = ad.matmul(coarse_mat, df.coarse)                # (N_a, 256)
        return self.conv(ad.add((df.full, df.mid_up), coarse_up))  # (N_a, 128)

    def parameters(self):
        return self.conv.parameters()
