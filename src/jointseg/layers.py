"""Shared building blocks for the network modules."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


class Conv1x1:
    """A kernel-size-1 convolution: per-point affine map plus activation.

    Owns a (cin, cout) weight and a (1, cout) bias as named parameters. The
    input is one tensor or a sequence of terms bound to row blocks of the
    weight, with an optional per-row scale (see ``ad.pointwise_conv``).
    """

    def __init__(self, name: str, cin: int, cout: int, rng: np.random.Generator,
                 dtype=np.float32, activation: str = "relu"):
        self.name = name
        self.activation = activation
        self.weight = ad.Parameter(f"{name}.weight",
                                   ad.he_uniform((cin, cout), fan_in=cin, rng=rng, dtype=dtype))
        self.bias = ad.Parameter(f"{name}.bias", np.zeros((1, cout), dtype=dtype))

    def __call__(self, x, scale: ad.Tensor | None = None) -> ad.Tensor:
        return ad.pointwise_conv(x, self.weight, self.bias, self.activation, scale)

    def parameters(self) -> list[ad.Parameter]:
        return [self.weight, self.bias]


def collect_parameters(modules) -> list[ad.Parameter]:
    """Flatten parameters from a list of layers, enforcing unique names."""
    params: list[ad.Parameter] = []
    for m in modules:
        params.extend(m.parameters())
    seen = set()
    for p in params:
        if p.name in seen:
            raise ValueError(f"duplicate parameter name {p.name!r}")
        seen.add(p.name)
    return params
