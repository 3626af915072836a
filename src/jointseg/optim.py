"""Adaptive-moment optimizer with a step-decay learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter


class Adam:
    """Adam with bias correction; the learning rate is multiplied by
    ``decay_factor`` every ``decay_every`` steps (never when ``decay_every``
    is 0). Parameters with no gradient are left untouched."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, decay_factor: float = 0.5,
                 decay_every: int = 0):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.decay_factor = decay_factor
        self.decay_every = decay_every
        self.t = 0
        self.m = {p.name: np.zeros_like(p.values) for p in params}
        self.v = {p.name: np.zeros_like(p.values) for p in params}

    def current_lr(self) -> float:
        if self.decay_every <= 0:
            return self.lr
        return self.lr * self.decay_factor ** (self.t // self.decay_every)

    def step(self) -> None:
        lr = self.current_lr()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p in self.params:
            g = p.grad
            if g is None:
                continue
            m = self.m[p.name]
            v = self.v[p.name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = (lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)).astype(p.values.dtype)
            p.values = p.values - update
