"""Adam with bias correction plus the milestone step-decay schedule."""

from __future__ import annotations

import numpy as np

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def lr_for_epoch(base_lr: float, epoch: int, milestones=(10, 30, 40),
                 factor: float = 0.1) -> float:
    """Learning rate for a 1-based epoch: decays by `factor` at each milestone.

    The drop takes effect from the milestone epoch itself, so after epoch 40
    the default schedule sits at base_lr * factor**3.
    """
    return base_lr * factor ** sum(1 for m in milestones if epoch >= m)


class Adam:
    """Standard bias-corrected Adam over a list of Parameter blocks, with
    beta1 = 0.9, beta2 = 0.999 and eps = 1e-8.

    A block whose gradient is entirely zero is left untouched (its moments
    and step counter included), so zero-gradient steps never move
    parameters.  Non-finite gradients raise, naming the offending block.
    """

    def __init__(self, params, lr: float = 1e-4):
        self.params = list(params)
        self.lr = lr
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = [0] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise ValueError(f"non-finite gradient in parameter block '{p.name}'")
            if not g.any():
                continue
            self._t[i] += 1
            t = self._t[i]
            m, v = self._m[i], self._v[i]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            m_hat = m / (1.0 - _BETA1 ** t)
            v_hat = v / (1.0 - _BETA2 ** t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
