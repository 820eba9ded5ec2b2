"""Training losses: log-cosh and MSE, each returning (scalar, grad wrt pred).

The loss is the mean over `pred`.  The gradient is that of a sum over
`pred` divided by `count`, the element count of the batch being averaged
(default `pred.size`): `train` runs one sample of a batch at a time and
passes the whole batch's count, so each sample's gradient is exactly its
slice of the batch gradient, bit for bit, because both losses are
elementwise until the mean.
"""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)


def logcosh_loss(pred: np.ndarray, target: np.ndarray,
                 count: int | None = None) -> tuple[float, np.ndarray]:
    """Mean of ln(cosh(pred - target)), overflow-safe for any error size.

    ln cosh d = logaddexp(d, -d) - ln 2; the naive cosh overflows near
    |d| ~ 350 in float64.  Gradient is tanh(d) / count.
    """
    pred, target = np.asarray(pred), np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    d = pred - target
    loss = float(np.mean(np.logaddexp(d, -d))) - _LN2
    grad = np.tanh(d) / (d.size if count is None else count)
    return loss, grad


def mse_loss(pred: np.ndarray, target: np.ndarray,
             count: int | None = None) -> tuple[float, np.ndarray]:
    """Mean squared error; gradient is 2 (pred - target) / count."""
    pred, target = np.asarray(pred), np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    d = pred - target
    loss = float(np.mean(d * d))
    grad = 2.0 * d / (d.size if count is None else count)
    return loss, grad


LOSSES = {"logcosh": logcosh_loss, "mse": mse_loss}
