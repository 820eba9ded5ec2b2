"""Dense numerical layer stack for the 3D U-Net forecasters.

Activations are rank-5 arrays of shape (batch, time, rows, cols, channels):
every layer takes and returns that shape.  Their memory is channels-first:
a layer returns the (b, t, h, w, c) transpose of the interior of a
C-contiguous (b, c, t, h', w') buffer, so each channel is a run of rows
and the next layer reads it back with a free transpose.  ReLU, pooling
and upsampling (`upsample`, which also builds the decoder input) give that
buffer a zero border one cell deep in rows and cols, so a following 3x3
conv reads it in place as its padded input instead of copying it.  Any
other input layout, a C-ordered channels-last one included, gives the
same results bit for bit.  float32
is the training precision, float64 the gradient-check precision.
Every layer implements an exact adjoint: `forward(x)` caches what its
`backward(grad)` needs, and that backward consumes the cache, so one
forward takes at most one backward.  Parameter gradients accumulate on the
layer's Parameter blocks until `zero_grad`.
"""

from .layers import (Conv3d, MaxPool3d, Parameter, ReLU, Upsample3d, ensure_array5, stack_frames,
                     upsample)
from .losses import logcosh_loss, mse_loss
from .adam import Adam, lr_for_epoch
from .gradcheck import gradient_check
from .checkpoint import load_arrays, save_arrays

__all__ = [
    "Adam",
    "Conv3d",
    "MaxPool3d",
    "Parameter",
    "ReLU",
    "Upsample3d",
    "ensure_array5",
    "gradient_check",
    "load_arrays",
    "logcosh_loss",
    "lr_for_epoch",
    "mse_loss",
    "save_arrays",
    "stack_frames",
    "upsample",
]
