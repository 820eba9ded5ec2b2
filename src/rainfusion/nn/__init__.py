"""Dense numerical layer stack for the 3D U-Net forecasters.

Activations are rank-5 arrays of shape (batch, time, rows, cols, channels):
every layer takes and returns that shape.  Their memory is channels-first:
a layer returns the (b, t, h, w, c) transpose of the interior of a
C-contiguous (b, c, t, h', w') buffer, so each channel is a run of rows
and the next layer reads it back with a free transpose.  ReLU, pooling
and upsampling (`upsample`, which also builds the decoder input) give that
buffer a zero border one cell deep in rows and cols, so a following 3x3
conv reads it in place as its padded input instead of copying it.
`bordered` makes such a buffer for a network input: a time slice of it,
one window of a longer stack of frames, is read in place too.  ReLU's
backward writes its gradient the same way, into a buffer with zero
margins before and after it, and the conv before reads that in place as
its padded incoming gradient.  Any other input or gradient layout, a
C-ordered channels-last one included, gives the same results bit for bit.
float32 is the training precision, float64 the gradient-check precision.
Every layer implements an exact adjoint: `forward(x)` caches what its
`backward(grad)` needs, and that backward consumes the cache, so one
forward takes at most one backward.  A forward that no backward follows
keeps its cache until the caller drops it; the model's inference forward
drops each layer's right after that layer's forward.  Parameter gradients
accumulate on the layer's Parameter blocks until `zero_grad`.
"""

from .layers import (Conv3d, MaxPool3d, Parameter, ReLU, Upsample3d, bordered, ensure_array5,
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
    "bordered",
    "ensure_array5",
    "gradient_check",
    "load_arrays",
    "logcosh_loss",
    "lr_for_epoch",
    "mse_loss",
    "save_arrays",
    "upsample",
]
