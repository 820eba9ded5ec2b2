"""Dense numerical layer stack for the 3D U-Net forecasters.

Activations are rank-5 arrays of shape (batch, time, rows, cols, channels):
every layer takes and returns that shape.  Their memory has one layout:
every buffer a layer writes, forward or backward, is a channels-first
(b, c, t, h + 2, w + 2) grid with a border one cell deep in rows and
cols, inside a 1-D allocation with zero margins before and after it, and
a layer returns the (b, t, h, w, c) transpose of its interior, so the next
layer reads it back with a free transpose.  ReLU and pooling zero that
border, so a following conv, which pads by one cell whatever its kernel,
reads the grid in place as its padded input; ReLU's backward does the
same, and with the zero margins the conv before reads its gradient in
place.  `bordered` makes such a grid for a network input: a time slice of
it, one window of a longer stack of frames, is read in place too.  Any
other input or gradient layout, a C-ordered channels-last one included,
is copied into a grid and gives the same results bit for bit.
There is no upsampling layer: `UpsampleConv3d`, a decoder stage's first
conv, reads the coarse features and the encoder skip in place and runs
the conv of `[upsampled | skip]` with the up channels' taps folded onto
the coarse grid, so the decoder input is never built.
float32 is the training precision, float64 the gradient-check precision.
Every layer implements an exact adjoint: `forward(x)` caches what its
`backward(grad)` needs, and that backward consumes the cache, so one
forward takes at most one backward.  A forward that no backward follows
keeps its cache until the caller drops it; the model's inference forward
drops each layer's right after that layer's forward.  Parameter gradients
accumulate on the layer's Parameter blocks until `zero_grad`.
"""

from .layers import (Conv3d, MaxPool3d, Parameter, ReLU, UpsampleConv3d, bordered,
                     ensure_array5)
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
    "UpsampleConv3d",
    "bordered",
    "ensure_array5",
    "gradient_check",
    "load_arrays",
    "logcosh_loss",
    "lr_for_epoch",
    "mse_loss",
    "save_arrays",
]
