"""One sha256 per array of seeded training steps and inference runs.

    PYTHONPATH=src python tools/step_digests.py > digests.txt
    PYTHONPATH=src python tools/step_digests.py --npz arrays.npz

Both variants run at 16x16 (levels 3, base 2), 64x64 (levels 3, base 8)
and 32x32 (levels 4, base 2), each at batch 1 and 3.  A case is one
training forward and backward on a log-cosh loss, from an input held in a
frame buffer (`nn.bordered`) as `models.load_frames` holds it, then one
inference forward of the same input.  Its arrays are the training output,
the input gradient, every parameter gradient and the inference output.
Each line reads `<case> <array> <sha256 of dtype, shape and bytes>`.

Run it in two checkouts and diff the outputs to see which arrays a change
leaves equal bit for bit; `--npz` also saves the arrays, so that the ones
that differ can be compared within a tolerance.
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import replace

import numpy as np

from rainfusion.models import ModelConfig, UNet3D
from rainfusion.nn import bordered, logcosh_loss

CONFIGS = {
    "16x16": ModelConfig(rows=16, cols=16, levels=3, base_channels=2),
    "64x64": ModelConfig(rows=64, cols=64, levels=3, base_channels=8),
    "32x32-levels4": ModelConfig(rows=32, cols=32, levels=4, base_channels=2),
}
VARIANTS = ("radar", "multimodal")
BATCHES = (1, 3)


def case_arrays(config: ModelConfig, batch: int):
    """(name, array) of one seeded training step and inference run."""
    rng = np.random.default_rng(8)
    shape = (batch, 6, config.rows, config.cols, config.in_channels)
    frames = bordered((shape[0], shape[4], *shape[1:4]), np.float32)
    frames[...] = rng.normal(size=shape).astype(np.float32).transpose(0, 4, 1, 2, 3)
    x = frames.transpose(0, 2, 3, 4, 1)
    y = rng.random((batch, 1, config.rows, config.cols, 1), dtype=np.float32)
    model = UNet3D(config, seed=6)
    out = model.forward(x)
    _, grad = logcosh_loss(out, y)
    model.zero_grad()
    gx = model.backward(grad.astype(out.dtype, copy=False))
    yield "output", out
    yield "input_grad", gx
    for p in model.params():
        yield f"{p.name}.grad", p.grad
    yield "inference", model._run(x, keep=False)


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--npz", help="also save every array to this .npz file")
    args = ap.parse_args()
    saved = {}
    for variant in VARIANTS:
        for size, config in CONFIGS.items():
            for batch in BATCHES:
                case = f"{variant}-{size}-batch{batch}"
                for name, a in case_arrays(replace(config, variant=variant), batch):
                    print(case, name, digest(a), flush=True)
                    saved[f"{case}/{name}"] = np.array(a)
    if args.npz:
        np.savez(args.npz, **saved)


if __name__ == "__main__":
    main()
