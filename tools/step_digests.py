"""One sha256 per array of seeded training steps and inference runs.

    PYTHONPATH=src python tools/step_digests.py > digests.txt
    PYTHONPATH=src python tools/step_digests.py --npz arrays.npz
    PYTHONPATH=src python tools/step_digests.py --f64 > errors.txt

Both variants run at 16x16 (levels 3, base 2), 64x64 (levels 3, base 8)
and 32x32 (levels 4, base 2), each at batch 1 and 3.  A case is one
training forward and backward on a log-cosh loss, from an input held in a
frame buffer (`nn.bordered`) as `models.load_frames` holds it, then one
inference forward of the same input.  Its arrays are the training output,
the input gradient, every parameter gradient and the inference output.
Each line reads `<case> <array> <sha256 of dtype, shape and bytes>`.

Run it in two checkouts and diff the outputs to see which arrays a change
leaves equal bit for bit; `--npz` also saves the arrays, so that the ones
that differ can be compared within a tolerance.  `--f64` runs each case
once more in float64, from the same float32 weights and inputs, and adds
to each line the array's error against that run, max |float32 - float64|
/ max |float64|: a change that moves bits shows whether it moved away
from the exact result.

The BLAS thread count is pinned to 1 before numpy loads, as in
`perfbench/run.py`: with more threads some weight gradients change in
their last bits, and a diff between two checkouts would show them.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from rainfusion.models import ModelConfig, UNet3D  # noqa: E402
from rainfusion.nn import bordered, logcosh_loss  # noqa: E402

CONFIGS = {
    "16x16": ModelConfig(rows=16, cols=16, levels=3, base_channels=2),
    "64x64": ModelConfig(rows=64, cols=64, levels=3, base_channels=8),
    "32x32-levels4": ModelConfig(rows=32, cols=32, levels=4, base_channels=2),
}
VARIANTS = ("radar", "multimodal")
BATCHES = (1, 3)


def case_arrays(config: ModelConfig, batch: int, dtype=np.float32):
    """(name, array) of one seeded training step and inference run, in
    `dtype` from float32 weights and inputs."""
    rng = np.random.default_rng(8)
    shape = (batch, 6, config.rows, config.cols, config.in_channels)
    frames = bordered((shape[0], shape[4], *shape[1:4]), dtype)
    frames[...] = rng.normal(size=shape).astype(np.float32).transpose(0, 4, 1, 2, 3)
    x = frames.transpose(0, 2, 3, 4, 1)
    y = rng.random((batch, 1, config.rows, config.cols, 1), dtype=np.float32).astype(dtype)
    model = UNet3D(config, seed=6, dtype=dtype)
    for p in model.params():  # the float32 weights, whatever the dtype
        p.value[...] = p.value.astype(np.float32)
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


def f64_error(a: np.ndarray, exact: np.ndarray) -> float:
    """max |a - exact| / max |exact|; max |a - exact| when `exact` is all zero."""
    scale = np.abs(exact).max()
    diff = np.abs(a - exact).max()
    return float(diff / scale) if scale else float(diff)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--npz", help="also save every array to this .npz file")
    ap.add_argument("--f64", action="store_true",
                    help="add each array's error against a float64 run of its case")
    args = ap.parse_args()
    saved = {}
    for variant in VARIANTS:
        for size, config in CONFIGS.items():
            config = replace(config, variant=variant)
            for batch in BATCHES:
                case = f"{variant}-{size}-batch{batch}"
                arrays = list(case_arrays(config, batch))
                errors = [""] * len(arrays)
                if args.f64:
                    exact = case_arrays(config, batch, np.float64)
                    errors = [f" {f64_error(a, b):.2e}"
                              for (_, a), (_, b) in zip(arrays, exact, strict=True)]
                for (name, a), error in zip(arrays, errors):
                    print(case, name, digest(a) + error, flush=True)
                    saved[f"{case}/{name}"] = np.array(a)
    if args.npz:
        np.savez(args.npz, **saved)


if __name__ == "__main__":
    main()
