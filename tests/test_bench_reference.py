"""The benchmark's reference outputs, reproduced in the tests.

`perfbench/run.py` checks every run against `perfbench/reference.json`:
each workload's tiny size run once at seed 0.  A change that reorders
float operations must still reproduce it, so the same chain runs here, and
a change that moves the curation counts, the persistence skill table or
the validation-loss history fails in the tests, not only in a benchmark
run.
"""

import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
VAL_LOSS_RTOL = 1e-4  # the tolerance perfbench/run.py checks the history with


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_tiny_chain_reproduces_reference(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    chain = importlib.import_module("chain")
    rf = SimpleNamespace(**{n: importlib.import_module(f"rainfusion.{n}")
                            for n in ("synth", "grids", "pipeline", "models", "report")})
    want = REFERENCE[name]
    run = chain.Chain(rf, chain.WORKLOADS[name][1], seed=want["seed"])
    data, _ = run.setup(tmp_path)
    got = run.run(data, tmp_path).outputs
    assert got["curation"] == want["curation"]
    assert got["persistence_csv_sha256"] == want["persistence_csv_sha256"]
    if "val_loss_history" in want:
        np.testing.assert_allclose(got["val_loss_history"], want["val_loss_history"],
                                   rtol=VAL_LOSS_RTOL, atol=0)
