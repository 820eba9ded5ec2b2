"""The benchmark's reference outputs and output checks, reproduced in the tests.

`perfbench/run.py` checks every run against `perfbench/reference.json`:
each workload's tiny size run once at seed 0.  A change that reorders
float operations must still reproduce it, so the same chain runs here, and
a change that moves the curation counts, the persistence skill table or
the validation-loss history fails in the tests, not only in a benchmark
run.  The pass then goes through the benchmark's own output checks, so a
change that removes a package name those checks call fails here too.
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
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # what run.py sets on import; restored after the test
    chain, run, spans = (importlib.import_module(m) for m in ("chain", "run", "spans"))
    rf = SimpleNamespace(**{n: importlib.import_module(f"rainfusion.{n}") for n in spans.LAYERS})
    want = REFERENCE[name]
    tiny = chain.Chain(rf, chain.WORKLOADS[name][1], seed=want["seed"])
    data, _ = tiny.setup(tmp_path)
    result = tiny.run(data, tmp_path)
    got = result.outputs
    assert got["curation"] == want["curation"]
    assert got["persistence_csv_sha256"] == want["persistence_csv_sha256"]
    if "val_loss_history" in want:
        np.testing.assert_allclose(got["val_loss_history"], want["val_loss_history"],
                                   rtol=VAL_LOSS_RTOL, atol=0)

    checks = run.Checks()
    run.run_checks(rf, tiny, SimpleNamespace(seed=want["seed"]), data, [result], None,
                   checks, tmp_path)
    assert checks.failed == 0, checks.results
