"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py

Runs each workload's tiny size once at seed 0 and writes reference.json:
the persistence skill-table CSV digest, the curation counts and the
validation-loss history.  Re-record only when a change is meant to alter
what the chain computes, and say so in the change.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

SEED = 0


def main():
    rf = run.load_package()
    reference = {}
    for name, (_, tiny) in run.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            c = run.Chain(rf, tiny, SEED)
            data, _ = c.setup(Path(tmp))
            out = c.run(data, Path(tmp)).outputs
        reference[name] = {"seed": SEED, **out}
        reference[name].pop("skill_csv_sha256")
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
