"""Pin the expected outcome of every fixed-input operation.

    python3 perfbench/pin.py

Runs each workload's operations once, full size and smoke size, with the
ffperm sources of this checkout, and writes ``expected.json``.  Seeded
inputs are not pinned: the benchmark computes their expectations itself.
Re-pin only when a change of behaviour is intended, and say so.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    pinned = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in workloads.WORKLOADS:
            for smoke in (False, True):
                wl = workloads.make(name, 0, smoke, workdir, use_pinned=False)
                for op in wl.ops:
                    if op.expected is None:
                        got = op.observe(op.run())
                        pinned.setdefault(name, {})[op.name] = got
                        print(name, op.name, got["verdict"], flush=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
