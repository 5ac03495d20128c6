"""Self-test of the benchmark, in seconds.

    python3 perfbench/selftest.py

For every workload, in smoke mode (tiny cells):
  * an untraced and a traced run exit 0, report no failure, and print
    exactly the end-to-end or per-layer metrics named in BENCHMARK.json;
  * a spoiled expectation (`--corrupt verdict`, `--corrupt digest`) makes
    failed_ratio > 0 and the exit code nonzero.
Then a copy holding only BENCHMARK.json and perfbench/ must exit nonzero
without printing a result.  Exits 1 on the first broken promise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(*args, cwd=ROOT, run=RUN):
    proc = subprocess.run([sys.executable, run, "--seed", "7", "--seconds",
                           "1", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        result = None
    return proc.returncode, result, proc.stderr


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            rc, res, err = bench("--workload", wl, "--trace", str(trace),
                                 "--smoke")
            check(rc == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{wl} trace={trace} smoke run is correct {err[-500:]}")
            check(set(res["metrics"]) == names[trace],
                  f"{wl} trace={trace} prints exactly its metrics")
        for kind in ("verdict", "digest"):
            rc, res, _ = bench("--workload", wl, "--trace", "0", "--smoke",
                               "--corrupt", kind)
            check(rc != 0 and res is not None and not res["correct"]
                  and res["failed"] > 0,
                  f"{wl} corrupted {kind} expectation fails the run")
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        rc, res, _ = bench("--workload", "check_all", "--trace", "0",
                           cwd=tmp, run=os.path.join(tmp, "perfbench",
                                                     "run.py"))
        check(rc != 0 and res is None,
              "without the sources the run exits nonzero and prints no result")


if __name__ == "__main__":
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    main()
