"""ffperm benchmark: one workload, one process, sequential, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Passes over the workload's operations repeat until ``--seconds`` is spent.
Every operation's outcome is checked against its expectation.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced pass with ``--trace 1``.  The exit code is 0
when every outcome was correct, 1 when one was not, 2 on a usage error or
when the sources are missing.

``--smoke`` runs tiny cells; ``--corrupt verdict|digest`` spoils the first
operation's expectation, which must make the run fail (see selftest.py).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# median time of reference() on the box the baseline was taken on: times
# are reported as seconds at that reference speed (see README.md)
REF_S = 0.035
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")

# timed set-up, then the reference in the same fresh process
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import ffperm
for p, r in json.loads(sys.argv[1]):
    ffperm.make_field(p, r)
dt = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from run import Reference
ref = Reference()
print(json.dumps([dt, sorted(ref.time() for _ in range(3))[1]]))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny cells, one pass minimum")
    ap.add_argument("--corrupt", choices=("verdict", "digest"), default=None,
                    help="spoil the first op's expectation (negative check)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit():
    """HEAD of the checkout, read from .git when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def environment():
    import importlib.util
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
            "ffperm_backend": os.environ.get("FFPERM_BACKEND"),
            "git_commit": git_commit()}


class Reference:
    """A fixed copy of the kinds of work ffperm does -- field-table gathers
    over a wide (q, R) array, the same gathers one element at a time, and a
    Python loop over terms -- on fixed inputs, so no change to ffperm can
    speed it up or slow it down.  It is timed next
    to every measured interval: the host this runs on changes speed by tens
    of percent for minutes at a time, and that slows both alike."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        q = 16
        self.add_t = rng.integers(0, q, size=(q, q))
        self.mul_t = rng.integers(0, q, size=(q, q))
        self.M = rng.integers(1, q, size=(q, q))
        self.A = rng.integers(0, q, size=(q, 1 << 14))
        self.last = None

    def time(self):
        import numpy as np
        t0 = time.perf_counter()
        add_t, mul_t, M, A = self.add_t, self.mul_t, self.M, self.A
        q = M.shape[0]
        for e in range(q):
            acc = np.zeros(A.shape[1], dtype=np.int64)
            for a in range(q):
                acc = add_t[acc, mul_t[M[e, a], A[a]]]
        one = A[:, :1]
        for e in range(q * 6):
            acc = np.zeros(1, dtype=np.int64)
            for a in range(q):
                acc = add_t[acc, mul_t[M[e % q, a], one[a]]]
        coeffs = np.zeros((q, q, q), dtype=np.int64)
        for i in range(3000):
            idx = tuple(int(x) for x in (i % q, i // q % q, i // q // q % q))
            coeffs[idx] = int(add_t[int(coeffs[idx]), i % q])
        return time.perf_counter() - t0

    def timed(self, fn):
        """(fn's result, its time, the mean reference time around it); the
        reference after one interval is the one before the next."""
        before = self.time() if self.last is None else self.last
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        self.last = self.time()
        return result, dt, (before + self.last) / 2


def measure_setup(fields):
    """Median over fresh interpreters of `import ffperm` plus make_field for
    every field the workload uses, timed inside the child; raw and at
    reference speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, json.dumps(fields), HERE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
            check=True)
        dt, r = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(dt)
        scaled.append(dt / r * REF_S)
    return statistics.median(raw), statistics.median(scaled)


def run_passes(wl, budget, min_passes, ref, tracer=None):
    """Repeat passes until another one would overrun budget seconds.

    Returns per-op times and reference times (lists over passes) and the
    per-pass outcome lists."""
    import ffperm
    times = [[] for _ in wl.ops]
    refs = [[] for _ in wl.ops]
    outcomes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.new_pass()
        seen = []
        for i, op in enumerate(wl.ops):
            if wl.fresh_fields:
                ffperm.make_field.cache_clear()
            fn = op.run if tracer is None else (
                lambda: tracer.run_op(op.name, op.run))
            raw, dt, r = ref.timed(fn)
            times[i].append(dt)
            refs[i].append(r)
            seen.append(op.observe(raw))
            del raw
        outcomes.append(seen)
        done = len(outcomes)
        elapsed = time.perf_counter() - start
        if done >= min_passes and elapsed * (done + 1) / done > budget:
            return times, refs, outcomes


def wall_s(times, refs=None):
    """One pass: the sum over ops of each op's median time, each time first
    scaled to reference speed when refs are given."""
    if refs is None:
        return sum(statistics.median(t) for t in times)
    return sum(statistics.median(dt / r * REF_S for dt, r in zip(t, rt))
               for t, rt in zip(times, refs))


def count_failed(wl, outcomes, expected):
    failed = []
    for p, seen in enumerate(outcomes):
        for op, got, want in zip(wl.ops, seen, expected):
            if got != want:
                failed.append({"pass": p, "op": op.name, "got": got,
                               "want": want})
    return failed


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ffperm", "__init__.py")):
        print(f"perfbench: no ffperm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ffperm
    if os.path.dirname(os.path.dirname(os.path.abspath(ffperm.__file__))) \
            != SRC:
        print(f"perfbench: ffperm imported from {ffperm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer as tr
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    env = environment()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.make(args.workload, args.seed, args.smoke, workdir)
        expected = [op.expected for op in wl.ops]
        missing = [op.name for op, e in zip(wl.ops, expected) if e is None]
        if missing:
            print(f"perfbench: no expectation for {missing}; run pin.py",
                  file=sys.stderr)
            return 2
        if args.corrupt:
            expected[0] = workloads.corrupt(expected[0], args.corrupt)
        min_passes = 1 if args.smoke else 3
        record = {}
        ref = Reference()
        if args.trace == 0:
            setup_raw, setup_s = measure_setup(wl.fields)
            times, refs, outcomes = run_passes(wl, args.seconds, min_passes,
                                               ref)
            record.update(raw_wall_s=wall_s(times), raw_setup_s=setup_raw)
            metrics = {
                "wall_s": {"value": wall_s(times, refs), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF)
                    .ru_maxrss / 1024, "unit": "MB"},
            }
            same_traced = True
        else:
            times, refs, outcomes = run_passes(wl, args.seconds / 2,
                                               max(1, min_passes - 1), ref)
            tracer = tr.Tracer()
            tracer.install()
            try:
                ttimes, trefs, toutcomes = run_passes(wl, args.seconds / 2,
                                                      1, ref, tracer)
            finally:
                tracer.uninstall()
            per_pass = [tr.layer_metrics(spans) for spans in tracer.passes]
            layers = {k: statistics.median(m[k] for m in per_pass)
                      for k in per_pass[0]}
            layers["trace.overhead_s"] = (wall_s(ttimes, trefs)
                                          - wall_s(times, refs))
            metrics = {k: {"value": v, "unit": tr.unit(k)}
                       for k, v in layers.items()}
            same_traced = all(seen == outcomes[0] for seen in toutcomes)
            record["traced_op_times"] = ttimes
            spans_path = os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.json")
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
            outcomes = outcomes + toutcomes

    failed = count_failed(wl, outcomes, expected)
    attempted = len(outcomes) * len(wl.ops)
    correct = not failed and same_traced
    summary = {"workload": args.workload, "seed": args.seed,
               "smoke": args.smoke, "trace": args.trace,
               "passes": len(outcomes), "ops": [op.name for op in wl.ops],
               "failed_ratio": len(failed) / attempted,
               "traced_outcomes_match": same_traced}
    record.update(summary, env=env, op_times=times, ref_times=refs,
                  metrics=metrics, failures=failed[:5])
    result_path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for f in failed[:3]:
        print(f"FAILED pass {f['pass']} op {f['op']}: got "
              f"{json.dumps(f['got'])[:300]} want "
              f"{json.dumps(f['want'])[:300]}", file=sys.stderr)
    print("perfbench " + json.dumps(summary))
    print("perfbench env " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
