"""Run one lipbound benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {oracle,bnb,large-net} --seed N --seconds S --trace {0,1}

Run from the repository root: lipbound is imported from ./src. With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 every op runs both untraced and traced and the
JSON carries the per-layer metrics. See perfbench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin the process before numpy is imported: one BLAS thread, and no
# LIPBOUND_THREADS fallback for the CLI's oracle thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LIPBOUND_THREADS", None)

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import zoo  # noqa: E402
from workloads import WORKLOADS, load_lipbound  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MAX_FAILURES_SHOWN = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(args, workdir: Path) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times (import lipbound, run the first op):
    wall times and the same at the reference machine speed."""
    wall, scaled = [], []
    before = calibrate.kernel_s()
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "probe.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", str(workdir / f"probe-{k}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        after = calibrate.kernel_s()
        wall.append(dt)
        scaled.append(calibrate.scaled(dt, before, after))
        before = after
    return wall, scaled


class Phase:
    """Latencies and failures of the ops of one timed phase.

    `latencies` are wall times; `scaled` are the same ops at the reference
    machine speed (see calibrate.py), and the reported timings use them.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.by_instance: dict[int, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.report_bytes = 0
        self._kernel = None

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.scaled)

    def instance_latencies(self) -> list[float]:
        """Each instance's median scaled latency: the latency distribution
        of one pass, whatever the number of passes."""
        return [statistics.median(v) for v in self.by_instance.values()]

    def measure(self, lb, wl, item, op) -> None:
        """Run and time one op with its output captured, then check it."""
        for path in item["outputs"]:
            Path(path).unlink(missing_ok=True)
        if self._kernel is None:
            self._kernel = calibrate.kernel_s()
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                out = op(lb, item)
            problems = []
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            problems = [f"{type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        after = calibrate.kernel_s()
        self.latencies.append(dt)
        self.scaled.append(calibrate.scaled(dt, self._kernel, after))
        self.by_instance.setdefault(item["inst"]["index"], []).append(self.scaled[-1])
        self._kernel = after
        self.attempted += 1
        if not problems:
            problems = wl.check(item, out, sink.getvalue())
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(f"instance {item['inst']['index']}: {'; '.join(problems)}")
        self.report_bytes += sum(Path(p).stat().st_size for p in item.get("reports", ()) if Path(p).is_file())


def run_passes(items, seconds: float, step) -> None:
    """Call step(i, item) over whole passes of the items until `seconds` have passed.

    Whole passes keep every instance equally weighted whatever the speed.
    A pass is not started when half of it would run past the deadline, so
    the phase ends within half a pass of `seconds`; there is always one.
    """
    start = time.perf_counter()
    i = 0
    while True:
        step(i, items[i % len(items)])
        i += 1
        if i % len(items) == 0:
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 0.5 / (i // len(items))) >= seconds:
                return


def run_phase(lb, wl, items, seconds: float) -> Phase:
    phase = Phase()
    run_passes(items, seconds, lambda i, item: phase.measure(lb, wl, item, wl.op))
    return phase


def run_traced(lb, wl, items, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Run every op twice, untraced and traced, so the two phases see the
    same ops under the same machine load; their difference is the tracing
    overhead. The order alternates so neither side always runs warm."""
    plain, traced = Phase(), Phase()
    traced_op = tracer.wrap(tracing.OP_SPAN, wl.op)

    def step(i, item):
        if i % 2 == 0:
            plain.measure(lb, wl, item, wl.op)
        tracer.op_id = i
        with tracer.installed(lb):
            traced.measure(lb, wl, item, traced_op)
        if i % 2 == 1:
            plain.measure(lb, wl, item, wl.op)

    run_passes(items, seconds, step)
    return plain, traced


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten values beyond it: (value, percentile, beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    lb = load_lipbound(ROOT)
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_wall, setup_scaled = ([], []) if args.trace else measure_setup(args, workdir)
        t0 = time.perf_counter()
        items, instances, ref_source = wl.prepare(lb, args.seed, workdir)
        prepare_s = time.perf_counter() - t0
        Phase().measure(lb, wl, items[0], wl.op)  # warm-up, untimed

        print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
              f"numpy={np.__version__} lipbound={lb.__version__} commit={git_commit(ROOT)}")
        print(f"inputs: {len(items)} instances (fingerprint {zoo.fingerprint(instances)}), "
              f"references {ref_source}, prepared in {prepare_s:.2f} s")

        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = run_traced(lb, wl, items, args.seconds, tracer)
            missing = tracer.missing(args.workload)
            if missing:
                raise SystemExit(f"perfbench: trace wrappers never fired on {args.workload}: "
                                 f"{', '.join(missing)}")
            overhead = (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s
            metrics = tracing.per_layer_metrics(
                tracer, traced.attempted, sum(traced.latencies), traced.report_bytes, overhead)
            spans_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.json"
            tracer.dump(spans_path)
            print(f"trace: {len(tracer.spans)} spans over {traced.attempted} ops -> {spans_path}")
            phases = (plain, traced)
        else:
            phase = run_phase(lb, wl, items, args.seconds)
            per_instance = phase.instance_latencies()
            tail_ms, tail_pct, beyond = tail(per_instance)
            metrics = {
                "ops_per_s": metric(phase.ops_per_s, "1/s"),
                "op_ms_p50": metric(1e3 * statistics.median(per_instance), "ms"),
                "op_ms_tail": metric(1e3 * tail_ms, "ms"),
                "ok_frac": metric(1.0 - phase.failed / phase.attempted, "frac"),
                "setup_s": metric(statistics.median(setup_scaled), "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            wall = phase.latencies
            print(f"op_ms_tail: {1e3 * tail_ms:.3f} ms at p{tail_pct:.1f} "
                  f"({beyond} of {len(per_instance)} instances beyond; "
                  f"{phase.attempted} ops in {phase.attempted // len(items)} passes)")
            print(f"wall clock: ops_per_s={(phase.attempted - phase.failed) / sum(wall):.4f} "
                  f"setup_s={statistics.median(setup_wall):.4f}; the machine ran "
                  f"{sum(wall) / sum(phase.scaled):.3f}x slower than reference speed")
            print("setup_s probes (wall): " + " ".join(f"{t:.3f}" for t in setup_wall))
            phases = (phase,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    print(f"ops: attempted={attempted} failed={failed} fail_frac={failed / attempted:.6g}")
    for ph in phases:
        for line in ph.failures:
            print(f"FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
