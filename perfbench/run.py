"""Benchmark of the wzernike CLI pipeline, the N = 60 transform and the
operator/norms path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer times from a traced run, and the spans go to
perfbench/out/<workload>-s<seed>-t1/trace.json.  Every time is reported
at the reference speed of the machine (see `Calibration`).  See
perfbench/README.md.
"""

from __future__ import annotations

import os

# Threaded OpenBLAS makes the dense tensordot in `analyze` bimodal on a
# small machine (0.47 ms or 8.0 ms at N = 16, against 0.33 ms with one
# thread).  This has to happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from calibration import Calibration  # noqa: E402
from workloads import POOL, WORKLOADS  # noqa: E402

# Set-up (import plus the first, cold operation) is repeated this many
# times in fresh copies of the package and reported as the median.
SETUP_REPEATS = 9
# Calibration samples taken around each set-up.
SETUP_SAMPLES = 3
# latency_p90_ms needs at least ten operations beyond it.
MIN_OPS = 100

LAYERS = (
    "transform.polar_to_raster", "transform.analyze", "transform.synthesize_on",
    "transform.raster_to_polar", "transform.build_quadrature",
    "algebra.apply_operator", "rhs.continuity_report",
    "io.read_pgm", "io.write_pgm", "io.read_coeffs", "io.write_coeffs",
    "io.read_operator_spec",
)


def forget_program() -> None:
    """Drop every imported copy of wzernike, and with it its caches."""
    for name in [m for m in sys.modules if m == "wzernike" or m.startswith("wzernike.")]:
        del sys.modules[name]
    gc.collect()


def load_program():
    """Import wzernike from ./src."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"wzernike.{name}")
            for name in ("cli", "io", "transform", "algebra", "rhs")}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"wzernike was imported from outside {SRC}")
    return types.SimpleNamespace(**mods)


class Tracer:
    """Spans kept in memory as (name, start, end, parent, op).  Each
    operation has one root span; call spans hang off it and never nest,
    so a call span's duration is the call's self time."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.op = -1
        self.root = -1

    def run_op(self, workload, i: int):
        self.op += 1
        self.root = len(self.spans)
        start = time.perf_counter()
        self.spans.append(("op", start, start, None, self.op))
        outcome = workload.run_traced(i, self.span)
        self.spans[self.root] = ("op", start, time.perf_counter(), None, self.op)
        return outcome

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter(), self.root, self.op))

    def layer_ms(self, factors: list[float]) -> dict[str, float]:
        """Median over operations of the milliseconds spent in each layer,
        each operation's spans scaled by its factor."""
        per_op = [dict.fromkeys(LAYERS, 0.0) for _ in range(self.op + 1)]
        for name, start, end, _, op in self.spans:
            if name in per_op[op]:
                per_op[op][name] += (end - start) * factors[op] * 1e3
        return {name: statistics.median(op[name] for op in per_op) for name in LAYERS}

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def timed(fn, *args):
    """(seconds, result); result is None if fn raised."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc(limit=3, file=sys.stderr)
        result = None
    return time.perf_counter() - start, result


def set_up(workload, cal: Calibration) -> float:
    """Seconds, at the reference speed, to import a fresh copy of the
    package and make the first, cold operation, which fills the basis and
    radial caches.  Calibration samples are taken just before and after."""
    workload.bind(None)
    forget_program()
    samples = [cal.sample() for _ in range(SETUP_SAMPLES)]
    start = time.perf_counter()
    workload.bind(load_program())
    workload.run(0)
    seconds = time.perf_counter() - start
    samples += [cal.sample() for _ in range(SETUP_SAMPLES)]
    return seconds * cal.factor(samples)


def ms(values, q: float) -> dict:
    return {"value": float(np.percentile(values, q)) * 1e3, "unit": "ms"}


def scaled(times: list[float], factors: list[float]) -> list[float]:
    return [t * f for t, f in zip(times, factors)]


def measure(workload, seconds: float, cal: Calibration, workdir: Path) -> dict:
    """Closed loop, one client: whole rounds over the pool until the wall
    time spent in operations reaches `seconds`.  A calibration sample
    precedes each operation; checks run between operations, outside the
    timed region.  The wall times and samples go to ops.json."""
    times, samples, failed = [], [], 0
    while sum(times) < seconds or len(times) < MIN_OPS:
        for i in range(POOL):
            samples.append(cal.sample())
            dt, outcome = timed(workload.run, i)
            times.append(dt)
            failed += outcome is None or not workload.check(i, outcome)
    ref_times = scaled(times, cal.factors(samples))
    (workdir / "ops.json").write_text(json.dumps({"wall_s": times, "calibration_s": samples}))
    print(f"run.py: {len(times)} operations, wall median {statistics.median(times) * 1e3:.3f} ms,"
          f" calibration median {statistics.median(samples) * 1e3:.3f} ms"
          f" (reference {cal.ref_s * 1e3} ms)", file=sys.stderr)
    return {
        "correct": failed == 0 or workload.expects_fault,
        "attempted": len(times),
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": len(ref_times) / sum(ref_times), "unit": "1/s"},
            "latency_p50_ms": ms(ref_times, 50),
            "latency_p90_ms": ms(ref_times, 90),
        },
    }


def measure_traced(workload, seconds: float, workdir: Path, cal: Calibration) -> dict:
    """Each pool item runs once as in `measure` and once traced, through
    direct library calls; the two must write byte-identical outputs."""
    tracer = Tracer()
    plain, traced, samples, failed = [], [], [], 0
    while sum(plain) + sum(traced) < seconds:
        for i in range(POOL):
            samples.append(cal.sample())
            dt, out_plain = timed(workload.run, i)
            plain.append(dt)
            samples.append(cal.sample())
            dt, out_traced = timed(tracer.run_op, workload, i)
            traced.append(dt)
            failed += out_plain is None or not workload.check(i, out_plain)
            failed += (out_traced is None or not workload.check(i, out_traced, traced=True)
                       or not workload.same(i, out_plain, out_traced))
    tracer.dump(workdir / "trace.json")
    factors = cal.factors(samples)
    plain, traced = scaled(plain, factors[0::2]), scaled(traced, factors[1::2])
    metrics = {f"{name}.ms": {"value": value, "unit": "ms"}
               for name, value in tracer.layer_ms(factors[1::2]).items()}
    metrics["trace.op_ms"] = ms(traced, 50)
    metrics["trace.overhead_pct"] = {
        "value": (statistics.median(traced) / statistics.median(plain) - 1) * 100,
        "unit": "%",
    }
    return {
        "correct": failed == 0 or workload.expects_fault,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wzernike").is_dir() or not (ROOT / "specs").is_dir():
        print(f"run.py: no wzernike sources under {ROOT}", file=sys.stderr)
        return 2
    workdir = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, ROOT)
    cal = Calibration(workload.calibrate, workload.calibration_ms)

    setups = [set_up(workload, cal) for _ in range(SETUP_REPEATS)]
    if args.trace:
        result = measure_traced(workload, args.seconds, workdir, cal)
    else:
        result = measure(workload, args.seconds, cal, workdir)
        result["metrics"].update({
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        })
    line = json.dumps(result)
    (workdir / "result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
