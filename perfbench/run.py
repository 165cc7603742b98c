"""Benchmark of the mpmech command line, driven in-process.

    python3 perfbench/run.py --workload lp_long --seed 1 --seconds 30 --trace 0

One client calls ``mpmech.cli.main(argv)`` in a closed loop (each call
starts after the previous one returns) in this one process, on inputs drawn
from ``--seed``.  Every op's output is checked outside the timed region.

``--trace 0`` runs ops for ``--seconds`` seconds and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed op list twice, untraced and then with
spans around each layer's public functions, writes the spans to
``perfbench/out/trace-<workload>.npz`` and reports the per-layer metrics
computed from that file.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MPM_TOLERANCE_SCALE", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

SETUP_REPEATS = 3
TRACE_CYCLES_PER_S = {"lp_long": 0.2, "ep_long": 0.1, "sl2c_tools": 0.5}


def import_cli():
    """Import mpmech.cli from this checkout's src/, or exit with an error."""
    try:
        import mpmech.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mpmech from {SRC}: {exc}")
    if not os.path.abspath(mpmech.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: mpmech was imported from {mpmech.cli.__file__}, not {SRC}")
    return mpmech.cli


def call(main, argv: list[str]) -> tuple[int | None, str, str, float]:
    """One op: exit code (None if an exception escaped), stdout, error text, seconds."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            err.write(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), wall


class Runner:
    """Runs ops of one workload, checks them, and keeps what the metrics need."""

    def __init__(self, name: str, seed: int, workdir: str):
        import workloads

        self.main = import_cli().main
        self.workload = workloads.Workload(name, seed, workdir)
        self.stream = self.workload.ops()
        self.results: list[dict] = []
        self.failures: list[str] = []

    def run(self, op, sampler=None, main=None) -> dict:
        """Run and check one op.  Its wall time excludes the sampler's handler."""
        spent = sampler.spent if sampler else 0.0
        start = time.perf_counter()
        rc, stdout, err, wall = call(main or self.main, op.argv)
        if sampler:
            wall -= sampler.spent - spent
        if rc is None:
            why = f"escaped: {err}"
        else:
            try:
                why = self.workload.check(op, rc, stdout)
            except Exception as exc:  # unreadable output fails the op, not the run
                why = f"check raised {type(exc).__name__}: {exc}"
        if why:
            self.failures.append(f"{op.kind} {' '.join(op.argv)}: {why}")
        result = {"op": op, "start": start, "wall": wall}
        self.results.append(result)
        return result

    def report(self) -> None:
        for why in self.failures:
            print(f"perfbench: failed op: {why}", file=sys.stderr)


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time `import mpmech.cli` plus the workload's first op."""
    start = time.perf_counter()
    import_cli()
    imported = time.perf_counter() - start
    import speed

    with _workdir() as workdir:
        runner = Runner(workload, seed, workdir)
        costs = [speed.kernel() for _ in range(speed.MIN_SAMPLES)]
        result = runner.run(next(runner.stream))
        costs += [speed.kernel() for _ in range(speed.MIN_SAMPLES)]
        runner.report()
    if runner.failures:
        sys.exit(1)
    wall = imported + result["wall"]
    slowdown = speed.trimmed_mean(costs) / speed.NOMINAL_S
    print(json.dumps({"setup_s": wall / slowdown, "raw_s": wall}))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time of fresh processes, at reference speed and raw."""
    values = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: set-up probe exited with {proc.returncode}")
        values.append(json.loads(proc.stdout.splitlines()[-1]))
    return (statistics.median(v["setup_s"] for v in values),
            statistics.median(v["raw_s"] for v in values))


def _workdir() -> tempfile.TemporaryDirectory:
    """A scratch directory under perfbench/out, removed on exit."""
    os.makedirs(OUT, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT)


def end_to_end(ops: list[dict], key: str, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics over measured ops, timed by ops' ``key``."""
    main_walls = [r[key] for r in ops if r["op"].main]
    sims = [r for r in ops if r["op"].kind == "simulate"]
    factors = [r[key] for r in ops if r["op"].kind == "factor" and r["op"].expect_rc == 0]
    audits = [r for r in ops if r["op"].kind == "audit"]
    return {
        "setup_s": (setup_s, "s"),
        "steps_per_s": (sum(r["op"].steps for r in sims) / sum(r[key] for r in sims), "steps/s"),
        "energy_drift": (statistics.median(r["op"].data["drift"] for r in sims), "1"),
        "op_p50_ms": (1e3 * statistics.median(main_walls), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(main_walls, n=10, method="inclusive")[8], "ms"),
        "audit_samples_per_s": (sum(r["op"].samples for r in audits)
                                / sum(r[key] for r in audits), "samples/s"),
        "factor_p50_ms": (1e3 * statistics.median(factors), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def run_timed(workload: str, seed: int, seconds: float):
    import speed

    setup_s, setup_raw_s = measure_setup(workload, seed)
    with _workdir() as workdir:
        runner = Runner(workload, seed, workdir)
        runner.run(next(runner.stream))        # warm-up, counted only in setup_s
        with speed.Sampler() as sampler:
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                runner.run(next(runner.stream), sampler)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.report()
    ops = runner.results[1:]
    for r in ops:
        r["ref_wall"] = r["wall"] / sampler.slowdown(r["start"], r["start"] + r["wall"])
    raw = end_to_end(ops, "wall", setup_raw_s, peak_rss_mb)
    print(f"{len(ops)} ops, {len(sampler.costs)} calibration samples, median slowdown "
          f"{statistics.median(sampler.costs) / speed.NOMINAL_S:.3f}")
    return runner, end_to_end(ops, "ref_wall", setup_s, peak_rss_mb), raw, []


def run_traced(workload: str, seed: int, seconds: float):
    import spans

    cycles = max(1, round(TRACE_CYCLES_PER_S[workload] * seconds))
    with _workdir() as workdir:
        runner = Runner(workload, seed, workdir)
        runner.run(next(runner.stream))        # warm-up
        first = [op for _ in range(cycles) for op in runner.workload.cycle()]
        untraced_s = sum(runner.run(op)["wall"] for op in first)
        tracer = spans.Tracer()
        root = tracer.wrap(spans.ROOT_SPAN, runner.main)
        with tracer.installed():
            for i, op in enumerate(first):
                tracer.op_id = i
                runner.run(op, main=root)
        runner.report()
        meta = [{"kind": op.kind, "mode": op.data.get("mode"), "steps": op.steps,
                 "samples": op.samples} for op in first]
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload}.npz")
        tracer.write(path, meta, untraced_s)
    metrics, errors = spans.analyse(path)
    for why in errors:
        print(f"perfbench: trace: {why}", file=sys.stderr)
    units = {name: unit for name, unit, *_ in spans.PER_LAYER}
    return runner, {k: (v, units[k]) for k, v in metrics.items()}, {}, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=TRACE_CYCLES_PER_S)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_cli()
    run = run_traced if args.trace else run_timed
    runner, metrics, raw, errors = run(args.workload, args.seed, args.seconds)
    failed = len(runner.failures)
    for name, (value, unit) in metrics.items():
        tail = f"   (raw: {raw[name][0]:.6g})" if name in raw and raw[name][0] != value else ""
        print(f"{name:52s} {value:.6g} {unit}{tail}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": len(runner.results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
