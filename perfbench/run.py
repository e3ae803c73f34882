"""skewflow benchmark: drive ``skewflow.cli.main`` on one seeded workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program under test is imported from ``src/`` next to this directory;
without it the run exits with code 2 and prints no result.  One client,
closed loop: the workload's CLI call is repeated back to back, in this
process, until ``--seconds`` of measuring are used.  Every repetition's
outputs are checked against the repository's own conservation tolerances;
a failed check, a nonzero exit code or an exception counts as a failed
operation.

Times are rescaled to a reference machine speed measured alongside the
workload (see ``speed.py``); the raw times are printed too.

``--trace 0`` reports the end-to-end metrics (medians over repetitions);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``tracer.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Lines before it give the environment and per-rep detail.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# one BLAS thread: the matrices are at most 80x80 and the machine is shared,
# so extra threads add contention noise and no speed; set before numpy loads
BLAS_THREADS = 1
BLAS_ENV = {k: str(BLAS_THREADS) for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

# fresh-interpreter imports timed before the loop and after every repetition,
# so that set-up is sampled across the whole run
SETUP_SPAWNS_FIRST = 3
SETUP_SPAWNS_PER_REP = 2
MIN_REPS = 3


class BenchError(Exception):
    """The benchmark cannot run here (program missing or not importable)."""


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "skewflow", "cli.py")):
        raise BenchError(f"program source not found under {SRC}")
    sys.path.insert(0, SRC)
    try:
        import skewflow.cli as cli
    except Exception as exc:  # any import failure means nothing can be measured
        raise BenchError(f"cannot import skewflow.cli: {exc!r}") from exc
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"skewflow.cli imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(spawns, probe):
    """Raw wall times of ``spawns`` fresh interpreters each importing ``skewflow.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    with probe.sampling():
        for _ in range(spawns):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", "import skewflow.cli"], cwd=ROOT,
                                  env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise BenchError(f"fresh import failed: {proc.stderr.decode(errors='replace')}")
    return times


def _deep_bytes(obj, seen):
    """Bytes retained by ``obj`` and everything it references, counted once."""
    import numpy as np

    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, np.ndarray):
        return size + (_deep_bytes(obj.base, seen) if obj.base is not None else 0)
    if isinstance(obj, (str, bytes, int, float, complex, bool, type(None))):
        return size
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    else:
        children = [getattr(obj, s) for s in getattr(type(obj), "__slots__", ())
                    if hasattr(obj, s)]
        if hasattr(obj, "__dict__"):
            children.append(obj.__dict__)
    return size + sum(_deep_bytes(c, seen) for c in children)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


@dataclass
class Rep:
    """One repetition: wall time at reference speed, raw wall time, the
    speed factor between them, and the bytes the run wrote."""

    wall: float
    raw: float
    factor: float
    written: int


class Runner:
    """Runs one prepared case repeatedly, checking each repetition."""

    def __init__(self, cli, case, workdir, probe):
        self.cli = cli
        self.case = case
        self.workdir = workdir
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.derived = {}

    def fail(self, rep, why):
        self.failed += 1
        self.failures.append(f"rep {rep}: {why}")

    def rep(self, tracer=None):
        """One CLI call, timed and checked."""
        rep = self.attempted
        self.attempted += 1
        outdir = os.path.join(self.workdir, f"rep{rep}")
        os.makedirs(outdir)
        argv = self.case.argv(outdir)
        gc.collect()
        code = error = None
        with contextlib.redirect_stdout(io.StringIO()), self.probe.sampling() as start:
            t0 = time.perf_counter()
            try:
                code = tracer.root(self.cli.main, argv) if tracer else self.cli.main(argv)
            except Exception:  # a crash fails the repetition, not the run
                error = traceback.format_exc()
            raw = time.perf_counter() - t0
        inside, factor = self.probe.rep_factor(start)
        if error:
            sys.stderr.write(error)
        written = _dir_bytes(outdir)
        if code != 0:
            self.fail(rep, f"exit code {code}")
        else:
            try:
                failures, derived = self.case.check(outdir)
            except Exception as exc:  # malformed outputs fail the repetition, not the run
                traceback.print_exc(file=sys.stderr)
                failures, derived = [f"outputs unreadable: {exc!r}"], {}
            if failures:
                self.fail(rep, "; ".join(failures))
            self.derived = derived
        shutil.rmtree(outdir)
        return Rep((raw - inside) * factor, raw, factor, written)


def _keep_going(start, seconds, raws, min_reps):
    if len(raws) < min_reps:
        return True
    return time.perf_counter() - start + statistics.median(raws) <= seconds


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(runner, seconds, min_reps, setup_times):
    reps = []
    start = time.perf_counter()
    while _keep_going(start, seconds, [r.raw for r in reps], min_reps):
        reps.append(runner.rep())
        setup_times += measure_setup(SETUP_SPAWNS_PER_REP, runner.probe)
    return reps


def _trace_layers(tracer, case, rep):
    """Per-layer figures of one traced repetition, plus count mismatches."""
    from tracer import LAYERS, ROOT as CLI

    layers = {}
    mismatches = []
    for layer in LAYERS:
        layers[layer] = (tracer.calls[layer], tracer.self_s[layer] * rep.factor)
        expected = case.counts.get(layer)
        if (expected is not None and not tracer.layer_absent(layer)
                and tracer.calls[layer] != expected):
            mismatches.append(f"{layer}.calls={tracer.calls[layer]}, computed {expected}")
    trajectories = (tracer.returns["integrators"] + tracer.returns["gyro.propagate"]
                    + tracer.returns["gyro.reference"])
    seen = set()
    record_bytes = sum(_deep_bytes(t, seen) for t in trajectories) / case.records if trajectories else 0
    logs = tracer.returns["gyro.parse"]
    samples = sum(len(log) for log in logs)
    if logs and samples != case.samples:
        mismatches.append(f"gyro.samples={samples}, generated {case.samples}")
    return {
        "layers": layers,
        "cli_self_s": tracer.self_s[CLI] * rep.factor,
        "record_bytes": record_bytes,
        "samples": samples,
        "bytes_written": rep.written,
        "absent": list(tracer.absent),
        "mismatches": mismatches,
    }


def run_traced(runner, case, seconds, min_pairs):
    from tracer import Tracer

    plain, traced, traces = [], [], []
    start = time.perf_counter()
    while _keep_going(start, seconds, [a.raw + b.raw for a, b in zip(plain, traced)], min_pairs):
        plain.append(runner.rep())
        tracer = Tracer(keep_returns=("integrators", "gyro.propagate", "gyro.reference",
                                      "gyro.parse"))
        failed_before = runner.failed
        with tracer.installed():
            traced.append(runner.rep(tracer))
        trace = _trace_layers(tracer, case, traced[-1])
        del tracer
        if trace["mismatches"] and runner.failed == failed_before:
            runner.fail(runner.attempted - 1, "; ".join(trace["mismatches"]))
        traces.append(trace)
    return plain, traced, traces


def per_layer_metrics(case, plain, traced, traces, derived, probe):
    med = statistics.median
    m = {}
    for layer in ("linalg.solve_linear", "linalg.det", "linalg.hat", "linalg.expm",
                  "diagnostics.meters"):
        m[f"{layer}.calls"] = _metric(traces[-1]["layers"][layer][0], "count")
        m[f"{layer}.self_s"] = _metric(med(t["layers"][layer][1] for t in traces), "s")
    m["diagnostics.record.bytes"] = _metric(traces[-1]["record_bytes"], "bytes")
    m["integrators.steps"] = _metric(case.steps, "count")
    m["integrators.flops_per_step"] = _metric(case.flops / case.steps, "flop")
    for metric, layer in (("integrators.self_s", "integrators"),
                          ("gyro.parse.self_s", "gyro.parse"),
                          ("gyro.propagate.self_s", "gyro.propagate"),
                          ("gyro.reference.self_s", "gyro.reference"),
                          ("tableaus.builtin.self_s", "tableaus.builtin")):
        m[metric] = _metric(med(t["layers"][layer][1] for t in traces), "s")
    m["gyro.samples"] = _metric(traces[-1]["samples"], "count")
    m["cli.self_s"] = _metric(med(t["cli_self_s"] for t in traces), "s")
    m["cli.bytes_written"] = _metric(traces[-1]["bytes_written"], "bytes")
    m["cli.raw_wall_s"] = _metric(med(r.raw for r in plain), "s")
    m["machine.probe_us"] = _metric(med(probe.samples) * 1e6, "us")
    m["diagnostics.max_abs_energy_err"] = _metric(derived.get("max_abs_energy_err", 0.0), "1")
    m["diagnostics.max_orth_defect"] = _metric(derived.get("max_orth_defect", 0.0), "1")
    m["gyro.max_ref_err"] = _metric(derived.get("max_ref_err", 0.0), "1")
    overhead = med(r.wall for r in traced) / med(r.wall for r in plain) - 1.0
    m["trace.overhead_frac"] = _metric(overhead, "1")
    m["trace.absent_names"] = _metric(len(traces[-1]["absent"]), "count")
    return m


def end_to_end_metrics(case, reps, setup_times, probe):
    med = statistics.median
    return {
        "wall_s": _metric(med(r.wall for r in reps), "s"),
        "steps_per_s": _metric(med(case.steps / r.wall for r in reps), "1/s"),
        "setup_s": _metric(med(setup_times) * probe.run_factor(), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _source_hash():
    digest = hashlib.sha256()
    for d, dirs, files in os.walk(os.path.join(SRC, "skewflow")):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args, workload):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _source_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "clients": 1,
        "loop": "closed",
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the inputs and repetitions (harness smoke test only)")
    return p.parse_args(argv)


def main(argv=None):
    sys.path.insert(0, HERE)
    from speed import SpeedProbe
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    probe = SpeedProbe()
    try:
        cli = _import_program()
        setup_times = [] if args.trace else measure_setup(SETUP_SPAWNS_FIRST, probe)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        case = workload.prepare(args.seed, workdir, args.tiny)
        runner = Runner(cli, case, workdir, probe)
        min_reps = 1 if args.tiny else MIN_REPS
        env = environment(args, workload)
        if args.trace:
            plain, traced, traces = run_traced(runner, case, args.seconds, max(1, min_reps - 1))
            metrics = per_layer_metrics(case, plain, traced, traces, runner.derived, probe)
            detail = {"raw_wall_s": [r.raw for r in plain],
                      "raw_traced_wall_s": [r.raw for r in traced],
                      "absent": traces[-1]["absent"]}
        else:
            reps = run_untraced(runner, args.seconds, min_reps, setup_times)
            metrics = end_to_end_metrics(case, reps, setup_times, probe)
            detail = {"raw_wall_s": [r.raw for r in reps],
                      "speed_factor": [r.factor for r in reps],
                      "raw_setup_s": setup_times, "steps": case.steps,
                      "records": case.records}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
