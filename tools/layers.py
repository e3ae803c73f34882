"""Per-layer numbers of skewflow, one JSON object of seeded rows: value, unit and input.
A time is the median of 25 calls after a warm-up; the script gates nothing, CI its rss rows.
Run from the root as ``PYTHONPATH=src python tools/layers.py``, or PYTHONPATH at another src/."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import skewflow.cli as cli
from skewflow import (
    BUILTIN_NAMES, IntegratorConfig, OrthogonalState, SkewMatrix, Trajectory, builtin, hat,
    parse_gyro_csv, propagate, propagate_gyro,
)
from skewflow._fmt17 import format_rows
from skewflow.gyro import _READ_SIZE, read_rows, stream_gyro
from skewflow.integrators import one_step_map
from skewflow.linalg import checked_inverse

rows = {}


def row(name, value, unit, on):
    value = value if isinstance(value, int) else float(f"{value:.4g}")
    rows[name] = {"value": value, "unit": unit, "input": on}


def timed(name, call, scale, unit, on, fresh=lambda: None):
    """Row ``name``: the median of 25 calls of ``call(fresh())`` after a warm-up, times
    ``scale``.  Returns the warm-up's seconds; a call returning False stops the script."""
    times = []
    for _ in range(26):
        arg = fresh()
        start = time.perf_counter()
        if call(arg) is False:
            sys.exit(f"{name} failed")
        times.append(time.perf_counter() - start)
    row(name, np.median(times[1:]) * scale, unit, on)
    return times[0]


def skew(seed, *shape):
    a = np.random.default_rng(seed).standard_normal(shape)
    return a - np.swapaxes(a, -1, -2)


# each child below runs skewflow.cli.main(argv) with BLAS at one thread, as the benchmark does,
# and reads its own peak RSS, VmHWM, which starts again at exec (ru_maxrss keeps the fork's)
CHILD = """import json, pathlib, re, sys, time
import skewflow.cli
peak = lambda: int(re.search(r"VmHWM:\\s+(\\d+)",
                             pathlib.Path("/proc/self/status").read_text())[1]) / 1024
imported, start = peak(), time.perf_counter()
code = skewflow.cli.main(sys.argv[1:])
print(json.dumps([time.perf_counter() - start, imported, peak()]))
sys.exit(code)"""
env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1",
           OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def child_run(work, name, count, args):
    """Rows ``scale.<name>``, us a record of ``count``, and ``rss.<name>``, MB, of a fresh child's
    ``skewflow <args>``, whose failure stops the script; returns the peak's rise over import."""
    out = subprocess.run([sys.executable, "-c", CHILD, *args.split(), "--out", "out.csv"],
                         cwd=work, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    seconds, imported, peak = json.loads(out.splitlines()[-1])
    row(f"scale.{name}", seconds * 1e6 / count, "us a record", f"skewflow {args}")
    row(f"rss.{name}", peak, "MB", f"the child's peak RSS (VmHWM) in skewflow {args}")
    return peak - imported


with tempfile.TemporaryDirectory() as work:
    # no bytecode is read from the empty prefix or written, so each module is
    # compiled afresh, as the benchmark's setup_s pays it where none is kept
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import skewflow.cli"],
                         env=dict(env, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=work),
                         capture_output=True, text=True, check=True).stderr
    for us, module in re.findall(r"import time:\s+(\d+) \|\s+\d+ \|\s+(skewflow\S*)", err):
        row(f"import.{module}", int(us), "us", "self time in a fresh import of skewflow.cli")
    argv = ["propagate", "--method", "gauss2", "--omega", "0,0,1", "--h", "0.1",
            "--t-end", "1", "--out", os.path.join(work, "t.csv")]
    on = "3x3 gauss2 propagate of 10 steps"
    with contextlib.redirect_stdout(io.StringIO()):  # the process's first main call
        row("cli.main.first", timed("cli.main", lambda _: cli.main(argv) == 0, 1e3, "ms", on)
            * 1e3, "ms", on)
    np.savetxt(os.path.join(work, "s40.txt"), skew(40, 40, 40), fmt="%.17g")
    timed("_load_matrix_file", lambda _: cli._load_matrix_file(os.path.join(work, "s40.txt")),
          1e9 / 1600, "ns a number", "seeded 40x40 skew file")
    args = "propagate --method gauss2 --s-file s40.txt --h 0.1 --t-end 200 --record-every 100"
    row("rss.d40.first_call", child_run(work, "propagate.d40", 21, args), "MB",
        "rss.propagate.d40's rise over the child's import")
    for t_end, size in (("100", "1e5"), ("1000", "1e6")):
        child_run(work, f"propagate.{size}", float(size), "propagate --method cayley-midpoint "
                  f"--omega 0,-0.1,-2 --h 0.001 --t-end {t_end}")
    # seeded 400 Hz logs; the commented one has a preamble, and a comment and a blank line halfway
    samples = np.column_stack([np.arange(10**6) / 400.0,
                               np.random.default_rng(0).uniform(-2.0, 2.0, (10**6, 3))])
    for kind, count, preamble, comment in (("1e5", 10**5, "", ""), ("1e6.clean", 10**6, "", ""), (
            "1e6.commented", 10**6, "# preamble\n", "# a comment in the body\n")):
        with open(os.path.join(work, f"{kind}.csv"), "w") as fh:
            np.savetxt(fh, samples[:count // 2], delimiter=",", header=preamble + "t,wx,wy,wz",
                       footer=comment, comments="")
            np.savetxt(fh, samples[count // 2:count], delimiter=",")
        child_run(work, f"gyro.{kind}", count, f"gyro --input {kind}.csv --method "
                  "cayley-midpoint --h 0.0025 --reference")
row("src.lines", sum(p.read_bytes().count(b"\n") for p in Path(cli.__file__).parent.glob("*.py")),
    "lines", "skewflow/*.py")
rng = np.random.default_rng(0)
table = rng.standard_normal((2048, 5)) * 10.0 ** rng.integers(-20, 21, (2048, 5))
timed("format_rows", lambda _: format_rows(table, ","), 1e9 / table.size, "ns a number",
      "seeded 2048x5 table, exponents -20 to 20")
lines = [f"{0.01 * k!r},{x!r},{y!r},{z!r}\n"
         for k, (x, y, z) in enumerate(rng.uniform(-2.0, 2.0, (10**4, 3)).tolist())]
# a "#" line every half read's worth of lines puts one in every read the parser makes
every = _READ_SIZE // (2 * max(map(len, lines)))
commented = ["# c\n" + line if k % every == 1 else line for k, line in enumerate(lines)]
for kind, body, on in (("clean", lines, "seeded 10^4-sample log"),
                       ("commented", commented, "the same log with a # line in every read")):
    text = "t,wx,wy,wz\n" + "".join(body)
    timed(f"gyro.read_rows.{kind}", lambda _: list(read_rows(io.StringIO(text))), 1e6 / 10**4,
          "us a sample", on)
for d, n in ((3, 20001), (40, 201)):
    qs = np.random.default_rng(0).standard_normal((n, d, d))
    timed(f"meters.d{d}", lambda t: (t.orth_defects, t.det_drifts), 1e9 / n, "ns a record",
          f"orth_defects + det_drifts of a fresh Trajectory of a seeded {n}x{d}x{d} stack",
          lambda: Trajectory("x", 0.1, np.arange(n) * 0.1, qs))
s40 = skew(40, 40, 40)
s40 *= 2.0 / np.linalg.norm(s40, 2)  # the benchmark's norm: no explicit map overflows
for tableau in map(builtin, BUILTIN_NAMES):
    for m in (skew(3, 3, 3), skew(10, 10, 10), skew(40, 40, 40), skew(3, 2048, 3, 3)):
        shape = "x".join(map(str, m.shape))
        timed(f"one_step_map.{tableau.name}.{shape}", lambda _: one_step_map(tableau, m, 0.1),
              1e6 * m.shape[-1] ** 2 / m.size, "us a map", f"seeded {shape} skew S, h = 0.1")
    timed(f"one_step_map.{tableau.name}.40x40.run", lambda _: one_step_map(
          tableau, s40, 0.1, [100, 200, 2000], [0.1, 0.1, 200 - 1999 * 0.1]), 1e6, "us",
          "the record table and end map of a 40x40 propagate: seeded skew S of norm 2, "
          "h = 0.1, n = [100, 200, 2000]")
# the phases of ``skewflow benchmark``, as it runs them on the reference problem
s3, q3 = hat(cli.BENCH_OMEGA), OrthogonalState(np.eye(3))
on = (f"cayley-midpoint and rk2-closed, {cli.BENCH_T_END / cli.BENCH_STEP:.0f} steps of "
      f"h = {cli.BENCH_STEP} on hat{cli.BENCH_OMEGA}, every step recorded")


def both_runs(_=None):
    return [propagate(IntegratorConfig(label, cli.BENCH_STEP), s3, q3, cli.BENCH_T_END)
            for label in ("cayley-midpoint", "rk2-closed")]


timed("benchmark.propagate", both_runs, 1e3, "ms", on + ", meters included")
runs = both_runs()
timed("benchmark.meters", lambda fresh: [(t.energy_errors, t.det_drifts, t.orth_defects)
                                         for t in fresh], 1e3, "ms",
      on + ": the meters propagate reads, on fresh Trajectories of its records",
      lambda: [Trajectory(t.method, t.step, t.times, t.qs) for t in runs])
timed("benchmark.csv", lambda _: ["".join(cli._trajectory_csv(t)) for t in runs], 1e3, "ms",
      on + ": the CSV text of both")
# the blocks that cmd_gyro hands to the CSV writer, each a part of the text
parts = list(stream_gyro(read_rows(io.StringIO("t,wx,wy,wz\n" + "".join(lines))),
                         IntegratorConfig("cayley-midpoint", 0.0025), True, np.eye(3)))
timed("csv.gyro.streamed", lambda _: "".join(cli._csv_text(parts, True)), 1e3, "ms",
      "the CSV text of the streamed blocks of gyro --reference on the seeded 10^4-sample log, "
      "cayley-midpoint, h = 0.0025")
log = parse_gyro_csv("t,wx,wy,wz\n" + "".join(lines))


def whole_log(_):
    traj = propagate_gyro(log, IntegratorConfig("cayley-midpoint", 0.0025))
    return traj.energy_errors, traj.det_drifts, traj.orth_defects


timed("gyro.propagate_gyro", whole_log, 1e3, "ms", "the whole-log library call on the seeded "
      "10^4-sample log, cayley-midpoint, h = 0.0025, its meters read")
row("benchmark.midpoint.max_orth_defect", np.max(runs[0].orth_defects), "1",
    on + ": summary.txt's midpoint.max_orth_defect")
# an S an ulp off skew takes the general path, whose record table is one
# matrix power a row
near = hat(cli.BENCH_OMEGA).mat.copy()
near[0, 1] = np.nextafter(near[0, 1], np.inf)
timed("propagate.near_skew.3x3", lambda _: propagate(
    IntegratorConfig("cayley-midpoint", cli.BENCH_STEP), SkewMatrix(near), q3, cli.BENCH_T_END),
    1e3, "ms", f"cayley-midpoint on hat{cli.BENCH_OMEGA} with one entry an ulp off skew, "
    f"{cli.BENCH_T_END / cli.BENCH_STEP:.0f} steps of h = {cli.BENCH_STEP}, every step recorded")
system = np.eye(80) - np.kron(builtin("gauss2").a, 0.1 * skew(40, 40, 40))
timed("checked_inverse.gauss2.d40", lambda _: checked_inverse(system), 1e6, "us",
      "gauss2 stage system I - A kron hS of a seeded 40x40 skew S, h = 0.1")
json.dump(dict(python=sys.version.split()[0], numpy=np.__version__, rows=rows), sys.stdout,
          indent=1)
