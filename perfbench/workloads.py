"""The three benchmark workloads: seeded inputs, argv, expected counts, checks.

Everything here is computed from the workload definition alone (method,
dimension, time grid, generated input), never from skewflow's own code, so
the counts and checks stay an independent judge of the program they time.
Each workload is a ``Workload`` whose ``prepare(seed, workdir, tiny)``
writes the inputs and returns a ``Case`` holding the argv for one run, the
exact counts that run must produce, and the checker for its outputs.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

# the paper's reference problem, as fixed inside the ``benchmark`` subcommand
REF_OMEGA = (0.0, -0.1, -2.0)
REF_STEP = 0.1
REF_T_END = 2000.0

# tolerances the repository already gates on (README / acceptance suite)
ENERGY_TOL = 1e-8
ORTH_TOL = 1e-9
GYRO_ENERGY_TOL = 1e-9

D40_DIM = 40
D40_NORM = 2.0
D40_STEP = 0.1
D40_T_END = 200.0
D40_RECORD_EVERY = 100

GYRO_RATE_HZ = 100
GYRO_SAMPLES = 10_000
GYRO_STEP = 0.0025
GYRO_WALK_KEEP = 0.995
GYRO_WALK_SIGMA = 0.01

# stage count of each method the workloads use
_STAGES = {"cayley-midpoint": 1, "rk2-closed": 0, "gauss2": 2}


def n_steps(t0, t_end, h):
    """Steps on the fixed-step grid from t0 to t_end, last step shrunk.

    The grid rule of the CLI: ``ceil((t_end - t0) / h)`` with a 1e-9 slack
    so an interval that is a multiple of h up to rounding gains no step.
    """
    return max(int(math.ceil((t_end - t0) / h - 1e-9)), 1)


def flops_per_step(method, dim):
    """Modelled floating-point operations of one dense step.

    Counts the textbook dense kernels the method needs: products with S,
    the LU factorisation (2/3 n^3) and the triangular solves (2 n^2 per
    right-hand column) of its linear stage system, and the axpy updates.
    """
    d = dim
    if method == "rk2-closed":
        # Q + h S Q + h^2/2 S (S Q): two products, two axpys
        return 2 * (2 * d**3) + 2 * (2 * d**2)
    stages = _STAGES[method]
    n = stages * d
    if method == "cayley-midpoint":
        # rhs = Q + h/2 S Q, then solve (I - h/2 S) X = rhs
        return 2 * d**3 + 2 * d**2 + (2 * n**3) // 3 + 2 * n**2 * d
    # implicit RK: build I - h A(x)S, solve for the stacked stages with d
    # right-hand columns, form S Y_i per stage, add h b_i S Y_i to Q
    return n**2 + (2 * n**3) // 3 + 2 * n**2 * d + stages * 2 * d**3 + stages * 2 * d**2


def read_csv(path):
    """Read a trajectory CSV into ``{column: list of float}``."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = {name: [] for name in header}
        for line in fh:
            for name, tok in zip(header, line.strip().split(",")):
                cols[name].append(float(tok))
    return cols


def _max_abs(values):
    return max(abs(v) for v in values)


@dataclass
class Case:
    """One prepared run: argv for ``cli.main``, exact counts, output checks.

    ``argv(outdir)`` gives the CLI arguments writing into ``outdir``;
    ``counts`` maps a traced layer to the number of calls one run must make;
    ``steps`` and ``records`` are the integrator steps and trajectory records
    of the run; ``check(outdir)`` returns ``(failures, derived)`` where
    ``derived`` holds figures parsed from the outputs.
    """

    argv: object
    steps: int
    records: int
    counts: dict
    flops: int
    check: object
    samples: int = 0


def _meter_counts(records, trajectories):
    # per trajectory: one energy(q0) and det(q0) for the reference values,
    # then energy, orthogonality_defect and det once per record
    return {
        "linalg.det": records + trajectories,
        "diagnostics.meters": 2 * records + trajectories,
    }


def _check_rows(cols, name, expected_rows, t_end, failures):
    rows = len(cols.get("t", []))
    if rows != expected_rows:
        failures.append(f"{name}: {rows} records, expected {expected_rows}")
    elif cols["t"][-1] != t_end:
        failures.append(f"{name}: last record at t={cols['t'][-1]!r}, expected {t_end!r}")


# ---------------------------------------------------------------- longrun


def _prepare_longrun(seed, workdir, tiny):
    # the reference problem is fixed inside the CLI, so the seed changes
    # nothing here and ``tiny`` cannot shrink it
    steps_each = n_steps(0.0, REF_T_END, REF_STEP)
    records = 2 * (steps_each + 1)
    counts = {"linalg.solve_linear": steps_each, "linalg.hat": 0, "linalg.expm": 0,
              "gyro.parse": 0, "tableaus.builtin": 0}
    counts.update(_meter_counts(records, 2))
    flops = steps_each * (flops_per_step("cayley-midpoint", 3) + flops_per_step("rk2-closed", 3))

    def argv(outdir):
        return ["benchmark", "--out", outdir]

    def check(outdir):
        failures = []
        summary = {}
        try:
            with open(os.path.join(outdir, "summary.txt")) as fh:
                for line in fh:
                    key, _, value = line.strip().partition("=")
                    summary[key] = value
        except OSError as exc:
            return [f"summary.txt unreadable: {exc}"], {}
        verdicts = {k: v for k, v in summary.items() if k.startswith("check.")}
        if len(verdicts) != 4 or any(v != "PASS" for v in verdicts.values()):
            failures.append(f"verdicts {verdicts}")
        if summary.get("steps") != str(steps_each):
            failures.append(f"summary steps={summary.get('steps')}, expected {steps_each}")
        derived = {}
        for name in ("midpoint.csv", "rk2.csv"):
            cols = read_csv(os.path.join(outdir, name))
            _check_rows(cols, name, steps_each + 1, REF_T_END, failures)
            if name == "midpoint.csv" and cols["t"]:
                derived["max_abs_energy_err"] = _max_abs(cols["E_err"])
                derived["max_orth_defect"] = max(cols["orth_defect"])
        return failures, derived

    return Case(argv, 2 * steps_each, records, counts, flops, check)


# ------------------------------------------------------------ implicit-d40


def _skew_with_norm(rng, dim, norm):
    a = rng.standard_normal((dim, dim))
    s = a - a.T  # exactly antisymmetric in floating point
    return s * (norm / np.linalg.norm(s, 2))


def _prepare_d40(seed, workdir, tiny):
    rng = np.random.default_rng(seed)
    s = _skew_with_norm(rng, D40_DIM, D40_NORM)
    s_path = os.path.join(workdir, "s.txt")
    with open(s_path, "w") as fh:
        for row in s:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    t_end = D40_T_END / 100 if tiny else D40_T_END
    steps = n_steps(0.0, t_end, D40_STEP)
    records = 1 + sum(1 for k in range(1, steps + 1) if k % D40_RECORD_EVERY == 0 or k == steps)
    counts = {"linalg.solve_linear": steps, "linalg.hat": 0, "linalg.expm": 0,
              "gyro.parse": 0, "tableaus.builtin": 1}
    counts.update(_meter_counts(records, 1))

    def argv(outdir):
        return ["propagate", "--method", "gauss2", "--s-file", s_path,
                "--h", repr(D40_STEP), "--t-end", repr(t_end),
                "--record-every", str(D40_RECORD_EVERY),
                "--out", os.path.join(outdir, "traj.csv")]

    def check(outdir):
        failures = []
        cols = read_csv(os.path.join(outdir, "traj.csv"))
        _check_rows(cols, "traj.csv", records, t_end, failures)
        if not cols["t"]:
            return failures, {}
        derived = {"max_abs_energy_err": _max_abs(cols["E_err"]),
                   "max_orth_defect": max(cols["orth_defect"])}
        if not derived["max_abs_energy_err"] <= ENERGY_TOL:
            failures.append(f"max |E_err| {derived['max_abs_energy_err']:.3e} > {ENERGY_TOL:.0e}")
        if not derived["max_orth_defect"] <= ORTH_TOL:
            failures.append(f"max orth defect {derived['max_orth_defect']:.3e} > {ORTH_TOL:.0e}")
        return failures, derived

    return Case(argv, steps, records, counts, steps * flops_per_step("gauss2", D40_DIM), check)


# ----------------------------------------------------------------- gyro-zoh


def _gyro_log(rng, samples):
    base = np.array(REF_OMEGA)
    dev = np.zeros(3)
    times = [k / GYRO_RATE_HZ for k in range(samples)]
    rates = []
    for _ in range(samples):
        rates.append(base + dev)
        dev = GYRO_WALK_KEEP * dev + GYRO_WALK_SIGMA * rng.standard_normal(3)
    return times, rates


def _prepare_gyro(seed, workdir, tiny):
    rng = np.random.default_rng(seed)
    samples = GYRO_SAMPLES // 100 if tiny else GYRO_SAMPLES
    times, rates = _gyro_log(rng, samples)
    in_path = os.path.join(workdir, "gyro.csv")
    with open(in_path, "w") as fh:
        fh.write("t,wx,wy,wz\n")
        for t, w in zip(times, rates):
            fh.write(f"{t!r},{w[0]:.17g},{w[1]:.17g},{w[2]:.17g}\n")
    # times as the program reads them back from the text
    times = [float(repr(t)) for t in times]
    intervals = samples - 1
    steps = sum(n_steps(times[i], times[i + 1], GYRO_STEP) for i in range(intervals))
    records = samples  # per trajectory: the start plus one per interval
    counts = {"linalg.solve_linear": steps, "linalg.hat": 2 * intervals,
              "linalg.expm": intervals, "gyro.parse": 1, "tableaus.builtin": 0}
    counts.update(_meter_counts(2 * records, 2))

    def argv(outdir):
        return ["gyro", "--input", in_path, "--method", "cayley-midpoint",
                "--h", repr(GYRO_STEP), "--out", os.path.join(outdir, "att.csv"),
                "--reference"]

    def check(outdir):
        failures = []
        cols = read_csv(os.path.join(outdir, "att.csv"))
        _check_rows(cols, "att.csv", records, times[-1], failures)
        if not cols["t"]:
            return failures, {}
        derived = {"max_abs_energy_err": _max_abs(cols["E_err"]),
                   "max_orth_defect": max(cols["orth_defect"]),
                   "max_ref_err": max(cols.get("ref_err", [math.nan]))}
        if not derived["max_orth_defect"] <= ORTH_TOL:
            failures.append(f"max orth defect {derived['max_orth_defect']:.3e} > {ORTH_TOL:.0e}")
        e_dev = _max_abs([e - 3.0 for e in cols["E"]])
        if not e_dev <= GYRO_ENERGY_TOL:
            failures.append(f"max |E-3| {e_dev:.3e} > {GYRO_ENERGY_TOL:.0e}")
        ref = cols.get("ref_err", [])
        if len(ref) != records or not all(math.isfinite(v) for v in ref):
            failures.append("ref_err column missing or not finite")
        return failures, derived

    flops = steps * flops_per_step("cayley-midpoint", 3)
    return Case(argv, steps, 2 * records, counts, flops, check, samples=samples)


@dataclass(frozen=True)
class Workload:
    """A named workload; ``prepare(seed, workdir, tiny)`` returns a ``Case``."""

    name: str
    why: str
    prepare: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "conservation-longrun",
            "the paper's own 20000-step midpoint vs RK2 run with every step "
            "recorded, so the per-record meters and record layout dominate",
            _prepare_longrun,
        ),
        Workload(
            "implicit-d40",
            "gauss2 on a seeded 40x40 skew S with 21 records: the stacked stage "
            "solve dominates while the meters sit idle",
            _prepare_d40,
        ),
        Workload(
            "gyro-zoh",
            "seeded 10^4-sample gyro log whose rate changes every interval, so "
            "constant-S caching cannot help and the hat/expm reference runs",
            _prepare_gyro,
        ),
    )
}
