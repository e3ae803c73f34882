"""Command-line interface.

Subcommands
-----------
check-tableau   inspect a Butcher tableau and its symplecticity defect
propagate       fixed-step propagation of Q' = S*Q with invariant meters
benchmark       long-run energy-conservation comparison (implicit midpoint
                vs explicit RK2) on the built-in reference problem
gyro            integrate a gyro CSV log, optionally against the exact flow

Exit codes: 0 success, 1 usage, 2 input validation, 3 numerical failure.
Every output file is written atomically and accompanied by a flat
``key=value`` manifest so runs can be reproduced byte for byte.
"""

import argparse
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .diagnostics import require_orthogonal_start, rk2_energy_forecast
from .gyro import GyroLogError, parse_gyro_csv, propagate_gyro, reference_gyro
from .integrators import (
    CLOSED_FORM_METHODS,
    IntegratorConfig,
    NonFiniteStateError,
    StageSolveError,
    propagate,
)
from .linalg import OrthogonalState, SingularMatrixError, SkewMatrix, SkewnessError, hat
from .tableaus import (
    BUILTIN_NAMES,
    TableauError,
    builtin,
    parse_tableau,
    symplecticity,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# reference problem: rate (0, -0.1, -2) rad/s, h = 0.1 s over [0, 2000] s
BENCH_OMEGA = (0.0, -0.1, -2.0)
BENCH_STEP = 0.1
BENCH_T_END = 2000.0

_NUMERIC_ERRORS = (StageSolveError, SingularMatrixError, NonFiniteStateError)
_INPUT_ERRORS = (TableauError, GyroLogError, SkewnessError, ValueError, OSError)


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for input validation, so flag
    # misuse exits 1 instead of argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x):
    return f"{x:.17g}"


def _format_rows(rows, sep):
    """One line per row of a 2-D array, every number formatted as by :func:`_fmt`."""
    line = sep.join(["%.17g"] * rows.shape[1])
    return [line % tuple(row) for row in rows.tolist()]


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".skewflow-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(path, entries):
    lines = [f"{key}={value}" for key, value in entries.items()]
    _atomic_write(path, "\n".join(lines) + "\n")


def _manifest_entries(subcommand, method="-", step=None, t_end=None, inputs="-",
                      outputs="-", seed="-"):
    return {
        "subcommand": subcommand,
        "method": method,
        "step": _fmt(step) if step is not None else "-",
        "t_end": _fmt(t_end) if t_end is not None else "-",
        "input": inputs,
        "output": outputs,
        "seed": seed,
        "version": __version__,
    }


def _trajectory_csv(traj, ref=None):
    header = "t,E,E_err,orth_defect,det_err"
    columns = [traj.times, traj.energies, traj.energy_errors, traj.orth_defects,
               traj.det_drifts]
    if ref is not None:
        header += ",ref_err"
        columns.append(np.linalg.norm(traj.qs - ref.qs, axis=(1, 2)))
    lines = [header] + _format_rows(np.column_stack(columns), ",")
    return "\n".join(lines) + "\n"


def _dump_q_text(traj):
    return "\n".join(_format_rows(traj.qs.reshape(len(traj), -1), " ")) + "\n"


def _load_matrix_file(path):
    rows = []
    with open(path) as fh:
        for raw in fh:
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            rows.append([float(tok) for tok in stripped.split()])
    if not rows:
        raise ValueError(f"{path}: no matrix data found")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width != len(rows):
        raise ValueError(f"{path}: expected a square whitespace-separated matrix")
    return np.array(rows)


def _resolve_method(label):
    """Map a method label or tableau file path to a method object."""
    if label in CLOSED_FORM_METHODS:
        return label
    if label in BUILTIN_NAMES:
        return builtin(label)
    if os.path.exists(label):
        with open(label) as fh:
            return parse_tableau(fh.read())
    known = ", ".join(CLOSED_FORM_METHODS + BUILTIN_NAMES)
    raise ValueError(f"unknown method {label!r} (known: {known}; or a tableau file)")


def _parse_omega(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--omega expects wx,wy,wz, got {text!r}")
    return np.array([float(p) for p in parts])


def cmd_check_tableau(args):
    if args.name is not None:
        tableau = builtin(args.name)
    else:
        with open(args.file) as fh:
            tableau = parse_tableau(fh.read())
    report = symplecticity(tableau)
    print(f"stages: {tableau.stages}")
    print(f"kind: {'explicit' if tableau.is_explicit else 'implicit'}")
    print("defect matrix M = B A + A^T B - b b^T:")
    for row in report.m:
        print("  " + " ".join(_fmt(v) for v in row))
    print(f"defect: {_fmt(report.defect)}")
    print(f"verdict: {'symplectic' if report.symplectic else 'non-symplectic'}")
    return EXIT_OK


def cmd_propagate(args):
    if args.omega is not None:
        s = hat(_parse_omega(args.omega))
        source = f"omega={args.omega}"
    else:
        s = SkewMatrix(_load_matrix_file(args.s_file))
        source = args.s_file

    if args.q0 is not None:
        q0_mat = _load_matrix_file(args.q0)
        if not args.allow_nonorthogonal:
            require_orthogonal_start(q0_mat, "--q0 matrix", "--allow-nonorthogonal")
        q0 = OrthogonalState(q0_mat, 0.0)
    else:
        q0 = OrthogonalState(np.eye(s.dim), 0.0)

    method = _resolve_method(args.method)
    config = IntegratorConfig(method=method, step=args.h)
    traj = propagate(config, s, q0, args.t_end, record_every=args.record_every)

    _atomic_write(args.out, _trajectory_csv(traj))
    outputs = args.out
    if args.dump_q is not None:
        _atomic_write(args.dump_q, _dump_q_text(traj))
        outputs += "," + args.dump_q
    _write_manifest(
        args.out + ".manifest",
        _manifest_entries(
            "propagate",
            method=traj.method,
            step=args.h,
            t_end=args.t_end,
            inputs=source,
            outputs=outputs,
        ),
    )
    print(f"wrote {args.out} ({len(traj)} records)")
    return EXIT_OK


def cmd_benchmark(args):
    os.makedirs(args.out, exist_ok=True)
    s = hat(np.array(BENCH_OMEGA))
    q0 = OrthogonalState(np.eye(3), 0.0)

    results = {}
    for label, filename in (("cayley-midpoint", "midpoint.csv"), ("rk2-closed", "rk2.csv")):
        config = IntegratorConfig(method=label, step=BENCH_STEP)
        traj = propagate(config, s, q0, BENCH_T_END, record_every=1)
        _atomic_write(os.path.join(args.out, filename), _trajectory_csv(traj))
        results[label] = traj

    midpoint = results["cayley-midpoint"]
    rk2 = results["rk2-closed"]
    theta_sq = float(np.dot(BENCH_OMEGA, BENCH_OMEGA))
    n_steps = len(rk2) - 1
    forecast = rk2_energy_forecast(theta_sq, BENCH_STEP, n_steps, m=3)

    mid_energy = float(np.max(np.abs(midpoint.energy_errors)))
    mid_orth = float(np.max(midpoint.orth_defects))
    rk2_monotone = bool(np.all(np.diff(rk2.energy_errors) >= 0))
    rk2_final = float(rk2.energies[-1])
    rk2_rel = abs(rk2_final - forecast) / forecast

    checks = [
        ("midpoint-energy-bound(1e-8)", mid_energy <= 1e-8),
        ("midpoint-orthogonality-bound(1e-9)", mid_orth <= 1e-9),
        ("rk2-energy-monotone", rk2_monotone),
        ("rk2-final-vs-forecast(0.5%)", rk2_rel <= 5e-3),
    ]
    lines = [
        f"steps={n_steps}",
        f"midpoint.max_abs_energy_err={_fmt(mid_energy)}",
        f"midpoint.max_orth_defect={_fmt(mid_orth)}",
        f"rk2.max_abs_energy_err={_fmt(float(np.max(np.abs(rk2.energy_errors))))}",
        f"rk2.final_energy={_fmt(rk2_final)}",
        f"rk2.forecast_energy={_fmt(forecast)}",
        f"rk2.forecast_rel_dev={_fmt(rk2_rel)}",
    ]
    lines += [f"check.{name}={'PASS' if ok else 'FAIL'}" for name, ok in checks]
    summary = "\n".join(lines) + "\n"
    _atomic_write(os.path.join(args.out, "summary.txt"), summary)
    _write_manifest(
        os.path.join(args.out, "manifest.txt"),
        _manifest_entries(
            "benchmark",
            method="cayley-midpoint,rk2-closed",
            step=BENCH_STEP,
            t_end=BENCH_T_END,
            outputs="midpoint.csv,rk2.csv,summary.txt",
        ),
    )
    sys.stdout.write(summary)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_NUMERIC


def cmd_gyro(args):
    with open(args.input) as fh:
        log = parse_gyro_csv(fh.read())
    method = _resolve_method(args.method)
    config = IntegratorConfig(method=method, step=args.h)
    traj = propagate_gyro(log, config)
    ref = reference_gyro(log) if args.reference else None

    _atomic_write(args.out, _trajectory_csv(traj, ref=ref))
    _write_manifest(
        args.out + ".manifest",
        _manifest_entries(
            "gyro",
            method=traj.method,
            step=args.h,
            t_end=float(log.times[-1]),
            inputs=args.input,
            outputs=args.out,
        ),
    )
    print(f"wrote {args.out} ({len(traj)} records)")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="skewflow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"skewflow {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check-tableau", help="inspect a tableau's symplecticity")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--name", choices=BUILTIN_NAMES, help="built-in tableau")
    group.add_argument("--file", help="tableau file path")
    p.set_defaults(func=cmd_check_tableau)

    p = sub.add_parser("propagate", help="propagate Q' = S*Q with a fixed step")
    p.add_argument("--method", required=True,
                   help="closed-form label, built-in tableau name, or tableau file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--omega", help="angular rate wx,wy,wz (rad/s); implies 3x3")
    group.add_argument("--s-file", help="whitespace-separated MxM skew matrix file")
    p.add_argument("--h", type=float, required=True, help="step size (s)")
    p.add_argument("--t-end", type=float, required=True, help="final time (s)")
    p.add_argument("--q0", help="starting matrix file (default: identity)")
    p.add_argument("--record-every", type=int, default=1, help="record stride")
    p.add_argument("--allow-nonorthogonal", action="store_true",
                   help="accept a non-orthogonal starting matrix")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--dump-q", help="also write one flattened Q per record")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser(
        "benchmark",
        help="long-run conservation comparison on the built-in reference problem",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("gyro", help="integrate a gyro CSV log")
    p.add_argument("--input", required=True, help="gyro CSV path")
    p.add_argument("--method", required=True, help="method label or tableau file")
    p.add_argument("--h", type=float, required=True, help="step size (s)")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--reference", action="store_true",
                   help="add per-record error against the exact flow")
    p.set_defaults(func=cmd_gyro)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"skewflow: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _INPUT_ERRORS as exc:
        print(f"skewflow: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
