"""Command-line interface.

Subcommands
-----------
check-tableau   inspect a Butcher tableau and its symplecticity defect
propagate       fixed-step propagation of Q' = S*Q with invariant meters
benchmark       long-run energy-conservation comparison (implicit midpoint
                vs explicit RK2) on the built-in reference problem
gyro            integrate a gyro CSV log, optionally against the exact flow

Exit codes: 0 success, 1 usage, 2 input validation or a run that does not
fit in memory, 3 numerical failure.  A run's output files are renamed
into place together, after all of them are written, so a run that stops on
an error leaves none; with them goes a flat ``key=value`` manifest so runs
can be reproduced byte for byte at the BLAS thread count it records.

``gyro`` reads and runs its log a block at a time, from a file or a pipe
alike, so its memory does not grow with the log; after an error it reads
the rest of the log, so that its errors come in the order a run on the
whole log meets them.
"""

import argparse
import contextlib
import errno
import functools
import os
import sys

import numpy as np

from . import __version__, gyro
from ._fmt17 import fmt17, text_blocks, text_parts
from .diagnostics import require_orthogonal_start, rk2_energy_forecast
from .integrators import (
    CLOSED_FORM_METHODS,
    IntegratorConfig,
    NonFiniteStateError,
    StageSolveError,
    propagate,
)
from .linalg import (
    InputError, OrthogonalState, SingularMatrixError, SkewMatrix, data_lines, hat, line_floats,
    table_floats,
)
from .tableaus import BUILTIN_NAMES, builtin, parse_tableau, symplecticity

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# reference problem: rate (0, -0.1, -2) rad/s, h = 0.1 s over [0, 2000] s
BENCH_OMEGA = (0.0, -0.1, -2.0)
BENCH_STEP = 0.1
BENCH_T_END = 2000.0

# the environment variables that set the BLAS thread count
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_NUMERIC_ERRORS = (StageSolveError, SingularMatrixError, NonFiniteStateError)
# a file that is not UTF-8 is refused input too
_INPUT_ERRORS = (InputError, OSError, UnicodeDecodeError)


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for input validation, so flag
    # misuse exits 1 instead of argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _outputs():
    """The output files of one run, renamed into place together.

    Yields ``write(path, parts)``, which writes the strings of ``parts`` as
    each comes to a fresh file beside ``path``, created with mode 0o666 so
    that the umask applies as it does for ``open``.  Every file is renamed
    into place when the block ends, after all of them are written; a block
    that raises unlinks them instead, so a run that stops on an error
    leaves none of its outputs.  A path that names the same file as one
    already written is refused, as one of the two would be lost.
    """
    staged = []  # (temporary name, path) of each file written whole

    def write(path, parts):
        if any(os.path.realpath(path) == os.path.realpath(p) for _, p in staged):
            raise InputError(f"{path}: named as two outputs of one run")
        directory = os.path.dirname(os.path.abspath(path))
        tmp = os.path.join(directory, f".skewflow-{os.urandom(8).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:
            # name the path asked for, not the temporary file beside it
            raise OSError(exc.errno, exc.strerror, path) from None
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                for part in parts:
                    fh.write(part)
        except BaseException:
            os.unlink(tmp)
            raise
        staged.append((tmp, path))

    try:
        yield write
        # a rename onto a directory fails, and one made cannot be undone:
        # refuse before any file is in place
        for _, path in staged:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)


def _manifest(subcommand, method="-", step=None, t_end=None, inputs="-", outputs="-"):
    """The text of a run's manifest, one ``key=value`` line an entry."""
    entries = {
        "subcommand": subcommand,
        "method": method,
        "step": fmt17(step) if step is not None else "-",
        "t_end": fmt17(t_end) if t_end is not None else "-",
        "input": inputs,
        "output": outputs,
        "seed": "-",  # no subcommand draws random numbers
        "version": __version__,
        # the bytes of a run depend on these too: the BLAS thread count
        # changes how LAPACK rounds above a few dozen dimensions
        "numpy": np.__version__,
        "blas_threads": ",".join(f"{name}:{os.environ.get(name, '-')}" for name in _BLAS_THREADS),
    }
    return ["".join(f"{key}={value}\n" for key, value in entries.items())]


def _trajectory_csv(traj):
    """The trajectory CSV of a run in text blocks."""
    return _csv_text([(traj, None)], False)


def _csv_text(parts, reference):
    """The trajectory CSV of a run whose records come in parts, pairs of a
    Trajectory and the reference's states (None without ``reference``);
    each text block's columns are stacked only when it is formatted."""
    header = "t,E,E_err,orth_defect,det_err" + (",ref_err" if reference else "")

    def rows_of(traj, ref_qs):
        columns = [traj.times, traj.energies, traj.energy_errors, traj.orth_defects,
                   traj.det_drifts]

        def rows(a, b):
            block = [column[a:b] for column in columns]
            if ref_qs is not None:
                block.append(np.linalg.norm(traj.qs[a:b] - ref_qs[a:b], axis=(1, 2)))
            return np.column_stack(block)

        return len(traj), rows

    yield header + "\n"
    yield from text_parts((rows_of(*part) for part in parts), 5 + reference, ",")


def _dump_q_text(traj):
    qs = traj.qs.reshape(len(traj), -1)
    return text_blocks(len(qs), qs.shape[1], lambda a, b: qs[a:b], " ")


def _load_matrix_file(path):
    """The square matrix of a whitespace-separated file: one loadtxt call over
    its data lines when that gives a square table, else the line parser."""
    with open(path) as fh:
        numbered = list(data_lines(fh))
    table = table_floats([stripped for _, stripped in numbered])
    if table is not None and table.shape[0] == table.shape[1]:
        return table
    return _parse_matrix_lines(path, numbered)


def _parse_matrix_lines(path, numbered):
    """The line parser of a matrix file: the reference, and the only source
    of its errors, each naming its line unless it concerns the whole matrix."""
    rows = [line_floats(lineno, stripped.split(), f"{stripped!r} of {path}")
            for lineno, stripped in numbered]
    if not rows:
        raise InputError(f"{path}: no matrix data found")
    if any(len(r) != len(rows) for r in rows):
        raise InputError(f"{path}: expected a square whitespace-separated matrix")
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
    raise InputError(f"unknown method {label!r} (known: {known}; or a tableau file)")


def _parse_omega(text):
    try:
        wx, wy, wz = (float(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"--omega expects three numbers wx,wy,wz, got {text!r}") from None
    return np.array([wx, wy, wz])


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
        print("  " + " ".join(fmt17(v) for v in row))
    print(f"defect: {fmt17(report.defect)}")
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
        # finite before metered: the meters of an infinite entry warn
        q0 = OrthogonalState(_load_matrix_file(args.q0), 0.0)
        if not args.allow_nonorthogonal:
            require_orthogonal_start(q0.q, "--q0 matrix", "--allow-nonorthogonal")
    else:
        q0 = OrthogonalState(np.eye(s.dim), 0.0)

    method = _resolve_method(args.method)
    config = IntegratorConfig(method=method, step=args.h)
    traj = propagate(config, s, q0, args.t_end, record_every=args.record_every)

    with _outputs() as write:
        write(args.out, _trajectory_csv(traj))
        outputs = args.out
        if args.dump_q is not None:
            write(args.dump_q, _dump_q_text(traj))
            outputs += "," + args.dump_q
        write(args.out + ".manifest", _manifest(
            "propagate",
            method=traj.method,
            step=args.h,
            t_end=args.t_end,
            inputs=source,
            outputs=outputs,
        ))
    print(f"wrote {args.out} ({len(traj)} records)")
    return EXIT_OK


def cmd_benchmark(args):
    os.makedirs(args.out, exist_ok=True)
    s = hat(np.array(BENCH_OMEGA))
    q0 = OrthogonalState(np.eye(3), 0.0)

    with _outputs() as write:
        results = {}
        for label, filename in (("cayley-midpoint", "midpoint.csv"), ("rk2-closed", "rk2.csv")):
            config = IntegratorConfig(method=label, step=BENCH_STEP)
            traj = propagate(config, s, q0, BENCH_T_END, record_every=1)
            write(os.path.join(args.out, filename), _trajectory_csv(traj))
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
            f"midpoint.max_abs_energy_err={fmt17(mid_energy)}",
            f"midpoint.max_orth_defect={fmt17(mid_orth)}",
            f"rk2.max_abs_energy_err={fmt17(float(np.max(np.abs(rk2.energy_errors))))}",
            f"rk2.final_energy={fmt17(rk2_final)}",
            f"rk2.forecast_energy={fmt17(forecast)}",
            f"rk2.forecast_rel_dev={fmt17(rk2_rel)}",
        ]
        lines += [f"check.{name}={'PASS' if ok else 'FAIL'}" for name, ok in checks]
        summary = "\n".join(lines) + "\n"
        # a run whose checks FAIL still writes every file, and exits 3
        write(os.path.join(args.out, "summary.txt"), [summary])
        write(os.path.join(args.out, "manifest.txt"), _manifest(
            "benchmark",
            method="cayley-midpoint,rk2-closed",
            step=BENCH_STEP,
            t_end=BENCH_T_END,
            outputs="midpoint.csv,rk2.csv,summary.txt",
        ))
    sys.stdout.write(summary)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_NUMERIC


def cmd_gyro(args):
    run = [0, None]  # records so far, and the last block

    def counted(blocks):
        for traj, refs in blocks:
            run[:] = run[0] + len(traj), traj
            yield traj, refs

    with open(args.input) as fh, _outputs() as write:
        blocks = rows = gyro.read_rows(fh)
        try:
            config = IntegratorConfig(method=_resolve_method(args.method), step=args.h)
            blocks = gyro.stream_gyro(rows, config, args.reference)
            write(args.out, _csv_text(counted(blocks), args.reference))
        except _NUMERIC_ERRORS + _INPUT_ERRORS:
            # a run on the whole log meets the log's errors before those of
            # --method and --h, and the run's before the output's: so the
            # rest of the log is read, and run once the run has started,
            # and an error met there wins
            for _ in blocks:
                pass
            raise
        write(args.out + ".manifest", _manifest(
            "gyro",
            method=run[1].method,
            step=args.h,
            t_end=float(run[1].times[-1]),
            inputs=args.input,
            outputs=args.out,
        ))
    print(f"wrote {args.out} ({run[0]} records)")
    return EXIT_OK


# built on the first call and reused: main only reads it.  The cmd_*
# functions are bound here once; each looks up what it calls when it runs
@functools.cache
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
    except MemoryError as exc:
        # a run too large for this process is refused like one too large
        # for RECORD_BYTES_MAX; the output was never renamed into place
        detail = f": {exc}" if str(exc) else ""
        print(f"skewflow: out of memory{detail}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
