"""Gyro-log ingestion and piecewise-constant attitude propagation.

A gyro log is a time-stamped sequence of body angular rates.  Propagation
holds the rate constant over each sampling interval (zero-order hold), so
each interval is a constant-S problem with ``S = hat(omega_i)``.  The
hold makes the per-interval exact flow available as a reference, so
integrator error can be measured without entangling it with interpolation
error.

Both pipelines march through the log a block of intervals at a time with
:func:`~skewflow.integrators.march`, as ``propagate`` marches its records:
a block's skew coefficients come straight from the validated rate array,
each interval's map is one matrix, and the block's states are the prefix
products of those maps applied to the state that ends the block before,
so no Python-level loop runs per interval or per step.  An integrator's
interval of n steps, ``phi_last @ phi^(n-1)``, and its exact rotation are
both :func:`~skewflow.linalg.skew_function`, Rodrigues' formula from one
complex number per interval: the n-step map's ``w`` (see
:func:`~skewflow.integrators.one_step_map`) or ``exp(iy)``
(:func:`~skewflow.linalg.cis`).  Blocks of ``_BLOCK`` intervals keep the
temporaries under 1 MB however long the log is, and are large enough that
numpy's fixed cost per call stops dominating.

A log is read a chunk of whole lines at a time by :func:`read_rows`.  A
chunk of four finite numbers a line, its times increasing past the last
time read, is parsed in one ``np.loadtxt`` call; any other chunk goes to
a line-by-line parser that gives the same samples wherever both succeed,
and whose errors carry the physical line number.  :func:`stream_gyro`
marches and meters each block of ``_BLOCK`` intervals as it arrives, from
the states that end the block before and against the first record.  Its
records are :func:`propagate_gyro`'s bit for bit, its errors are the ones
propagate_gyro raises on the whole log, and it holds one block, not the
log, so its memory does not grow with the log's length.
"""

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import Trajectory, require_orthogonal_start
from .integrators import NonFiniteStateError, grid, march, metered, one_step_map
from .linalg import (
    InputError, OrthogonalState, cis, data_lines, hat_stack, line_floats, scan, skew_function,
    table_floats,
)

GYRO_HEADER = "t,wx,wy,wz"

# intervals whose maps are built and marched in one stacked call.  A block
# makes about 180 numpy calls on 3x3 stacks, so small blocks pay mostly call
# overhead.  Propagate plus reference, 10^4 samples, 2-vCPU x86-64: 29.5 /
# 23.3 / 19.7 / 21.6 ms at 512 / 1024 / 2048 / 4096, with 0.24 / 0.46 /
# 0.85 / 1.64 MB of temporaries a block (2 MB of L2 a core); at 10^5
# samples 4096 is 5% faster than 2048 and 8192 10%.
_BLOCK = 2048
# characters of text each read of a streamed log asks for: about 2000
# lines of a log written with 17 digits, so one loadtxt call a block
_READ_SIZE = 1 << 17


class GyroLogError(InputError):
    """Malformed or mis-ordered gyro log; carries the 1-based line number."""


@dataclass(frozen=True)
class GyroLog:
    """Strictly time-ordered angular-rate samples (struct-of-arrays).

    ``times`` has shape (n,), ``rates`` shape (n, 3).  The rate of the last
    sample is never integrated; it only terminates the final interval.
    """

    times: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float).reshape(-1)
        rates = np.array(self.rates, dtype=float)
        if rates.shape != (times.shape[0], 3):
            raise GyroLogError(
                f"rates must have shape (n, 3) matching {times.shape[0]} times, "
                f"got {rates.shape}"
            )
        if times.shape[0] < 1:
            raise GyroLogError("log must contain at least one sample")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(rates))):
            raise GyroLogError("log contains non-finite values")
        if np.any(times[1:] <= times[:-1]):
            raise GyroLogError("sample times must be strictly increasing")
        for name, arr in (("times", times), ("rates", rates)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.times.shape[0]


def parse_gyro_csv(text):
    """Parse the gyro CSV format into a :class:`GyroLog`.

    Format: ``#``-prefixed and blank lines are ignored; the first data line
    must be the header ``t,wx,wy,wz``; each following line holds four finite
    reals (time in seconds, rates in rad/s).  Errors report the physical
    1-based line number, including ordering violations.  The text is read
    by :func:`read_rows`, as ``skewflow gyro`` reads a file.
    """
    rows = np.concatenate(list(read_rows(io.StringIO(text, newline=None))))
    return GyroLog(rows[:, 0], rows[:, 1:])


def _parse_lines(lines, offset=0, last=-math.inf, header_seen=False):
    """The line-by-line parser of ``lines``, which follow ``offset`` lines of
    the log, the last of whose samples is at time ``last``: the ``(k, 4)``
    table of their samples, and whether the header has been seen by their
    end.  Every error names its physical line."""
    rows = []
    for lineno, stripped in data_lines(lines):
        lineno += offset
        if not header_seen:
            if stripped != GYRO_HEADER:
                raise GyroLogError(
                    f"expected header {GYRO_HEADER!r}, got {stripped!r}", lineno
                )
            header_seen = True
            continue
        fields = stripped.split(",")
        if len(fields) != 4:
            raise GyroLogError(f"expected 4 fields, got {len(fields)}", lineno)
        values = line_floats(lineno, fields, repr(stripped), GyroLogError)
        if values[0] <= last:
            raise GyroLogError(f"time {values[0]!r} does not increase past {last!r}", lineno)
        last = values[0]
        rows.append(values)
    return np.array(rows).reshape(-1, 4), header_seen


def _initial_state(log, q0, allow_nonorthogonal):
    if len(log) < 2:
        raise GyroLogError("propagation needs at least 2 samples")
    t0 = float(log.times[0])
    if q0 is None:
        return OrthogonalState(np.eye(3), t0)
    if q0.t != t0:
        raise InputError(f"starting state time {q0.t} must equal the first sample time {t0}")
    if not allow_nonorthogonal:
        require_orthogonal_start(q0.q, "starting attitude", "allow_nonorthogonal=True")
    return q0


def _interval_maps(config, times, rates, counts=None):
    # the map of each interval between consecutive samples of a block; the
    # list counts, when given, is set to their step counts as Python ints
    n, h_last = grid(times[:-1], times[1:], config.step)
    if counts is not None:
        counts[:] = n.tolist()
    return one_step_map(config.method, hat_stack(rates[:-1]), config.step, n, h_last)


def _rotations(times, rates):
    # the exact rotation of each interval between consecutive samples of a block
    dt = times[1:] - times[:-1]
    return skew_function(dt[:, None, None] * hat_stack(rates[:-1]), cis)


def _march(q, times, rates, maps):
    """The state at each sample from ``q`` at the first, ``_BLOCK`` intervals
    at a time: the prefix products of ``maps(times, rates)`` of a block's
    samples applied to the state that ends the block before.  So a log cut
    at a block boundary and marched on from its last state gives the same
    bits as the whole log."""
    return march(q, len(times), _BLOCK, lambda a, b: scan(maps(times[a : b + 1], rates[a : b + 1])))


def propagate_gyro(log, config, q0=None, allow_nonorthogonal=False):
    """Integrate a gyro log with zero-order hold on the rates.

    Within each interval ``[t_i, t_{i+1})`` the rate of sample i is held
    constant, the coefficient ``S = hat(omega_i)`` is built, and the state
    advances with the configured method at step ``config.step`` (the last
    step of each interval shrunk to land on the boundary).  Records are
    emitted at the sample boundaries.  An interval of n steps is the one
    matrix ``phi_last @ phi^(n-1)``, the end map of a direct run, and one
    :func:`~skewflow.integrators.one_step_map` call builds those of a block.
    The products are grouped differently from a step-by-step march, so
    records agree with one to rounding, not bit for bit; a single interval
    agrees with a direct run exactly.  Raises
    :class:`~skewflow.integrators.NonFiniteStateError` at the first record
    whose state or a meter is non-finite, with the step and time of the
    sample that ends the failing interval.

    ``q0`` defaults to the identity at the first sample time; a supplied
    starting attitude must be orthogonal to within ``Q0_ORTH_TOL`` unless
    ``allow_nonorthogonal`` is set.
    """
    state = _initial_state(log, q0, allow_nonorthogonal)
    h = config.step

    # overflow surfaces as NonFiniteStateError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        qs = _march(state.q, log.times, log.rates, functools.partial(_interval_maps, config))

    def steps_before(j):
        # Python ints: the step counts of a long log can sum past 2**63
        return sum(grid(log.times[:j], log.times[1 : j + 1], h)[0].tolist())

    return metered(config, log.times, qs, steps_before)


def reference_gyro(log, q0=None, allow_nonorthogonal=False):
    """Exact zero-order-hold propagation: per-interval matrix exponentials.

    Serves as the oracle for :func:`propagate_gyro` — under the same hold
    the only difference between the two is the integrator's own error.
    The exact rotations of a block of intervals come from one stacked
    :func:`~skewflow.linalg.skew_function` call with the ``w`` that
    :func:`~skewflow.linalg.expm` passes, :func:`~skewflow.linalg.cis`,
    and are marched as :func:`propagate_gyro` marches its maps.  Its
    meters are computed only when read.
    """
    state = _initial_state(log, q0, allow_nonorthogonal)
    return Trajectory("exact", 0.0, log.times, _march(state.q, log.times, log.rates, _rotations))


def read_rows(fh):
    """Yield the samples of the log read from ``fh`` as ``(k, 4)`` tables,
    the whole lines of about ``_READ_SIZE`` characters of text at a time,
    and raise :class:`GyroLogError` at the first line the log is refused on.

    A chunk whose lines, empty ones aside, all hold four finite numbers,
    with times strictly increasing past the last time read, is one
    ``np.loadtxt`` call (see :func:`~skewflow.linalg.table_floats`); every
    other chunk goes to the line-by-line parser, told how many lines and
    which time come before it.  ``fh`` translates every line end to
    ``\\n``, as a file opened in text mode does; chunks are cut there, where
    ``str.splitlines`` breaks too, so their lines are those of the whole
    text.  A missing header and a log with no samples are refused at the
    end.
    """
    offset, last, header_seen = 0, -math.inf, False
    for lines in _chunks(fh):
        # the lines loadtxt may read: the header must already be behind them
        body = lines if header_seen else lines[1:] if lines[0] == GYRO_HEADER else None
        table = None if body is None else table_floats(body, ",")
        if (table is not None and table.shape[1] == 4 and table[0, 0] > last
                and np.all(table[1:, 0] > table[:-1, 0])):
            header_seen = True
        else:
            table, header_seen = _parse_lines(lines, offset, last, header_seen)
        offset += len(lines)
        if len(table):
            # a Python float, whose repr the next chunk's errors print
            last = float(table[-1, 0])
            yield table
    if not header_seen:
        raise GyroLogError("missing header line", max(offset, 1))
    if last == -math.inf:
        raise GyroLogError("log contains no samples", offset)


def _chunks(fh):
    # the lines of each read of fh up to its last line end, the rest going
    # to the next
    tail = ""
    try:
        while text := fh.read(_READ_SIZE):
            head, end, tail = (tail + text).rpartition("\n")
            if end:
                yield (head + end).splitlines()
    except UnicodeDecodeError as exc:
        # the read's text is lost: its whole lines before the bad byte are
        # still parsed, so that a line refused there wins, as one refused
        # in an earlier read does
        good = exc.object[: exc.start].decode(exc.encoding)
        head, end, _ = (tail + good.replace("\r\n", "\n").replace("\r", "\n")).rpartition("\n")
        if end:
            yield (head + end).splitlines()
        # the bad byte's offset in the file: the bytes the read decoded end
        # where the file has been read to.  A pipe cannot tell, and keeps
        # the offset within the read
        try:
            at = fh.buffer.tell() - len(exc.object) + exc.start
        except OSError:
            raise exc from None
        bad = exc.object[exc.start]
        raise GyroLogError(f"'{exc.encoding}' codec can't decode byte 0x{bad:02x} in "
                           f"position {at}: {exc.reason}") from None
    if tail:
        yield tail.splitlines()


def _blocks(tables):
    """The times and rates of each block of ``_BLOCK`` intervals of the
    samples in ``tables``: each block after the first starts at the sample
    that ends the one before, as :func:`_march` cuts the whole log."""
    held, count = [], 0

    def block(rows):
        # contiguous columns, laid out as a GyroLog's are
        return np.array(rows[:, 0]), np.array(rows[:, 1:])

    for table in tables:
        held.append(table)
        count += len(table)
        while count > _BLOCK:
            rows = np.concatenate(held)
            yield block(rows[: _BLOCK + 1])
            held, count = [rows[_BLOCK:]], count - _BLOCK
    if count > 1:
        yield block(np.concatenate(held))


def stream_gyro(tables, config, reference):
    """:func:`propagate_gyro` of the log whose samples ``tables`` yields (see
    :func:`read_rows`), as :func:`~skewflow.integrators.metered`
    trajectories of its blocks of records, each with the block's
    :func:`reference_gyro` states when ``reference`` is set (else None).

    Each block is marched on from the states that end the block before
    and metered against the first record, so the blocks hold the whole
    run's records bit for bit while only one block is held.  Its errors
    are the ones propagate_gyro raises on the whole log, in the same
    order: after an error the rest of ``tables`` is read, so that an error
    in a later line comes first, and after a non-finite record the rest of
    the maps are built, as propagate_gyro builds every map before it
    meters a record.
    """
    counts = []  # the step counts of the block's intervals
    maps = functools.partial(_interval_maps, config, counts=counts)
    q = q_ref = np.eye(3)
    # Python ints: the step counts of a long log can sum past 2**63
    origin, steps = None, 0
    blocks = _blocks(tables)
    try:
        for times, rates in blocks:
            with np.errstate(over="ignore", invalid="ignore"):
                qs = _march(q, times, rates, maps)
                refs = _march(q_ref, times, rates, _rotations) if reference else None
            # a block after the first starts with the record that ended the one before
            first = 0 if origin is None else 1
            traj = metered(config, times[first:], qs[first:],
                           lambda j: steps + sum(counts[: j + first]), origin)
            if refs is not None:
                q_ref, refs = refs[-1], refs[first:]
            yield traj, refs
            q, origin, steps = qs[-1], np.eye(3), steps + sum(counts)
    except (ArithmeticError, ValueError) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            for times, rates in blocks:
                if isinstance(exc, NonFiniteStateError):
                    maps(times, rates)
        raise
    if origin is None:
        raise GyroLogError("propagation needs at least 2 samples")
