"""Gyro-log ingestion and piecewise-constant attitude propagation.

A gyro log is a time-stamped sequence of body angular rates.  Propagation
holds the rate constant over each sampling interval (zero-order hold), so
each interval is a constant-S problem with ``S = hat(omega_i)``.  The
hold makes the per-interval exact flow available as a reference, so
integrator error can be measured without entangling it with interpolation
error.

Both pipelines work through the log a block of intervals at a time: the
skew coefficients of a block come straight from the already validated rate
array, and its one-step maps (or exact rotations) come from one stacked
closed-form evaluation, with no linear solve.  Each interval's map is
reduced to one matrix (its power of phi by binary powering, for the
integrators), and the block's states are the prefix products of those
matrices applied to the state that starts the block, so no Python-level
loop runs per interval or per step.  Blocks keep the temporaries a fixed
size however long the log is.
"""

from dataclasses import dataclass

import numpy as np

from .diagnostics import Trajectory, require_orthogonal_start
from .integrators import Span, metered, one_step_map
from .linalg import OrthogonalState, _exp_coefficients, hat_stack, power, rodrigues, scan

GYRO_HEADER = "t,wx,wy,wz"

# intervals whose maps are built in one stacked call
_BLOCK = 512


class GyroLogError(ValueError):
    """Malformed or mis-ordered gyro log; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


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
        if np.any(np.diff(times) <= 0):
            raise GyroLogError("sample times must be strictly increasing")
        times.setflags(write=False)
        rates.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rates", rates)

    def __len__(self):
        return self.times.shape[0]


def parse_gyro_csv(text):
    """Parse the gyro CSV format into a :class:`GyroLog`.

    Format: ``#``-prefixed and blank lines are ignored; the first data line
    must be the header ``t,wx,wy,wz``; each following line holds four reals
    (time in seconds, rates in rad/s).  Errors report the physical 1-based
    line number, including ordering violations.
    """
    times = []
    rates = []
    header_seen = False
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        last_line = lineno
        if not stripped or stripped.startswith("#"):
            continue
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
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise GyroLogError(f"non-numeric field in {stripped!r}", lineno)
        if times and values[0] <= times[-1]:
            raise GyroLogError(
                f"time {values[0]!r} does not increase past {times[-1]!r}", lineno
            )
        times.append(values[0])
        rates.append(values[1:])
    if not header_seen:
        raise GyroLogError("missing header line", max(last_line, 1))
    if not times:
        raise GyroLogError("log contains no samples", last_line)
    return GyroLog(np.array(times), np.array(rates))


def _initial_state(log, q0, allow_nonorthogonal):
    if len(log) < 2:
        raise GyroLogError("propagation needs at least 2 samples")
    t0 = float(log.times[0])
    if q0 is None:
        return OrthogonalState(np.eye(3), t0)
    if q0.t != t0:
        raise ValueError(
            f"starting state time {q0.t} must equal the first sample time {t0}"
        )
    if not allow_nonorthogonal:
        require_orthogonal_start(q0.q, "starting attitude", "allow_nonorthogonal=True")
    return q0


def _blocks(log):
    """``(start, stop, skew stack)`` for each block of intervals of the log."""
    for start in range(0, len(log) - 1, _BLOCK):
        stop = min(start + _BLOCK, len(log) - 1)
        yield start, stop, hat_stack(log.rates[start:stop])


def _grid(log, start, stop, h):
    """Step counts and last-step lengths of intervals ``start`` to ``stop - 1``."""
    return Span.grid(log.times[start:stop], log.times[start + 1 : stop + 1], h)


def propagate_gyro(log, config, q0=None, allow_nonorthogonal=False):
    """Integrate a gyro log with zero-order hold on the rates.

    Within each interval ``[t_i, t_{i+1})`` the rate of sample i is held
    constant, the coefficient ``S = hat(omega_i)`` is built, and the state
    advances with the configured method at step ``config.step`` (the last
    step of each interval shrunk to land on the boundary).  Records are
    emitted at the sample boundaries.  The maps of a block of intervals come
    in closed form, with no stage solve, in two stacked calls: one for h and
    one for the last steps.  An interval of n steps becomes the one matrix
    ``phi_last @ phi^(n-1)``, the expression a direct run uses for its last
    record, and the block's records are the prefix products of these
    matrices applied to the state at the start of the block.  The products are grouped differently from a
    step-by-step march, so records agree with one to rounding, not bit for
    bit; a single interval agrees with a direct run exactly.  Raises
    :class:`~skewflow.integrators.NonFiniteStateError` at the earlier of the
    first non-finite state and the first record with a non-finite meter.

    ``q0`` defaults to the identity at the first sample time; a supplied
    starting attitude must be orthogonal to within ``Q0_ORTH_TOL`` unless
    ``allow_nonorthogonal`` is set.
    """
    state = _initial_state(log, q0, allow_nonorthogonal)
    h = config.step
    qs = np.empty((len(log), 3, 3))
    qs[0] = q = state.q
    # overflow surfaces as NonFiniteStateError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop, m in _blocks(log):
            counts, h_last = _grid(log, start, stop, h)
            phi = one_step_map(config.method, m, h)
            maps = one_step_map(config.method, m, h_last) @ power(phi, counts - 1)
            qs[start + 1 : stop + 1] = scan(maps) @ q
            q = qs[stop]

    def steps_before(j):
        return int(_grid(log, 0, j, h)[0].sum())

    def state_failure(j):
        i = j - 1
        span = Span(config, hat_stack(log.rates[i]), log.times[i], log.times[i + 1])
        k = span.first_nonfinite(qs[i])
        return steps_before(i) + k, span.time(k)

    return metered(config, log.times, qs, steps_before, state_failure)


def reference_gyro(log, q0=None, allow_nonorthogonal=False):
    """Exact zero-order-hold propagation: per-interval matrix exponentials.

    Serves as the oracle for :func:`propagate_gyro` — under the same hold
    the only difference between the two is the integrator's own error.
    The exact rotations of a block of intervals come from one stacked
    Rodrigues evaluation, the formula :func:`~skewflow.linalg.expm` uses,
    and the block's states are their prefix products applied to the state
    at the start of the block.
    """
    state = _initial_state(log, q0, allow_nonorthogonal)
    dt = np.diff(log.times)
    qs = np.empty((len(log), 3, 3))
    qs[0] = q = state.q
    for start, stop, m in _blocks(log):
        rotations = rodrigues(dt[start:stop, None, None] * m, _exp_coefficients)
        qs[start + 1 : stop + 1] = scan(rotations) @ q
        q = qs[stop]
    return Trajectory("exact", 0.0, log.times, qs)
