"""Gyro-log ingestion and piecewise-constant attitude propagation.

A gyro log is a time-stamped sequence of body angular rates.  Propagation
holds the rate constant over each sampling interval (zero-order hold),
builds the skew coefficient with the hat map, and advances the attitude
with the configured integrator.  The hold makes the per-interval exact
flow available as a reference, so integrator error can be measured without
entangling it with interpolation error.
"""

from dataclasses import dataclass

import numpy as np

from .diagnostics import Trajectory, require_orthogonal_start
from .integrators import NonFiniteStateError, Span, method_label
from .linalg import OrthogonalState, expm, hat

GYRO_HEADER = "t,wx,wy,wz"


class GyroLogError(ValueError):
    """Malformed or mis-ordered gyro log; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class GyroSample:
    """One angular-rate sample: time in seconds, rate in rad/s."""

    t: float
    omega: np.ndarray


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

    def __iter__(self):
        for t, w in zip(self.times, self.rates):
            yield GyroSample(float(t), w)


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


def _boundary_states(log, q0, advance):
    """Stack of the states at the sample boundaries; ``advance(i, q)`` crosses interval i."""
    qs = np.empty((len(log), 3, 3))
    qs[0] = q = q0.q
    for i in range(len(log) - 1):
        qs[i + 1] = q = advance(i, q)
    return qs


def propagate_gyro(log, config, q0=None, allow_nonorthogonal=False):
    """Integrate a gyro log with zero-order hold on the rates.

    Within each interval ``[t_i, t_{i+1})`` the rate of sample i is held
    constant, the coefficient ``S = hat(omega_i)`` is built, and the state
    advances with the configured method at step ``config.step`` (the last
    step of each interval shrunk to land on the boundary).  Records are
    emitted at the sample boundaries.  Raises
    :class:`~skewflow.integrators.NonFiniteStateError` when the state
    overflows.

    ``q0`` defaults to the identity at the first sample time; a supplied
    starting attitude must be orthogonal to within ``Q0_ORTH_TOL`` unless
    ``allow_nonorthogonal`` is set.
    """
    state = _initial_state(log, q0, allow_nonorthogonal)
    times = log.times.tolist()

    def span(i):
        return Span(config, hat(log.rates[i]).mat, times[i], times[i + 1])

    # overflow surfaces as NonFiniteStateError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        qs = _boundary_states(log, state, lambda i, q: span(i).march(q))
        finite = np.isfinite(qs).all(axis=(1, 2))
        if not finite.all():
            i = int(np.argmin(finite)) - 1
            bad = span(i)
            k = bad.first_nonfinite(qs[i])
            before = sum(Span.count(times[j], times[j + 1], config.step) for j in range(i))
            raise NonFiniteStateError(before + k, bad.time(k))
    return Trajectory(method_label(config.method), config.step, log.times, qs)


def reference_gyro(log, q0=None, allow_nonorthogonal=False):
    """Exact zero-order-hold propagation: per-interval matrix exponentials.

    Serves as the oracle for :func:`propagate_gyro` — under the same hold
    the only difference between the two is the integrator's own error.
    """
    state = _initial_state(log, q0, allow_nonorthogonal)
    times = log.times.tolist()

    def advance(i, q):
        return expm(hat(log.rates[i]), times[i + 1] - times[i]) @ q

    return Trajectory("exact", 0.0, log.times, _boundary_states(log, state, advance))
