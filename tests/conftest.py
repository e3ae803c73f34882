"""Shared test helpers: independent oracles and random-matrix samplers."""

import os

# one BLAS thread: the suite's matrices are tiny, and threads that contend for
# a core another process holds made the suite run six times slower.  Set
# before numpy is first imported, which is when BLAS reads them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

# reference problem used across the suite: rate vector, its hat matrix,
# squared rate norm, step and horizon of the long benchmark run
BENCH_RATE = np.array([0.0, -0.1, -2.0])
BENCH_MAT = np.array(
    [
        [0.0, 2.0, -0.1],
        [-2.0, 0.0, 0.0],
        [0.1, 0.0, 0.0],
    ]
)
BENCH_THETA_SQ = float(BENCH_RATE @ BENCH_RATE)
BENCH_STEP = 0.1
BENCH_T_END = 2000.0


def series_expm(x, dps=60, max_terms=2000):
    """Brute-force matrix exponential: plain power series in mpmath.

    Deliberately shares nothing with the library implementation (no
    scaling-and-squaring, no closed forms); precision comes from summing in
    high-precision arithmetic until the terms vanish.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    with mp.workdps(dps):
        xm = mp.matrix(x.tolist())
        acc = mp.eye(n)
        term = mp.eye(n)
        cutoff = mp.mpf(10) ** (-dps + 5)
        for k in range(1, max_terms):
            term = term * xm / k
            acc = acc + term
            if mp.norm(term, mp.inf) < cutoff:
                break
        else:
            raise RuntimeError("series did not converge; raise dps/max_terms")
        return np.array(acc.tolist(), dtype=float)


def mp_meters(q, dps=40):
    """``(det q, ||q^T q - I||_F)`` of a float matrix as ``dps``-digit mpf values.

    Shares nothing with the library's meters: the matrix is read exactly
    and both meters are evaluated in high-precision arithmetic, which has
    no overflow, so they serve as the exact values for any float input.
    """
    n = len(q)
    with mp.workdps(dps):
        m = mp.matrix(np.asarray(q, dtype=float).tolist())
        gram = m.T * m - mp.eye(n)
        defect = mp.sqrt(mp.fsum(gram[i, j] ** 2 for i in range(n) for j in range(n)))
        return mp.det(m), defect


def format_rows_oracle(rows, sep):
    """Per-value ``"%.17g"`` text of a 2-D array, one newline-ended line per
    row: the formatting every output had before the bulk formatter, kept as
    its reference."""
    line = sep.join(["%.17g"] * rows.shape[1])
    return "".join(line % tuple(row) + "\n" for row in rows.tolist())


def mp_rk2_energy(theta_sq, h, k, m=3, dps=50):
    """High-precision recomputation of the explicit-RK2 energy growth."""
    with mp.workdps(dps):
        growth = 1 + mp.mpf(h) ** 4 * mp.mpf(theta_sq) ** 2 / 4
        return float((m - 2) + 2 * growth**k)


def random_skew(rng, dim, norm=None):
    """Random dense skew-symmetric matrix, optionally scaled to a spectral norm."""
    a = rng.standard_normal((dim, dim))
    s = (a - a.T) / 2.0
    if norm is not None:
        current = np.linalg.norm(s, 2)
        if current == 0.0:
            s = np.zeros_like(s)
            if dim >= 2:
                s[0, 1], s[1, 0] = norm, -norm
        else:
            s *= norm / current
    return s


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def line_parser_log(text):
    """The gyro log of ``text`` by the line-by-line parser alone, over the
    whole text at once, with the reader's two refusals at its end: the
    reference for every streamed read."""
    from skewflow.gyro import GyroLog, GyroLogError, _parse_lines

    lines = text.splitlines()
    rows, header_seen = _parse_lines(lines)
    if not header_seen:
        raise GyroLogError("missing header line", max(len(lines), 1))
    if not len(rows):
        raise GyroLogError("log contains no samples", len(lines))
    return GyroLog(rows[:, 0], rows[:, 1:])
