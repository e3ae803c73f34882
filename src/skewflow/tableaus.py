"""Butcher tableaus: validation, built-in catalogue, symplecticity checking.

A tableau collects the Runge-Kutta coefficients (A, b, c).  The symplectic
condition ``diag(b) @ A + A^T @ diag(b) - b b^T = 0`` guarantees that the
method preserves the Gram matrix of the linear flow; :func:`symplecticity`
reports the defect matrix and its Frobenius norm.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import InputError, data_lines, line_floats

C_CONSISTENCY_TOL = 1e-14
SYMPLECTIC_TOL = 1e-14


class TableauError(InputError):
    """Invalid Runge-Kutta coefficients."""


class TableauParseError(TableauError):
    """Malformed tableau file; carries the offending 1-based line number."""


@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients A (s x s), weights b (s,), abscissae c (s,).

    Construction validates finiteness and the consistency requirement
    ``c_i == sum_j a_ij`` to within ``C_CONSISTENCY_TOL``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    name: str | None = None

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float).reshape(-1)
        c = np.array(self.c, dtype=float).reshape(-1)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise TableauError(f"A must be square, got shape {a.shape}")
        s = a.shape[0]
        if s < 1:
            raise TableauError("tableau needs at least one stage")
        if b.shape != (s,) or c.shape != (s,):
            raise TableauError(
                f"b and c must have length {s}, got {b.shape[0]} and {c.shape[0]}"
            )
        for arr, label in ((a, "A"), (b, "b"), (c, "c")):
            if not np.all(np.isfinite(arr)):
                raise TableauError(f"{label} has non-finite entries")
        with np.errstate(over="ignore"):  # an infinite sum or difference fails
            row_sums = a.sum(axis=1)
            bad = np.abs(c - row_sums) > C_CONSISTENCY_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise TableauError(
                f"c is inconsistent with A row sums (row {i + 1}: "
                f"c = {float(c[i])!r}, row sum = {float(row_sums[i])!r})"
            )
        for name, arr in (("a", a), ("b", b), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def stages(self):
        return self.a.shape[0]

    @functools.cached_property
    def is_explicit(self):
        """True when A is strictly lower triangular (forward-substitutable);
        computed on the first read, as A cannot change."""
        return bool(np.all(np.triu(self.a) == 0.0))


_R = np.sqrt(3.0) / 6.0  # gauss2's abscissae are 1/2 -+ sqrt(3)/6
# each built-in name and its (A, b, c)
_CATALOGUE = {
    "midpoint": ([[0.5]], [1.0], [0.5]),
    "rk2-explicit": ([[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], [0.0, 0.5]),
    "gauss2": ([[0.25, 0.25 - _R], [0.25 + _R, 0.25]], [0.5, 0.5], [0.5 - _R, 0.5 + _R]),
    "rk4-classical": (
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
        [0.0, 0.5, 0.5, 1.0],
    ),
}

BUILTIN_NAMES = tuple(_CATALOGUE)


def builtin(name):
    """Return a catalogued tableau by name.

    Known names: ``midpoint`` (implicit, order 2, symplectic),
    ``rk2-explicit`` (order 2), ``gauss2`` (Gauss-Legendre, order 4,
    symplectic), ``rk4-classical`` (order 4).
    """
    try:
        a, b, c = _CATALOGUE[name]
    except KeyError:
        known = ", ".join(BUILTIN_NAMES)
        raise TableauError(f"unknown built-in tableau {name!r} (known: {known})")
    return ButcherTableau(a, b, c, name=name)


@dataclass(frozen=True)
class SymplecticityReport:
    """Defect matrix ``M = B A + A^T B - b b^T``, its Frobenius norm, verdict."""

    m: np.ndarray
    defect: float
    symplectic: bool


def symplecticity(t):
    """Evaluate the symplectic condition for a tableau.

    A vanishing defect matrix guarantees that the method preserves the Gram
    matrix of the linear flow exactly (in exact arithmetic).  On Q' = S*Q
    this is sufficient, not necessary: the map is R(hS) for the stability
    function R, and keeps the Gram matrix whenever ``|R(iy)| = 1`` for real
    y, as it is for the non-symplectic 2-stage Lobatto IIIA rule, whose R
    is the midpoint rule's.  The verdict uses an absolute threshold of
    ``SYMPLECTIC_TOL`` on the Frobenius norm, which exactly symplectic
    tableaus meet up to rounding in irrational coefficients.
    """
    bmat = np.diag(t.b)
    # coefficients near 1e308 overflow M to inf or nan, which is non-symplectic
    with np.errstate(over="ignore", invalid="ignore"):
        m = bmat @ t.a + t.a.T @ bmat - np.outer(t.b, t.b)
        defect = float(np.linalg.norm(m))
    m.setflags(write=False)
    return SymplecticityReport(m=m, defect=defect, symplectic=defect <= SYMPLECTIC_TOL)


def parse_tableau(text):
    """Parse the plain-text tableau format.

    Format: ``#`` comment lines and blank lines are ignored; the first data
    line is the stage count s; the next s lines are the rows of A (s finite
    reals each); the next line is b; an optional final line is c.  When c
    is omitted it is computed as the row sums of A.

    Raises :class:`TableauParseError` with a 1-based line number on malformed
    input, a non-finite value among it; tableau validation failures
    propagate as :class:`TableauError`.
    """
    lines = text.splitlines()
    rows = [(lineno, stripped.split()) for lineno, stripped in data_lines(lines)]
    if not rows:
        raise TableauParseError("no tableau data found", max(len(lines), 1))

    lineno, tokens = rows[0]
    if len(tokens) != 1:
        raise TableauParseError(
            f"expected the stage count alone, got {len(tokens)} values", lineno
        )
    try:
        s = int(tokens[0])
    except ValueError:
        raise TableauParseError(f"stage count {tokens[0]!r} is not an integer", lineno)
    if s < 1:
        raise TableauParseError(f"stage count must be >= 1, got {s}", lineno)

    needed = 1 + s + 1  # header, A rows, b
    if len(rows) < needed:
        raise TableauParseError(
            f"file ends before the full tableau ({len(rows) - 1} data lines "
            f"after the stage count, need at least {s + 1})",
            rows[-1][0],
        )
    if len(rows) > needed + 1:
        raise TableauParseError("unexpected extra data after the tableau", rows[needed + 1][0])

    def _reals(entry, what):
        lineno, tokens = entry
        if len(tokens) != s:
            raise TableauParseError(
                f"expected {s} values for {what}, got {len(tokens)}", lineno
            )
        return line_floats(lineno, tokens, what, TableauParseError)

    a = [_reals(rows[1 + i], f"row {i + 1} of A") for i in range(s)]
    b = _reals(rows[1 + s], "b")
    if len(rows) == needed + 1:
        c = _reals(rows[needed], "c")
    else:
        with np.errstate(over="ignore"):  # an infinite row sum is refused
            c = np.array(a).sum(axis=1)
    return ButcherTableau(a, b, c)
