"""Butcher tableaus: validation, built-in catalogue, symplecticity checking.

A tableau collects the Runge-Kutta coefficients (A, b, c).  The symplectic
condition ``diag(b) @ A + A^T @ diag(b) - b b^T = 0`` guarantees that the
method preserves the Gram matrix of the linear flow; :func:`symplecticity`
reports the defect matrix and its Frobenius norm.
"""

from dataclasses import dataclass

import numpy as np

C_CONSISTENCY_TOL = 1e-14
SYMPLECTIC_TOL = 1e-14


class TableauError(ValueError):
    """Invalid Runge-Kutta coefficients."""


class TableauParseError(TableauError):
    """Malformed tableau file; carries the offending 1-based line number."""

    def __init__(self, message, line):
        self.line = int(line)
        super().__init__(f"line {line}: {message}")


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
        row_sums = a.sum(axis=1)
        bad = np.abs(c - row_sums) > C_CONSISTENCY_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise TableauError(
                f"c is inconsistent with A row sums (row {i + 1}: "
                f"c = {float(c[i])!r}, row sum = {float(row_sums[i])!r})"
            )
        for arr in (a, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def stages(self):
        return self.a.shape[0]

    @property
    def is_explicit(self):
        """True when A is strictly lower triangular (forward-substitutable)."""
        return bool(np.all(np.triu(self.a) == 0.0))


def _midpoint():
    return ButcherTableau([[0.5]], [1.0], [0.5], name="midpoint")


def _rk2_explicit():
    return ButcherTableau(
        [[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], [0.0, 0.5], name="rk2-explicit"
    )


def _gauss2():
    r = np.sqrt(3.0) / 6.0
    return ButcherTableau(
        [[0.25, 0.25 - r], [0.25 + r, 0.25]],
        [0.5, 0.5],
        [0.5 - r, 0.5 + r],
        name="gauss2",
    )


def _rk4_classical():
    return ButcherTableau(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
        [0.0, 0.5, 0.5, 1.0],
        name="rk4-classical",
    )


_CATALOGUE = {
    "midpoint": _midpoint,
    "rk2-explicit": _rk2_explicit,
    "gauss2": _gauss2,
    "rk4-classical": _rk4_classical,
}

BUILTIN_NAMES = tuple(_CATALOGUE)


def builtin(name):
    """Return a catalogued tableau by name.

    Known names: ``midpoint`` (implicit, order 2, symplectic),
    ``rk2-explicit`` (order 2), ``gauss2`` (Gauss-Legendre, order 4,
    symplectic), ``rk4-classical`` (order 4).
    """
    try:
        factory = _CATALOGUE[name]
    except KeyError:
        known = ", ".join(BUILTIN_NAMES)
        raise TableauError(f"unknown built-in tableau {name!r} (known: {known})")
    return factory()


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
    m = bmat @ t.a + t.a.T @ bmat - np.outer(t.b, t.b)
    m.setflags(write=False)
    defect = float(np.linalg.norm(m))
    return SymplecticityReport(m=m, defect=defect, symplectic=defect <= SYMPLECTIC_TOL)


def parse_tableau(text):
    """Parse the plain-text tableau format.

    Format: ``#`` comment lines and blank lines are ignored; the first data
    line is the stage count s; the next s lines are the rows of A (s reals
    each); the next line is b; an optional final line is c.  When c is
    omitted it is computed as the row sums of A.

    Raises :class:`TableauParseError` with a 1-based line number on malformed
    input; tableau validation failures propagate as :class:`TableauError`.
    """
    rows = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        last_line = lineno
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped.split()))

    if not rows:
        raise TableauParseError("no tableau data found", max(last_line, 1))

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
        try:
            return [float(tok) for tok in tokens]
        except ValueError:
            raise TableauParseError(f"non-numeric value in {what}", lineno)

    a = [_reals(rows[1 + i], f"row {i + 1} of A") for i in range(s)]
    b = _reals(rows[1 + s], "b")
    if len(rows) == needed + 1:
        c = _reals(rows[needed], "c")
    else:
        c = np.array(a).sum(axis=1)
    return ButcherTableau(a, b, c)


def serialize_tableau(t):
    """Render a tableau in the :func:`parse_tableau` format.

    Numbers are written with 17 significant digits, so parsing the output
    reproduces the coefficients bit for bit.
    """
    lines = [str(t.stages)]
    for row in t.a:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    lines.append(" ".join(f"{v:.17g}" for v in t.b))
    lines.append(" ".join(f"{v:.17g}" for v in t.c))
    return "\n".join(lines) + "\n"
