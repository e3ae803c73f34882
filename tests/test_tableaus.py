import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from skewflow import tableaus
from skewflow import (
    BUILTIN_NAMES,
    ButcherTableau,
    TableauError,
    TableauParseError,
    builtin,
    parse_tableau,
    serialize_tableau,
    symplecticity,
)

MIDPOINT_TEXT = "1\n0.5\n1\n"
RK2_TEXT = "2\n0 0\n0.5 0\n0 1\n"


def order_condition_residuals(t, order):
    """Residuals of the classical order conditions up to the given order."""
    a, b, c = t.a, t.b, t.c
    conds = [(b.sum(), 1.0)]
    if order >= 2:
        conds.append((b @ c, 1 / 2))
    if order >= 3:
        conds.append((b @ c**2, 1 / 3))
        conds.append((b @ (a @ c), 1 / 6))
    if order >= 4:
        conds.append((b @ c**3, 1 / 4))
        conds.append(((b * c) @ (a @ c), 1 / 8))
        conds.append((b @ (a @ c**2), 1 / 12))
        conds.append((b @ (a @ (a @ c)), 1 / 24))
    return [abs(lhs - rhs) for lhs, rhs in conds]


class TestCatalogue:
    def test_midpoint_coefficients(self):
        t = builtin("midpoint")
        assert t.stages == 1
        assert_array_equal(t.a, [[0.5]])
        assert_array_equal(t.b, [1.0])
        assert_array_equal(t.c, [0.5])

    def test_rk2_explicit_coefficients(self):
        t = builtin("rk2-explicit")
        assert t.stages == 2
        assert_array_equal(t.a, [[0.0, 0.0], [0.5, 0.0]])
        assert_array_equal(t.b, [0.0, 1.0])
        assert_array_equal(t.c, [0.0, 0.5])

    def test_gauss2_coefficients(self):
        r = np.sqrt(3.0) / 6.0
        t = builtin("gauss2")
        assert_array_equal(t.a, [[0.25, 0.25 - r], [0.25 + r, 0.25]])
        assert_array_equal(t.b, [0.5, 0.5])
        assert_array_equal(t.c, [0.5 - r, 0.5 + r])

    @pytest.mark.parametrize(
        "name,order",
        [("midpoint", 2), ("rk2-explicit", 2), ("gauss2", 4), ("rk4-classical", 4)],
    )
    def test_order_conditions_hold(self, name, order):
        residuals = order_condition_residuals(builtin(name), order)
        assert max(residuals) <= 1e-15

    def test_unknown_name(self):
        with pytest.raises(TableauError, match="unknown built-in"):
            builtin("rk99")

    def test_every_builtin_validates(self):
        for name in BUILTIN_NAMES:
            assert builtin(name).is_explicit in (True, False)


class TestIsExplicit:
    """``is_explicit`` is computed on the first read and kept: a later read
    runs no numpy, so the stability function's every call does not pay it."""

    @staticmethod
    def read_twice(monkeypatch, tableau):
        first = tableau.is_explicit
        monkeypatch.setattr(tableaus, "np", None)
        assert tableau.is_explicit is first
        return first

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_builtin(self, monkeypatch, name):
        explicit = {"midpoint": False, "rk2-explicit": True, "gauss2": False,
                    "rk4-classical": True}[name]
        assert self.read_twice(monkeypatch, builtin(name)) is explicit

    @pytest.mark.parametrize("text, explicit", [
        (RK2_TEXT, True),
        (MIDPOINT_TEXT, False),
        # one tiny diagonal entry makes a tableau implicit
        ("2\n0 0\n0 1e-300\n0.5 0.5\n", False),
    ], ids=["rk2", "midpoint", "tiny-diagonal"])
    def test_a_parsed_file(self, monkeypatch, text, explicit):
        assert self.read_twice(monkeypatch, parse_tableau(text)) is explicit


class TestValidation:
    def test_midpoint_is_implicit(self):
        assert not builtin("midpoint").is_explicit

    def test_rk2_is_explicit(self):
        assert builtin("rk2-explicit").is_explicit

    def test_gauss2_is_implicit(self):
        assert not builtin("gauss2").is_explicit

    def test_inconsistent_c_names_the_row(self):
        with pytest.raises(TableauError, match="row 1"):
            ButcherTableau([[0.5]], [1.0], [0.3])

    def test_length_mismatch(self):
        with pytest.raises(TableauError, match="length"):
            ButcherTableau([[0.5]], [1.0, 0.0], [0.5])

    def test_nonfinite_rejected(self):
        with pytest.raises(TableauError, match="non-finite"):
            ButcherTableau([[np.inf]], [1.0], [np.inf])

    def test_nonsquare_a_rejected(self):
        with pytest.raises(TableauError, match="square"):
            ButcherTableau([[0.0, 0.0]], [1.0], [0.0])

    def test_zero_stages_rejected(self):
        with pytest.raises(TableauError, match="at least one stage"):
            ButcherTableau(np.zeros((0, 0)), [], [])

    @pytest.mark.parametrize("a, c", [
        ([[1e308, 1e308], [0.0, 0.0]], [0.0, 0.0]),  # the row sum overflows
        ([[1e308, 0.0], [0.0, 0.0]], [-1e308, 0.0]),  # c minus the row sum does
    ])
    def test_an_overflowing_row_sum_is_inconsistent_without_a_warning(self, a, c):
        with pytest.raises(TableauError, match="row 1"):
            ButcherTableau(a, [0.5, 0.5], c)


class TestSymplecticity:
    def test_midpoint_defect_is_exactly_zero(self):
        report = symplecticity(builtin("midpoint"))
        assert report.defect == 0.0
        assert report.symplectic
        assert_array_equal(report.m, [[0.0]])

    def test_rk2_defect_matrix_and_norm(self):
        report = symplecticity(builtin("rk2-explicit"))
        assert_array_equal(report.m, [[0.0, 0.5], [0.5, -1.0]])
        assert abs(report.defect - np.sqrt(1.5)) <= 1e-15
        assert not report.symplectic

    def test_gauss2_defect_at_rounding_level(self):
        report = symplecticity(builtin("gauss2"))
        assert report.defect <= 1e-15
        assert report.symplectic

    def test_rk4_is_not_symplectic(self):
        assert not symplecticity(builtin("rk4-classical")).symplectic

    @pytest.mark.parametrize("b, defect", [([0.5, 0.5], np.inf), ([2.0, 2.0], np.nan)])
    def test_an_overflowing_defect_is_not_symplectic_without_a_warning(self, b, defect):
        t = ButcherTableau([[1e308, -1e308], [1e308, -1e308]], b, [0.0, 0.0])
        report = symplecticity(t)
        assert_array_equal(report.defect, defect)
        assert not report.symplectic

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_defect_matrix_is_symmetric_and_recomputable(self, name):
        t = builtin(name)
        report = symplecticity(t)
        assert_array_equal(report.m, report.m.T)
        bmat = np.diag(t.b)
        assert_array_equal(report.m, bmat @ t.a + t.a.T @ bmat - np.outer(t.b, t.b))
        assert report.defect == float(np.linalg.norm(report.m))


class TestParsing:
    def test_parse_midpoint(self):
        t = parse_tableau(MIDPOINT_TEXT)
        ref = builtin("midpoint")
        assert_array_equal(t.a, ref.a)
        assert_array_equal(t.b, ref.b)
        assert_array_equal(t.c, ref.c)

    def test_parse_rk2_computes_c_from_row_sums(self):
        t = parse_tableau(RK2_TEXT)
        ref = builtin("rk2-explicit")
        assert_array_equal(t.a, ref.a)
        assert_array_equal(t.b, ref.b)
        assert_array_equal(t.c, ref.c)

    def test_parse_with_explicit_c_and_comments(self):
        text = "# two-stage explicit\n\n2\n0 0\n0.5 0\n0 1\n0 0.5\n"
        t = parse_tableau(text)
        assert_array_equal(t.c, [0.0, 0.5])

    def test_two_values_on_the_stage_count_line(self):
        with pytest.raises(TableauParseError, match="stage count alone, got 2 values") as excinfo:
            parse_tableau("# header\n1 0.5\n0.5\n1\n")
        assert excinfo.value.line == 2

    def test_an_overflowing_row_sum_for_c_is_refused_without_a_warning(self):
        with pytest.raises(TableauError, match="c has non-finite entries"):
            parse_tableau("2\n1e308 1e308\n0 0\n0.5 0.5\n")

    def test_short_row_reports_line_number(self):
        with pytest.raises(TableauParseError, match="line 3") as excinfo:
            parse_tableau("2\n0 0\n0.5\n0 1\n")
        assert excinfo.value.line == 3

    def test_bad_stage_count(self):
        with pytest.raises(TableauParseError, match="not an integer"):
            parse_tableau("x\n")
        with pytest.raises(TableauParseError, match=">= 1"):
            parse_tableau("0\n")

    def test_truncated_file(self):
        with pytest.raises(TableauParseError, match="ends before"):
            parse_tableau("2\n0 0\n0.5 0\n")

    def test_extra_data(self):
        with pytest.raises(TableauParseError, match="extra data"):
            parse_tableau("1\n0.5\n1\n0.5\n99\n")

    def test_non_numeric_entry(self):
        with pytest.raises(TableauParseError, match="non-numeric"):
            parse_tableau("1\nabc\n1\n")

    def test_empty_input(self):
        with pytest.raises(TableauParseError, match="no tableau data"):
            parse_tableau("# just a comment\n")

    def test_scientific_notation(self):
        t = parse_tableau("1\n5e-1\n1E0\n")
        ref = builtin("midpoint")
        assert_array_equal(t.a, ref.a)
        assert_array_equal(t.b, ref.b)
        assert_array_equal(t.c, ref.c)

    def test_validation_failure_propagates(self):
        with pytest.raises(TableauError, match="row 1"):
            parse_tableau("1\n0.5\n1\n0.3\n")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_serialize_parse_roundtrip_is_exact(self, name):
        t = builtin(name)
        back = parse_tableau(serialize_tableau(t))
        assert_array_equal(back.a, t.a)
        assert_array_equal(back.b, t.b)
        assert_array_equal(back.c, t.c)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_roundtrip_on_random_tableaus(self, stages, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2.0, 2.0, size=(stages, stages))
        b = rng.uniform(-1.0, 1.0, size=stages)
        t = ButcherTableau(a, b, a.sum(axis=1))
        back = parse_tableau(serialize_tableau(t))
        assert_array_equal(back.a, t.a)
        assert_array_equal(back.b, t.b)
        assert_array_equal(back.c, t.c)
