"""The bulk ``"%.17g"`` formatter against per-value formatting.

``format_rows_oracle`` in ``conftest.py`` is the per-value reference; every
table here must come out byte for byte the same, on the bulk path, on the
per-value path below ``SMALL`` numbers and across block boundaries.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import BENCH_MAT, BENCH_STEP, format_rows_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewflow._fmt17 import (
    BLOCK_NUMBERS,
    SMALL,
    fmt17,
    format_rows,
    pow10_split,
    pow10_table,
    text_blocks,
)
from skewflow import IntegratorConfig, OrthogonalState, SkewMatrix, propagate

WIDTHS = (1, 5, 6, 9)
SEPARATORS = (",", " ")


def _rows_for(case, width):
    """Row counts on both sides of the per-value cut-off and of a block."""
    small = -(-SMALL // width)
    block = max(1, BLOCK_NUMBERS // width)
    return {
        "one": 1,
        "below-small": small - 1,
        "at-small": small,
        "above-small": small + 1,
        "below-block": block - 1,
        "at-block": block,
        "above-block": block + 1,
        "two-blocks": 2 * block + 1,
    }[case]


def _bit_float(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def _table(width, case, seed, picked):
    """A (rows, width) table mixing raw bit patterns, scaled normals, short
    decimals and round numbers, with ``picked`` written over its start."""
    rng = np.random.default_rng(seed)
    n = max(_rows_for(case, width) * width, len(picked))
    n = -(-n // width) * width
    sources = np.stack([
        np.frombuffer(rng.bytes(8 * n), dtype=np.float64),
        rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, n),
        rng.integers(-10**6, 10**6, n) / 10.0 ** rng.integers(0, 8, n),
        rng.integers(-100, 101, n) * 10.0 ** rng.integers(-6, 18, n),
    ])
    x = sources[rng.integers(0, len(sources), n), np.arange(n)]
    x[: len(picked)] = picked
    return x.reshape(-1, width)


def _powers_of_ten():
    values = []
    for k in range(-323, 309):
        v = float(f"1e{k}")
        values += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    return values


PINNED = [
    9.9999999999999999e22,
    1000000000000000.25,
    1000000000000000.75,
    1000000000000001.25,
    5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    1e-05,
    0.0001,
    1e16,
    1e17,
    -0.0,
]


# the text of values whose layout has inner zeros, trailing zeros or a
# whole-number integer part, at every fixed exponent and around the
# exponent widths of the scientific layout
LAYOUTS = {
    1000.5: "1000.5",
    100.25: "100.25",
    10203.000000000002: "10203.000000000002",
    **{float(10**k): "1" + "0" * k for k in range(17)},
    0.5: "0.5",
    1e-05: "1.0000000000000001e-05",
    2e17: "2e+17",
    1e99: "9.9999999999999997e+98",
    1e100: "1e+100",
    1e-99: "1e-99",
    1e-100: "1e-100",
    0.0: "0",
}


class TestBulkFormatting:
    @settings(max_examples=60, deadline=None)
    @given(
        width=st.sampled_from(WIDTHS),
        case=st.sampled_from(["one", "below-small", "at-small", "above-small",
                              "below-block", "at-block", "above-block", "two-blocks"]),
        sep=st.sampled_from(SEPARATORS),
        seed=st.integers(0, 2**32 - 1),
        picked=st.lists(
            st.floats() | st.integers(0, 2**64 - 1).map(_bit_float), max_size=40),
    )
    @example(width=5, case="above-block", sep=",", seed=0, picked=_powers_of_ten())
    @example(width=1, case="at-small", sep=" ", seed=1, picked=_powers_of_ten()[::-1])
    @example(width=5, case="above-small", sep=",", seed=2, picked=PINNED)
    @example(width=6, case="two-blocks", sep=",", seed=3, picked=PINNED * 3)
    @example(width=9, case="at-block", sep=" ", seed=4,
             picked=[-v for v in PINNED] + [np.nan, np.inf, -np.inf, 0.0])
    def test_text_is_byte_identical_to_per_value(self, width, case, sep, seed, picked):
        rows = _table(width, case, seed, picked)
        expected = format_rows_oracle(rows, sep)
        assert format_rows(rows, sep) == expected
        blocks = text_blocks([(len(rows), lambda a, b: rows[a:b])], width, sep)
        assert "".join(blocks) == expected
        assert [fmt17(v) for v in picked] == [format(v, ".17g") for v in picked]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pinned_layouts(self, sign):
        # each value in its own block above SMALL, so it takes the bulk path
        # beside values of other layouts
        rng = np.random.default_rng(5)
        for value, text in LAYOUTS.items():
            rows = rng.standard_normal((SMALL // 5 + 1, 5)) * 10.0 ** rng.integers(-9, 9, (1, 5))
            rows[7, 2] = sign * value
            lines = format_rows(rows, ",").splitlines()
            assert lines[7].split(",")[2] == ("-" if sign < 0 else "") + text
            assert "\n".join(lines) + "\n" == format_rows_oracle(rows, ",")

    def test_block_temporaries_stay_below_200_bytes_a_number(self):
        # one block of the long benchmark run's columns: the peak traced
        # bytes, the returned text included, per number formatted
        config = IntegratorConfig(method="cayley-midpoint", step=BENCH_STEP)
        traj = propagate(config, SkewMatrix(BENCH_MAT), OrthogonalState(np.eye(3)),
                         4096 * BENCH_STEP)
        rows = np.stack([traj.times, traj.energies, traj.energy_errors,
                         traj.orth_defects, traj.det_drifts], axis=1)[:BLOCK_NUMBERS // 5]
        assert rows.size == BLOCK_NUMBERS // 5 * 5
        format_rows(rows, ",")  # the tables are built on first use
        tracemalloc.start()
        try:
            format_rows(rows, ",")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 200 * rows.size, peak / rows.size

    def test_blocks_hold_at_most_the_block_size(self):
        rows = np.arange(3 * BLOCK_NUMBERS, dtype=float).reshape(-1, 6) / 7
        seen = []

        def block(a, b):
            seen.append(b - a)
            return rows[a:b]

        text = "".join(text_blocks([(len(rows), block)], 6, ","))
        assert text == format_rows_oracle(rows, ",")
        assert max(seen) * 6 <= BLOCK_NUMBERS and sum(seen) == len(rows)

    def test_a_row_wider_than_a_block_is_one_block(self):
        rows = np.linspace(-1, 1, 3 * (BLOCK_NUMBERS + 1)).reshape(3, -1)
        blocks = list(text_blocks([(3, lambda a, b: rows[a:b])], rows.shape[1], " "))
        assert len(blocks) == 3
        assert "".join(blocks) == format_rows_oracle(rows, " ")


def test_power_of_ten_table_is_exact():
    hi, lo = pow10_table()
    for i, k in enumerate(range(-330, 309)):
        exact = Fraction(10) ** k
        assert hi[i] == float(exact), k
        assert lo[i] == float(exact - Fraction(hi[i])), k


def test_power_of_ten_split_is_exact():
    # Dekker's split of 10**k for every k = 16 - p the kernel can index,
    # p = floor(log10|x|) of 1e-280 <= |x| < 1e280 and one off either way
    hi, _ = pow10_table()
    big, small = pow10_split()
    for p in range(-281, 282):
        i = 16 - p + 330
        assert big[i] + small[i] == hi[i], p
        num, _ = big[i].as_integer_ratio()
        num = abs(num) >> ((num & -num).bit_length() - 1)  # odd significand
        assert num.bit_length() <= 26, p
