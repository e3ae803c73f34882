import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from conftest import BENCH_RATE, line_parser_log, random_orthogonal
from skewflow import (
    GyroLog,
    GyroLogError,
    IntegratorConfig,
    NonFiniteStateError,
    OrthogonalState,
    Trajectory,
    expm,
    hat,
    orthogonality_defect,
    parse_gyro_csv,
    propagate,
    propagate_gyro,
    reference_gyro,
)
from skewflow import gyro
from skewflow.diagnostics import _dets
from skewflow.gyro import GYRO_HEADER, _BLOCK, _blocks, read_rows

CONSTANT_LOG = "t,wx,wy,wz\n0,0,0,1\n1,0,0,1\n"


def constant_rate_log(rate, t_end, n=2):
    times = np.linspace(0.0, t_end, n)
    return GyroLog(times, np.tile(np.asarray(rate, dtype=float), (n, 1)))


class TestParsing:
    def test_two_sample_constant_rate(self):
        log = parse_gyro_csv(CONSTANT_LOG)
        assert len(log) == 2
        assert_array_equal(log.times, [0.0, 1.0])
        assert_array_equal(log.rates, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])

    def test_repeated_timestamp_reports_line(self):
        with pytest.raises(GyroLogError, match="line 3") as excinfo:
            parse_gyro_csv("t,wx,wy,wz\n0,0,0,1\n0,0,0,1\n")
        assert excinfo.value.line == 3

    def test_benchmark_rate_as_constant_log(self):
        log = parse_gyro_csv("t,wx,wy,wz\n0,0,-0.1,-2\n2000,0,-0.1,-2\n")
        assert len(log) == 2
        assert_array_equal(log.rates[0], BENCH_RATE)
        assert log.times[-1] == 2000.0

    def test_comments_and_blank_lines_ignored(self):
        text = "# gyro dump\n\nt,wx,wy,wz\n# segment 1\n0,0,0,1\n1,0,0,1\n"
        assert len(parse_gyro_csv(text)) == 2

    def test_bad_header(self):
        with pytest.raises(GyroLogError, match="header"):
            parse_gyro_csv("time,x,y,z\n0,0,0,1\n")

    def test_missing_header(self):
        with pytest.raises(GyroLogError, match="header"):
            parse_gyro_csv("# only a comment\n")

    def test_wrong_field_count(self):
        with pytest.raises(GyroLogError, match="line 2") as excinfo:
            parse_gyro_csv("t,wx,wy,wz\n0,0,0\n")
        assert excinfo.value.line == 2

    def test_non_numeric_field(self):
        with pytest.raises(GyroLogError, match="non-numeric"):
            parse_gyro_csv("t,wx,wy,wz\n0,0,x,1\n")

    def test_empty_log(self):
        with pytest.raises(GyroLogError, match="no samples"):
            parse_gyro_csv("t,wx,wy,wz\n")

    def test_scientific_notation(self):
        log = parse_gyro_csv("t,wx,wy,wz\n0,1e-3,-2E2,0.5\n1,0,0,0\n")
        assert_array_equal(log.rates[0], [1e-3, -200.0, 0.5])


# every line break str.splitlines honours
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
# text pieces on which float() and loadtxt may disagree: underscores, the
# Arabic-Indic digit one (float() reads it, loadtxt does not), the unit
# separator \x1f (loadtxt strips it inside a field, float() does not)
TOKENS = list("0123456789,.+-eE_# \t") + ["nan", "inf", "\u0661", "\x1f"] + LINE_BREAKS
JUNK = st.lists(st.sampled_from(TOKENS), max_size=6).map("".join)
PADDING = st.one_of(st.text(alphabet=" \t\x1f", max_size=2), JUNK)
NUMBERS = st.one_of(st.floats(width=64).map(repr), st.integers(-10**20, 10**20).map(str))
FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def gyro_texts(draw):
    """Well-formed logs with a few fields corrupted and any line breaks."""
    n = draw(st.integers(0, 5))
    fields = [[repr(0.5 * i)] + draw(st.lists(NUMBERS, min_size=3, max_size=3))
              for i in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, 3))
        wrapped = draw(PADDING) + fields[row][col] + draw(PADDING)
        fields[row][col] = draw(st.one_of(st.just(wrapped), JUNK, NUMBERS))
    header = draw(st.sampled_from([GYRO_HEADER, " " + GYRO_HEADER, "# log\n" + GYRO_HEADER, ""]))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=n + 1, max_size=n + 1))
    return header + "".join(b + ",".join(f) for b, f in zip(breaks, fields))


def outcome(parse, text):
    """What a parser makes of ``text``: the log's bytes, its error, or None."""
    try:
        log = parse(text)
    except GyroLogError as exc:
        return "error", str(exc), exc.line
    return None if log is None else ("log", log.times.tobytes(), log.rates.tobytes())


class LineParserCalled(Exception):
    pass


def loadtxt_log(text):
    """The log of ``text`` when every chunk of it takes the one-call loadtxt
    path, else None."""
    with mock.patch.object(gyro, "_parse_lines", mock.Mock(side_effect=LineParserCalled)):
        try:
            return parse_gyro_csv(text)
        except LineParserCalled:
            return None


class TestParsePaths:
    """The one-call loadtxt path against the line-by-line parser."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(gyro_texts(), st.lists(st.sampled_from(TOKENS + [GYRO_HEADER]),
                                            max_size=30).map("".join)))
    @example("t,wx,wy,wz\n0\x0c,0,0,1\n")
    @example("t,wx,wy,wz\n1_0,0,0,1\n2_0,0,0,1\n")
    @example("t,wx,wy,wz\r\n0,0,0,1\r\n1,0,0,1\r\n")
    @example("t,wx,wy,wz\n")
    @example("t,wx,wy,wz\n\n")
    @example("t,wx,wy,wz\n0,0,0,1,\n1,0,0,1\n")
    @example("t,wx,wy,wz\n0,0,0,1\n1,0,0,1\n1,0,0,1\n")
    @example("t,wx,wy,wz\ninf,0,0,1\ninf,0,0,1\n")
    @example("t,wx,wy,wz\n0,\x1f1,0,1\n1,0,0,1\n")
    @example("t,wx,wy,wz\n\u0661,0,0,1\n")
    def test_both_paths_agree(self, text):
        slow = outcome(line_parser_log, text)
        assert outcome(parse_gyro_csv, text) == slow
        fast = outcome(loadtxt_log, text)
        assert fast is None or fast == slow

    @pytest.mark.parametrize("text", [
        CONSTANT_LOG,
        "t,wx,wy,wz\r\n0,0,0,1\r\n1,0,0,1\r\n",
        "t,wx,wy,wz\n0,1e-3,-2E2,0.5\n\n 1 ,0,\t0,0\n",
    ])
    def test_clean_logs_take_the_one_call_path(self, monkeypatch, text):
        def refuse(*args):
            raise AssertionError("line-by-line parser called")

        monkeypatch.setattr(gyro, "_parse_lines", refuse)
        assert len(parse_gyro_csv(text)) == 2

    @pytest.mark.parametrize("text, line", [
        ("t,wx,wy,wz\n0,0,0,1\n1,0,0,1\n1,0,0,1\n", 4),
        ("t,wx,wy,wz\n0\x0c,0,0,1\n", 2),
        ("t,wx,wy,wz\n0,0,0,1,\n", 2),
        ("t,wx,wy,wz\r\n0,0,0,1\r\n# c\r\n0,0,0,1\r\n", 4),
    ])
    def test_errors_keep_their_physical_line(self, text, line):
        with pytest.raises(GyroLogError) as info:
            parse_gyro_csv(text)
        assert info.value.line == line


@st.composite
def stream_texts(draw):
    """Logs of up to 12 samples, most of them clean: a time may repeat or
    fall, and blank or ``#`` lines and other line breaks may come anywhere."""
    lines, t = [GYRO_HEADER], 0.0
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.sampled_from([0.5] * 12 + [0.25, 0.0, -0.5]))
        rates = st.lists(st.one_of(FINITE, NUMBERS), min_size=3, max_size=3)
        lines.append(",".join([repr(t)] + draw(rates)))
        if draw(st.integers(0, 11)) == 0:
            lines.append(draw(st.sampled_from(["", "# c", "#", " ", "\t"])))
    breaks = draw(st.lists(st.sampled_from(["\n"] * 12 + ["\r\n", "\r", "\x0c", "\x85"]),
                           min_size=len(lines), max_size=len(lines)))
    text = "".join(line + b for line, b in zip(lines, breaks))
    return text if draw(st.booleans()) else text[: -len(breaks[-1])]


def read_as_a_file(text):
    # a log read as the CLI opens it, with every line end translated to \n
    return io.StringIO(text, newline=None)


def streamed_log(text):
    """The log :func:`read_rows` reads from ``text`` as a file."""
    rows = np.concatenate(list(read_rows(read_as_a_file(text))))
    return GyroLog(rows[:, 0], rows[:, 1:])


class TestStreamedReader:
    """The block reader against the line-by-line parser of the whole text,
    with its reads and its blocks cut small, so that their edges fall
    anywhere: inside a run of comments, right after the header, between
    two times that fail to increase."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(stream_texts(), gyro_texts()), st.integers(1, 48))
    @example("t,wx,wy,wz\n0,0,0,1\n0,0,0,1\n", 11)
    @example("t,wx,wy,wz\n0,0,0,1\n# c\n# c\n1,0,0,1\n", 9)
    @example("t,wx,wy,wz\n0,0,0,1\x0c\n1,0,0,1\n", 8)
    @example("t,wx,wy,wz\n", 1)
    @example("# c\n\nt,wx,wy,wz\n0,0,0,1\n", 3)
    @example("t,wx,wy,wz\n16.5,0,0,1\n0.5,0,0,1\n", 12)
    def test_the_reader_gives_the_line_parsers_log_or_its_error(self, text, size):
        # the same log bit for bit, or the same GyroLogError message and line
        with mock.patch.object(gyro, "_READ_SIZE", size):
            streamed = outcome(streamed_log, text)
        assert streamed == outcome(line_parser_log, read_as_a_file(text).read())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(1, 9), max_size=8), st.integers(1, 5))
    def test_blocks_cut_the_samples_where_the_march_does(self, sizes, block):
        rows = np.arange(4.0 * sum(sizes)).reshape(-1, 4)
        tables = np.split(rows, np.cumsum(sizes)[:-1]) if sizes else []
        with mock.patch.object(gyro, "_BLOCK", block):
            blocks = list(_blocks(tables))
        # blocks of block + 1 samples, the last shorter, each after the
        # first starting at the sample that ends the one before
        if len(rows) < 2:
            assert blocks == []
            return
        for k, (times, rates) in enumerate(blocks):
            start, stop = k * block, min((k + 1) * block, len(rows) - 1)
            assert_array_equal(times, rows[start : stop + 1, 0])
            assert_array_equal(rates, rows[start : stop + 1, 1:])
        assert stop == len(rows) - 1

    def test_only_the_chunks_with_a_comment_take_the_line_parser(self, monkeypatch):
        lines = [f"{0.5 * i},0,{i},1\n" for i in range(40)]
        lines[20] = "# c\n" + lines[20]
        text = "# a log\n" + GYRO_HEADER + "\n" + "".join(lines)
        parsed, parse = [], gyro._parse_lines
        monkeypatch.setattr(gyro, "_parse_lines",
                            lambda lines, *rest: parsed.append(lines) or parse(lines, *rest))
        with mock.patch.object(gyro, "_READ_SIZE", 64):
            rows = np.concatenate(list(read_rows(read_as_a_file(text))))
        assert_array_equal(rows[:, 0], 0.5 * np.arange(40))
        # the chunk of the preamble and the header, and the chunk of "# c"
        assert [[line for line in chunk if line.startswith("#")] for chunk in parsed] == [
            ["# a log"], ["# c"]]

    def test_a_clean_log_is_streamed_whatever_the_read_size(self):
        text = "t,wx,wy,wz\r\n" + "".join(f"{0.5 * i},0,{i},1\r\n" for i in range(40))
        for size in (1, 2, 7, 64, 10**6):
            with mock.patch.object(gyro, "_READ_SIZE", size):
                rows = np.concatenate(list(read_rows(read_as_a_file(text))))
            assert_array_equal(rows[:, 0], 0.5 * np.arange(40))


class TestGyroLog:
    def test_columns_hold_the_samples(self):
        log = parse_gyro_csv(CONSTANT_LOG)
        assert log.times[0] == 0.0
        assert_array_equal(log.rates[1], [0.0, 0.0, 1.0])

    def test_rejects_decreasing_times(self):
        with pytest.raises(GyroLogError, match="increasing"):
            GyroLog([1.0, 0.5], np.zeros((2, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GyroLogError, match="shape"):
            GyroLog([0.0, 1.0], np.zeros((2, 2)))

    def test_rejects_an_empty_log(self):
        with pytest.raises(GyroLogError, match="at least one sample"):
            GyroLog([], np.zeros((0, 3)))

    @pytest.mark.parametrize("times, rate", [
        ([0.0, np.nan], [0.0, 0.0, 1.0]),
        ([0.0, 1.0], [0.0, np.inf, 1.0]),
        ([-np.inf, 1.0], [0.0, 0.0, 1.0]),
    ])
    def test_rejects_non_finite_values(self, times, rate):
        with pytest.raises(GyroLogError, match="non-finite"):
            GyroLog(times, [rate, rate])


class TestPropagateGyro:
    def test_zero_rates_hold_attitude(self):
        log = constant_rate_log([0.0, 0.0, 0.0], 5.0, n=6)
        config = IntegratorConfig(method="cayley-midpoint", step=0.5)
        traj = propagate_gyro(log, config)
        assert len(traj) == 6
        for q in traj.qs:
            assert_array_equal(q, np.eye(3))

    def test_quarter_turn_against_exact_flow(self):
        log = constant_rate_log([0.0, 0.0, 1.0], np.pi / 2)
        config = IntegratorConfig(method="cayley-midpoint", step=1e-3)
        traj = propagate_gyro(log, config)
        quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.linalg.norm(traj.qs[-1] - quarter) <= 1e-6

    def test_matches_direct_propagation_bitwise(self):
        # a constant-rate log and a direct run share the marching code, so
        # the boundary records must agree exactly, not just to tolerance
        log = constant_rate_log(BENCH_RATE, 10.0)
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        from_log = propagate_gyro(log, config)
        direct = propagate(
            config, hat(BENCH_RATE), OrthogonalState(np.eye(3), 0.0), 10.0,
            record_every=100,
        )
        assert len(from_log) == len(direct) == 2
        assert_array_equal(from_log.times, direct.times)
        assert_array_equal(from_log.qs, direct.qs)
        assert_array_equal(from_log.energies, direct.energies)
        assert_array_equal(from_log.orth_defects, direct.orth_defects)
        assert_array_equal(from_log.det_drifts, direct.det_drifts)

    def test_overflow_reports_the_same_step_as_direct_propagation(self):
        # two RK2 steps per interval, 312.5x growth per step: the state
        # overflows at step 124, but the Gram defect already at step 31, so
        # the first record past it (step 32) fails, here and in a direct run
        # that records the same steps
        log = constant_rate_log([0.0, 0.0, 50.0], 150.0, n=151)
        config = IntegratorConfig(method="rk2-closed", step=0.5)
        with pytest.raises(NonFiniteStateError) as from_log:
            propagate_gyro(log, config)
        with pytest.raises(NonFiniteStateError) as direct:
            propagate(config, hat([0.0, 0.0, 50.0]), OrthogonalState(np.eye(3), 0.0), 150.0,
                      record_every=2)
        assert from_log.value.step == direct.value.step == 32
        assert from_log.value.t == direct.value.t == 16.0

    def test_overflow_of_the_interval_map_alone_reports_the_interval_end(self):
        # one 100-step RK2 interval from q0 = 1e-3 I: every per-step state is
        # finite, but the interval's map phi_last @ phi**99 overflows, so the
        # failure is the record at the interval's end, as in a direct run
        log = constant_rate_log([0.0, 0.0, 50.0], 100.0)
        config = IntegratorConfig(method="rk2-closed", step=1.0)
        q0 = OrthogonalState(1e-3 * np.eye(3), 0.0)
        with pytest.raises(NonFiniteStateError) as excinfo:
            propagate_gyro(log, config, q0, allow_nonorthogonal=True)
        assert excinfo.value.step == 100
        assert excinfo.value.t == 100.0

    def test_overflow_reports_the_sample_that_ends_the_failing_interval(self):
        # two 200-step RK2 intervals: the states overflow from step 100, in
        # the first interval, so its closing record (step 200) is the first
        # bad one, as in a direct run that records every 200 steps
        log = GyroLog([0.0, 200.0, 400.0], [[0.0, 0.0, 50.0]] * 3)
        config = IntegratorConfig(method="rk2-closed", step=1.0)
        with pytest.raises(NonFiniteStateError) as excinfo:
            propagate_gyro(log, config)
        assert excinfo.value.step == 200
        assert excinfo.value.t == 200.0

    def test_multi_interval_records_at_boundaries(self):
        times = np.array([0.0, 0.4, 1.0, 1.5])
        rates = np.array([[0, 0, 1.0], [0, 1.0, 0], [1.0, 0, 0], [0, 0, 0]])
        log = GyroLog(times, rates)
        config = IntegratorConfig(method="cayley-midpoint", step=0.05)
        traj = propagate_gyro(log, config)
        assert_array_equal(traj.times, times)

    def test_second_order_error_against_reference(self):
        times = np.array([0.0, 0.7, 1.3, 2.0])
        rates = np.array([[0.3, -1.0, 0.5], [-0.2, 0.8, 1.1], [1.0, 0.1, -0.6], [0, 0, 0]])
        log = GyroLog(times, rates)
        exact = reference_gyro(log).qs[-1]

        def final_error(h):
            config = IntegratorConfig(method="cayley-midpoint", step=h)
            return np.linalg.norm(propagate_gyro(log, config).qs[-1] - exact)

        ratio = final_error(0.02) / final_error(0.01)
        assert ratio == pytest.approx(4.0, abs=0.5)

    def test_orthogonality_and_energy_over_long_log(self):
        rng = np.random.default_rng(6)
        n = 20000
        times = np.arange(n, dtype=float) * 0.01
        rates = rng.uniform(-2.0, 2.0, size=(n, 3))
        log = GyroLog(times, rates)
        config = IntegratorConfig(method="cayley-midpoint", step=0.01)
        traj = propagate_gyro(log, config)
        assert np.max(traj.orth_defects) <= 1e-9
        assert np.max(np.abs(traj.energies - 3.0)) <= 1e-9

    def test_rejects_single_sample_log(self):
        log = GyroLog([0.0], np.zeros((1, 3)))
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        with pytest.raises(GyroLogError, match="2 samples"):
            propagate_gyro(log, config)

    def test_q0_time_must_match_first_sample(self):
        log = constant_rate_log([0, 0, 1.0], 1.0)
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        with pytest.raises(ValueError, match="first sample"):
            propagate_gyro(log, config, q0=OrthogonalState(np.eye(3), 0.5))

    def test_nonorthogonal_q0_gated(self):
        log = constant_rate_log([0, 0, 1.0], 1.0)
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        skewed = OrthogonalState(np.eye(3) + 1e-3, 0.0)
        with pytest.raises(ValueError, match="orthogonal"):
            propagate_gyro(log, config, q0=skewed)
        traj = propagate_gyro(log, config, q0=skewed, allow_nonorthogonal=True)
        assert len(traj) == 2

    def test_a_nan_q0_meter_is_gated_without_a_warning(self):
        # a column dot product is inf - inf, so the defect is nan
        log = constant_rate_log([0, 0, 1.0], 1.0)
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        q0 = OrthogonalState([[1e200, 1e200, 0.0], [-1e200, 1e200, 0.0], [0.0, 0.0, 1.0]], 0.0)
        with pytest.raises(ValueError, match=r"not orthogonal \(defect nan"):
            propagate_gyro(log, config, q0)
        with pytest.raises(ValueError, match=r"not orthogonal \(defect nan"):
            reference_gyro(log, q0)

    def test_orthogonal_q0_accepted(self):
        log = constant_rate_log([0, 0, 1.0], 1.0)
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        q0 = OrthogonalState(random_orthogonal(np.random.default_rng(1), 3), 0.0)
        traj = propagate_gyro(log, config, q0=q0)
        assert traj.energies[0] == pytest.approx(3.0, abs=1e-12)


class TestStreamGyro:
    def test_every_block_is_metered_against_q0(self):
        # q0 is neither I nor orthogonal, so a later block metered against I
        # gives energy errors about 9 off and det drifts about 7 off
        rng = np.random.default_rng(31)
        samples = 2 * _BLOCK + 1
        table = np.column_stack([np.cumsum(rng.uniform(0.5, 1.5, samples)) * 0.01,
                                 rng.uniform(-2.0, 2.0, (samples, 3))])
        q0 = 2.0 * random_orthogonal(rng, 3)
        config = IntegratorConfig(method="cayley-midpoint", step=0.004)
        blocks = [traj for traj, _ in gyro.stream_gyro([table], config, False, q0)]
        assert len(blocks) == 2
        qs = np.concatenate([traj.qs for traj in blocks])
        assert_array_equal(qs[0], q0)
        whole = Trajectory("whole", 0.004, table[:, 0], qs)
        for column in ("energy_errors", "det_drifts"):
            assert_array_equal(np.concatenate([getattr(traj, column) for traj in blocks]),
                               getattr(whole, column))


    @pytest.mark.parametrize("samples", [2, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_propagate_gyro_is_the_stream_of_its_log(self, samples):
        # propagate_gyro feeds the stream _BLOCK samples at a time; its records
        # are the stream's over the whole log in one table, bit for bit
        rng = np.random.default_rng(samples)
        table = np.column_stack([np.cumsum(rng.uniform(0.5, 1.5, samples)) * 0.01,
                                 rng.uniform(-2.0, 2.0, (samples, 3))])
        config = IntegratorConfig(method="cayley-midpoint", step=0.004)
        blocks = [traj for traj, _ in gyro.stream_gyro([table], config, False, np.eye(3))]
        traj = propagate_gyro(GyroLog(table[:, 0], table[:, 1:]), config)
        assert_array_equal(traj.times, table[:, 0])
        assert_array_equal(traj.qs, np.concatenate([b.qs for b in blocks]))


class TestReferenceGyro:
    def test_zero_rates_hold_attitude(self):
        traj = reference_gyro(constant_rate_log([0.0, 0.0, 0.0], 3.0, n=4))
        for q in traj.qs:
            assert_array_equal(q, np.eye(3))

    def test_half_turn_single_interval(self):
        traj = reference_gyro(constant_rate_log([0, 0, 1.0], np.pi))
        half = np.diag([-1.0, -1.0, 1.0])
        assert np.linalg.norm(traj.qs[-1] - half) <= 1e-13

    def test_every_record_orthogonal(self):
        rng = np.random.default_rng(10)
        times = np.cumsum(rng.uniform(0.1, 1.0, size=40))
        rates = rng.uniform(-3, 3, size=(40, 3))
        traj = reference_gyro(GyroLog(times, rates))
        assert np.max(traj.orth_defects) <= 1e-12

    def test_meters_are_computed_when_read_and_read_only(self):
        rng = np.random.default_rng(15)
        times = np.cumsum(rng.uniform(0.1, 1.0, size=30))
        traj = reference_gyro(GyroLog(times, rng.uniform(-3, 3, size=(30, 3))))
        assert "orth_defects" not in vars(traj)
        defects = traj.orth_defects
        assert defects is traj.orth_defects
        assert not defects.flags.writeable and not traj.det_drifts.flags.writeable
        assert_array_equal(defects, [orthogonality_defect(q) for q in traj.qs])
        det0 = _dets(traj.qs[:1])[0]
        assert_array_equal(traj.det_drifts, [_dets(q[None])[0] - det0 for q in traj.qs])
        assert np.max(defects) <= 1e-13 and np.max(np.abs(traj.det_drifts)) <= 1e-13

    def test_matches_composed_exponentials(self):
        times = np.array([0.0, 0.5, 1.5])
        rates = np.array([[0, 0, 2.0], [1.0, 0, 0], [0, 0, 0]])
        traj = reference_gyro(GyroLog(times, rates))
        expected = expm(hat([1.0, 0, 0]), 1.0) @ expm(hat([0, 0, 2.0]), 0.5)
        assert np.linalg.norm(traj.qs[-1] - expected) <= 1e-14


class TestBlockMemory:
    @staticmethod
    def temporaries(run, samples):
        """Peak traced bytes of ``run(log)`` above what its result still holds."""
        rng = np.random.default_rng(17)
        times = np.cumsum(rng.uniform(0.5, 1.5, samples)) * 0.01
        log = GyroLog(times, rng.uniform(-2.0, 2.0, size=(samples, 3)))
        tracemalloc.start()
        try:
            result = run(log)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == samples
        return peak - held

    @pytest.mark.parametrize("pipeline, base, blocks", [
        pytest.param("propagate", 3, 12, id="propagate"),
        pytest.param("reference", 3, 12, id="reference"),
        # the exact rotations take each block's intervals from the times
        # themselves, so not even a log sixteen times longer makes a column
        # of the whole log beside the records
        pytest.param("reference", 3, 48, id="reference-long"),
        # the finiteness check reads each meter column's min and max, so no
        # mask over the records grows with the log; against 3 blocks, whose
        # march peaks higher, a growing mask would not show by 48 blocks
        pytest.param("propagate", 12, 48, id="propagate-long"),
    ])
    def test_block_temporaries_do_not_grow_with_the_log(self, pipeline, base, blocks):
        # the march holds one block's temporaries at a time, so a longer log
        # may not raise the peak by more than a few small columns
        config = IntegratorConfig(method="cayley-midpoint", step=0.01)
        run = reference_gyro if pipeline == "reference" else (
            lambda log: propagate_gyro(log, config))
        short = self.temporaries(run, base * _BLOCK + 1)
        long = self.temporaries(run, blocks * _BLOCK + 1)
        assert long - short <= 64 * 1024, (short, long)
