import contextlib
import io
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import format_rows_oracle, line_parser_log, random_skew
from test_exit_contract import GYRO_LOG, S_FILE, TOKENS
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import skewflow.cli as cli
import skewflow.diagnostics as diagnostics
import skewflow.gyro as gyro
import skewflow.integrators as integrators
from skewflow import (
    GyroLogError,
    InputError,
    SkewnessError,
    TableauError,
    TableauParseError,
)
from skewflow.cli import main
from skewflow.diagnostics import Trajectory
from skewflow.gyro import _BLOCK, GYRO_HEADER, parse_gyro_csv, propagate_gyro, reference_gyro
from skewflow.integrators import IntegratorConfig
from skewflow.linalg import data_lines
from skewflow.tableaus import builtin, parse_tableau

BENCH_FLAGS = ["--omega", "0,-0.1,-2", "--h", "0.1"]


def read(path):
    return path.read_text()


def csv_rows(path):
    lines = read(path).strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestCheckTableau:
    def test_midpoint_is_symplectic(self, capsys):
        assert main(["check-tableau", "--name", "midpoint"]) == 0
        out = capsys.readouterr().out
        assert "stages: 1" in out
        assert "kind: implicit" in out
        assert "verdict: symplectic" in out
        assert "defect: 0" in out

    def test_rk2_is_not_symplectic(self, capsys):
        assert main(["check-tableau", "--name", "rk2-explicit"]) == 0
        out = capsys.readouterr().out
        assert "kind: explicit" in out
        assert "verdict: non-symplectic" in out
        defect = float(out.split("defect: ")[1].splitlines()[0])
        assert defect == pytest.approx(np.sqrt(1.5), abs=1e-15)

    def test_tableau_file(self, tmp_path, capsys):
        path = tmp_path / "midpoint.rk"
        path.write_text("1\n0.5\n1\n")
        assert main(["check-tableau", "--file", str(path)]) == 0
        assert "verdict: symplectic" in capsys.readouterr().out

    def test_broken_file_exits_2_with_row_diagnosis(self, tmp_path, capsys):
        path = tmp_path / "broken.rk"
        path.write_text("1\n0.5\n1\n0.3\n")
        assert main(["check-tableau", "--file", str(path)]) == 2
        assert "row 1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["check-tableau", "--file", str(tmp_path / "nope.rk")]) == 2

    def test_no_selector_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check-tableau"])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("rows, defect", [
        ("1e308 -1e308\n0 0\n0.5 0.5\n", "inf"),
        ("1e308 -1e308\n1e308 -1e308\n2 2\n", "nan"),
    ])
    def test_an_overflowing_defect_exits_0_without_a_warning(self, tmp_path, capsys,
                                                            rows, defect):
        # M overflows to inf, or to inf - inf = nan; either is non-symplectic
        path = tmp_path / "huge.rk"
        path.write_text("2\n" + rows)
        assert main(["check-tableau", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"defect: {defect}\n" in out
        assert "verdict: non-symplectic" in out

    @pytest.mark.parametrize("rows, message", [
        # c omitted: the row sum overflows to inf
        ("1e308 1e308\n0 0\n0.5 0.5\n", "c has non-finite entries"),
        # c given: the row sum overflows to inf
        ("1e308 1e308\n0 0\n0.5 0.5\n0 0\n", "row 1: c = 0.0, row sum = inf"),
        # c given: the row sum is finite, c - row sum overflows
        ("1e308 0\n0 0\n0.5 0.5\n-1e308 0\n", "row 1: c = -1e+308, row sum = 1e+308"),
    ])
    def test_an_overflowing_row_sum_exits_2_without_a_warning(self, tmp_path, capsys,
                                                             rows, message):
        path = tmp_path / "huge.rk"
        path.write_text("2\n" + rows)
        assert main(["check-tableau", "--file", str(path)]) == 2
        assert message in capsys.readouterr().err


class TestPropagate:
    def test_zero_rate_all_records_identical(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(
            ["propagate", "--method", "cayley-midpoint", "--omega", "0,0,0",
             "--h", "0.1", "--t-end", "1", "--out", str(out)]
        )
        assert rc == 0
        header, rows = csv_rows(out)
        assert header == ["t", "E", "E_err", "orth_defect", "det_err"]
        assert len(rows) == 11
        assert all(row[1] == 3.0 for row in rows)
        assert all(row[2] == 0.0 for row in rows)

    def test_csv_round_trips_17_digits(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(["propagate", "--method", "rk2-closed", *BENCH_FLAGS,
              "--t-end", "1", "--out", str(out)])
        from skewflow import (
            IntegratorConfig, OrthogonalState, hat, propagate,
        )
        traj = propagate(
            IntegratorConfig(method="rk2-closed", step=0.1),
            hat([0.0, -0.1, -2.0]),
            OrthogonalState(np.eye(3), 0.0),
            1.0,
        )
        _, rows = csv_rows(out)
        columns = [traj.times, traj.energies, traj.energy_errors, traj.orth_defects,
                   traj.det_drifts]
        assert rows == np.column_stack(columns).tolist()

    def test_manifest_written_next_to_output(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(["propagate", "--method", "cayley-midpoint", *BENCH_FLAGS,
              "--t-end", "2", "--out", str(out)])
        manifest = read(tmp_path / "traj.csv.manifest")
        entries = dict(line.split("=", 1) for line in manifest.strip().splitlines())
        assert entries["subcommand"] == "propagate"
        assert entries["method"] == "cayley-midpoint"
        assert float(entries["step"]) == 0.1
        assert float(entries["t_end"]) == 2.0
        assert entries["output"] == str(out)
        assert entries["version"]

    def test_manifest_records_numpy_and_the_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "traj.csv"
        assert main(["propagate", "--method", "gauss2", *BENCH_FLAGS, "--t-end", "1",
                     "--out", str(out)]) == 0
        lines = read(tmp_path / "traj.csv.manifest").splitlines()
        assert lines[-2:] == [
            f"numpy={np.__version__}",
            "blas_threads=OPENBLAS_NUM_THREADS:1,OMP_NUM_THREADS:2,MKL_NUM_THREADS:-",
        ]

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["propagate", "--method", "gauss2", *BENCH_FLAGS,
                "--t-end", "3", "--out"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + [str(out1)]) == 0
        assert main(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_record_every(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(["propagate", "--method", "rk2-closed", *BENCH_FLAGS,
              "--t-end", "1", "--record-every", "5", "--out", str(out)])
        _, rows = csv_rows(out)
        assert [row[0] for row in rows] == [0.0, 0.5, 1.0]

    def test_dump_q(self, tmp_path):
        out = tmp_path / "traj.csv"
        dump = tmp_path / "q.txt"
        main(["propagate", "--method", "cayley-midpoint", *BENCH_FLAGS,
              "--t-end", "1", "--out", str(out), "--dump-q", str(dump)])
        lines = read(dump).strip().splitlines()
        _, rows = csv_rows(out)
        assert len(lines) == len(rows)
        first = np.array([float(v) for v in lines[0].split()]).reshape(3, 3)
        assert np.array_equal(first, np.eye(3))

    def test_s_file_path(self, tmp_path):
        s_file = tmp_path / "s.mat"
        s_file.write_text("0 1\n-1 0\n")
        out = tmp_path / "traj.csv"
        rc = main(["propagate", "--method", "cayley-midpoint", "--s-file", str(s_file),
                   "--h", "0.1", "--t-end", "1", "--out", str(out)])
        assert rc == 0
        header, rows = csv_rows(out)
        assert rows[0][1] == 2.0  # identity energy in dimension 2

    def test_non_skew_s_file_exits_2(self, tmp_path, capsys):
        s_file = tmp_path / "s.mat"
        s_file.write_text("0 1\n1 0\n")
        rc = main(["propagate", "--method", "cayley-midpoint", "--s-file", str(s_file),
                   "--h", "0.1", "--t-end", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "skew" in capsys.readouterr().err

    def test_nonorthogonal_q0_gated(self, tmp_path, capsys):
        q0 = tmp_path / "q0.mat"
        q0.write_text("1 0 0\n0 1 0\n0 0 2\n")
        base = ["propagate", "--method", "cayley-midpoint", *BENCH_FLAGS,
                "--t-end", "1", "--q0", str(q0), "--out", str(tmp_path / "t.csv")]
        assert main(base) == 2
        assert "orthogonal" in capsys.readouterr().err
        assert main(base + ["--allow-nonorthogonal"]) == 0

    def test_an_infinite_q0_entry_exits_2_without_a_warning(self, tmp_path, capsys):
        # 1e3080 reads as inf; the reader refuses it on its line, before the
        # meters, which would warn on it (tier-1 turns a RuntimeWarning into
        # an error)
        q0 = tmp_path / "q0.mat"
        q0.write_text("1e3080 0 0\n0 1 0\n0 0 1\n")
        out = tmp_path / "t.csv"
        rc = main(["propagate", "--method", "cayley-midpoint", *BENCH_FLAGS,
                   "--t-end", "1", "--q0", str(q0), "--out", str(out)])
        assert rc == 2
        assert "line 1: non-finite value in '1e3080 0 0'" in capsys.readouterr().err
        assert not out.exists()

    def test_an_overflowing_q0_meter_exits_2_without_a_warning(self, tmp_path, capsys):
        q0 = tmp_path / "q0.mat"
        q0.write_text("1e200 0 0\n0 1 0\n0 0 1\n")
        out = tmp_path / "t.csv"
        rc = main(["propagate", "--method", "cayley-midpoint", *BENCH_FLAGS,
                   "--t-end", "1", "--q0", str(q0), "--out", str(out)])
        assert rc == 2
        assert "--q0 matrix is not orthogonal (defect inf > 1e-08)" in capsys.readouterr().err
        assert not out.exists()

    def test_a_nan_q0_meter_exits_2_without_a_warning(self, tmp_path, capsys):
        # a column dot product is 1e400 - 1e400 = inf - inf: the defect is
        # nan, which the gate refuses
        q0 = tmp_path / "q0.mat"
        q0.write_text("1e200 1e200 0\n-1e200 1e200 0\n0 0 1\n")
        out = tmp_path / "t.csv"
        rc = main(["propagate", "--method", "cayley-midpoint", *BENCH_FLAGS,
                   "--t-end", "1", "--q0", str(q0), "--out", str(out)])
        assert rc == 2
        assert "--q0 matrix is not orthogonal (defect nan > 1e-08)" in capsys.readouterr().err
        assert not out.exists()

    def test_an_overflowing_skew_norm_exits_2_without_a_warning(self, tmp_path, capsys):
        # the first row's norm is 2e308 = inf, so the gate reads a copy
        # scaled by 1/8, whose tolerance is finite
        s_file = tmp_path / "s.mat"
        s_file.write_text("0 1e308 1e308\n1e308 0 0\n1e308 0 0\n")
        out = tmp_path / "t.csv"
        rc = main(["propagate", "--method", "cayley-midpoint", "--s-file", str(s_file),
                   "--h", "0.1", "--t-end", "1", "--out", str(out)])
        assert rc == 2
        assert ("not skew-symmetric: ||A + A^T||_inf = inf exceeds tolerance 2.000e+296"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("# only a comment\n\n", "no matrix data found"),
        ("0 1 2\n-1 0 3\n", "expected a square whitespace-separated matrix"),
        ("0 1\n-1\n", "expected a square whitespace-separated matrix"),
    ])
    def test_a_matrix_file_that_is_not_square_exits_2_naming_it(self, tmp_path, capsys,
                                                               text, message):
        s_file = tmp_path / "s.mat"
        s_file.write_text(text)
        rc = main(["propagate", "--method", "cayley-midpoint", "--s-file", str(s_file),
                   "--h", "0.1", "--t-end", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert f"skewflow: {s_file}: {message}" in capsys.readouterr().err

    def test_an_overflowing_skew_gate_exits_2_without_a_warning(self, tmp_path, capsys):
        s_file = tmp_path / "s.mat"
        s_file.write_text("0 1e308 0\n1e308 0 0\n0 0 0\n")
        out = tmp_path / "t.csv"
        rc = main(["propagate", "--method", "cayley-midpoint", "--s-file", str(s_file),
                   "--h", "0.1", "--t-end", "1", "--out", str(out)])
        assert rc == 2
        assert ("||A + A^T||_inf = inf exceeds tolerance 1.000e+296"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        rc = main(["propagate", "--method", "nope", *BENCH_FLAGS,
                   "--t-end", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err

    def test_tableau_file_as_method(self, tmp_path):
        rk_file = tmp_path / "custom.rk"
        rk_file.write_text("2\n0 0\n0.5 0\n0 1\n")
        out = tmp_path / "t.csv"
        rc = main(["propagate", "--method", str(rk_file), *BENCH_FLAGS,
                   "--t-end", "1", "--out", str(out)])
        assert rc == 0

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["propagate", "--method", "rk2-closed", "--omega", "0,0,1",
                  "--t-end", "1", "--out", str(tmp_path / "t.csv")])
        assert excinfo.value.code == 1

    def test_overflow_exits_3_with_step_and_time(self, tmp_path, capsys):
        # the RK2 map scales the rotation plane by |1 + 50i - 1250| ~ 1250 per
        # step, and 1250**99 < 1.8e308 < 1250**100: step 100 overflows, but
        # the Gram defect of the step-25 record overflowed first
        argv = ["propagate", "--method", "rk2-closed", "--omega", "0,0,50", "--h", "1",
                "--t-end", "400", "--out", str(tmp_path / "t.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "step 25 " in err and "t = 25.0" in err
        assert not (tmp_path / "t.csv").exists()

    def test_overflow_of_the_map_power_alone_exits_3(self, tmp_path, capsys):
        # from q0 = 1e-3 I the state stays finite (1e-3 * 1250**100 ~ 5e306),
        # but the one record past the start is phi_last @ phi**99 @ q0, and
        # the map power overflows first; that record is the first bad one,
        # so the failure is its step
        q0 = tmp_path / "q0.txt"
        q0.write_text("1e-3 0 0\n0 1e-3 0\n0 0 1e-3\n")
        argv = ["propagate", "--method", "rk2-closed", "--omega", "0,0,50", "--h", "1",
                "--t-end", "100", "--q0", str(q0), "--allow-nonorthogonal",
                "--record-every", "1000", "--out", str(tmp_path / "t.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "step 100 " in err and "t = 100.0" in err
        assert not (tmp_path / "t.csv").exists()

    def test_overflow_between_records_exits_3_at_the_next_record(self, tmp_path, capsys):
        # the state overflows at step 100, between the records at steps 0,
        # 200 and 400; the step-200 record is the first bad one
        argv = ["propagate", "--method", "rk2-closed", "--omega", "0,0,50", "--h", "1",
                "--t-end", "400", "--record-every", "200", "--out", str(tmp_path / "t.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err
        assert "record at step 200 (t = 200.0)" in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("t_end", ["30", "60"])
    def test_meter_overflow_exits_3_with_step_and_time(self, tmp_path, capsys, t_end):
        # the state is still finite at t = 30, but its entries pass 1e77 at
        # step 25 (1250**25 ~ 2.6e77), so the Gram defect overflows there; at
        # t = 60 the energy and determinant overflow too
        argv = ["propagate", "--method", "rk2-closed", "--omega", "0,0,50", "--h", "1",
                "--t-end", t_end, "--out", str(tmp_path / "t.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "step 25 " in err and "t = 25.0" in err
        assert not (tmp_path / "t.csv").exists()

    def test_singular_stage_system_exits_3(self, tmp_path, capsys):
        # I - h*A(x)S is exactly singular for this A with S = hat(0, 0, 1), h = 1
        rk_file = tmp_path / "singular.rk"
        rk_file.write_text("2\n0 -1\n1 0\n0.5 0.5\n-1 1\n")
        rc = main(["propagate", "--method", str(rk_file), "--omega", "0,0,1",
                   "--h", "1", "--t-end", "3", "--out", str(tmp_path / "t.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["cayley-midpoint", "rk2-closed", "gauss2", "rk4-classical"])
    def test_overflowing_step_coefficient_exits_3(self, tmp_path, capsys, method):
        # h * omega overflows to inf: a numerical failure for every method,
        # not an input error for the implicit ones
        rc = main(["propagate", "--method", method, "--omega", "1e200,0,0", "--h", "1e200",
                   "--t-end", "1e201", "--out", str(tmp_path / "t.csv")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_bad_omega_exits_2(self, tmp_path):
        rc = main(["propagate", "--method", "rk2-closed", "--omega", "1,2",
                   "--h", "0.1", "--t-end", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_non_numeric_omega_exits_2_naming_the_flag(self, tmp_path, capsys):
        rc = main(["propagate", "--method", "rk2-closed", "--omega", "0,0,x",
                   "--h", "0.1", "--t-end", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--omega" in err and "'0,0,x'" in err

    def test_non_numeric_s_file_exits_2_with_path_and_line(self, tmp_path, capsys):
        s_file = tmp_path / "s.mat"
        s_file.write_text("# a comment\n0 1\n\n-1 x\n")
        rc = main(["propagate", "--method", "cayley-midpoint", "--s-file", str(s_file),
                   "--h", "0.1", "--t-end", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line 4: non-numeric value in '-1 x' of {s_file}\n" in err
        with pytest.raises(InputError) as excinfo:
            cli._load_matrix_file(str(s_file))
        assert excinfo.value.line == 4
        assert str(excinfo.value).startswith("line 4: ")

    def test_step_count_past_int64_exits_2(self, tmp_path, capsys):
        # 1e300 steps: refused before anything is allocated for them
        rc = main(["propagate", "--method", "cayley-midpoint", "--omega", "0,0,1",
                   "--h", "1e-300", "--t-end", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2**63 - 1 steps" in err and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("t_end", ["inf", "nan"])
    def test_a_non_finite_t_end_exits_2_as_not_finite(self, tmp_path, capsys, t_end):
        rc = main(["propagate", "--method", "cayley-midpoint", "--omega", "0,0,1",
                   "--h", "0.1", "--t-end", t_end, "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"skewflow: t_end ({t_end}) must be finite\n"
        assert not (tmp_path / "t.csv").exists()

    def test_record_stack_past_the_budget_exits_2(self, tmp_path, capsys):
        # 1e18 steps fit an int64, but 1e18 records of 72 bytes fit no
        # memory: refused before the record steps or states are allocated
        args = ["propagate", "--method", "cayley-midpoint", "--omega", "0,0,1",
                "--h", "1e-18", "--t-end", "1", "--out", str(tmp_path / "t.csv")]
        rc = main(args)
        assert rc == 2
        err = capsys.readouterr().err
        assert "--record-every" in err and "record budget" in err
        assert "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()
        # the remedy the message names: 11 records of the same run
        assert main(args + ["--record-every", str(10**17)]) == 0
        assert len(csv_rows(tmp_path / "t.csv")[1]) == 11


class TestRecordBudget:
    def test_budget_counts_states_and_meters(self, tmp_path, monkeypatch, capsys):
        # at d = 1 a record holds 1 state entry and 5 meters: 48 bytes
        monkeypatch.setattr(integrators, "RECORD_BYTES_MAX", 48 * 100)
        s_file = tmp_path / "s.txt"
        s_file.write_text("0\n")
        args = ["propagate", "--method", "cayley-midpoint", "--s-file", str(s_file),
                "--h", "1", "--out", str(tmp_path / "t.csv"), "--t-end"]
        assert main(args + ["99"]) == 0
        assert len(csv_rows(tmp_path / "t.csv")[1]) == 100
        capsys.readouterr()
        assert main(args + ["100"]) == 2
        err = capsys.readouterr().err
        assert "101 records" in err and "--record-every" in err

    def test_csv_writer_holds_one_block(self, tmp_path):
        n = 200_000
        t = np.arange(n) * 0.1
        qs = (1.0 + 1e-3 * np.sin(t)).reshape(n, 1, 1)
        traj = Trajectory("rk2-closed", 0.1, t, qs)
        # the meters are computed when first read; read them here, as every
        # CLI run does before it writes, so that only the writer is measured
        traj.energy_errors, traj.orth_defects, traj.det_drifts
        out = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            with cli._outputs() as write:
                write(str(out), cli._trajectory_csv(traj))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 10**7
        assert peak < size / 4, (peak, size)


# a child that imports the CLI, caps its own address space 256 MB above
# what the import took (so the import always fits), then runs main
LIMITED_CHILD = """
import resource, sys
from skewflow.cli import main
with open("/proc/self/status") as fh:
    taken = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = (taken + 256 * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (soft if hard < 0 else min(soft, hard), hard))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc and relies on Linux's RLIMIT_AS")
def test_a_run_that_does_not_fit_in_memory_exits_2(tmp_path):
    # 10^7 + 1 records of a 3x3 state: 1.1 GB of records and meters, far
    # inside RECORD_BYTES_MAX but past the child's address space
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["propagate", "--method", "cayley-midpoint", "--omega", "0,0,1", "--h", "1",
            "--t-end", "1e7", "--out", str(tmp_path / "t.csv")]
    child = subprocess.run([sys.executable, "-c", LIMITED_CHILD, *argv], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("skewflow: out of memory")
    assert child.stderr.count("\n") == 1 and "Traceback" not in child.stderr
    assert os.listdir(tmp_path) == []


def _spy(monkeypatch, name):
    """Record what ``cli.<name>`` returns during the test."""
    returned = []
    original = getattr(cli, name)

    def spy(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(cli, name, spy)
    return returned


def expected_csv(traj, ref=None):
    """The trajectory CSV by the per-value oracle, from the whole Trajectory."""
    header = "t,E,E_err,orth_defect,det_err"
    columns = [traj.times, traj.energies, traj.energy_errors, traj.orth_defects,
               traj.det_drifts]
    if ref is not None:
        header += ",ref_err"
        columns.append(np.linalg.norm(traj.qs - ref.qs, axis=(1, 2)))
    return (header + "\n" + format_rows_oracle(np.column_stack(columns), ",")).encode()


class TestOutputBytes:
    """Every written table equals the per-value oracle applied to the
    Trajectory the same call returned."""

    def test_benchmark(self, tmp_path, monkeypatch, capsys):
        trajs = _spy(monkeypatch, "propagate")
        assert main(["benchmark", "--out", str(tmp_path)]) == 0
        midpoint, rk2 = trajs
        assert (tmp_path / "midpoint.csv").read_bytes() == expected_csv(midpoint)
        assert (tmp_path / "rk2.csv").read_bytes() == expected_csv(rk2)

    def test_gyro_reference(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(9)
        rates = rng.standard_normal((3000, 3))
        log = tmp_path / "gyro.csv"
        log.write_text("t,wx,wy,wz\n" + "".join(
            f"{i * 0.01!r},{w[0]!r},{w[1]!r},{w[2]!r}\n" for i, w in enumerate(rates.tolist())))
        # the CLI streams this log a block at a time and never builds the
        # library's Trajectories, so the test builds them from the same text
        gyro_log = parse_gyro_csv(log.read_text())
        traj = propagate_gyro(gyro_log, IntegratorConfig(builtin("gauss2"), 0.004))
        out = tmp_path / "att.csv"
        assert main(["gyro", "--input", str(log), "--method", "gauss2", "--h", "0.004",
                     "--out", str(out), "--reference"]) == 0
        assert out.read_bytes() == expected_csv(traj, reference_gyro(gyro_log))

    @pytest.mark.parametrize("dim, t_end", [(3, "300"), (40, "2.1")])
    def test_propagate_with_dump_q(self, tmp_path, monkeypatch, dim, t_end):
        s_file = tmp_path / "s.txt"
        s = random_skew(np.random.default_rng(dim), dim, norm=2.0)
        s_file.write_text("\n".join(" ".join(map(repr, row)) for row in s.tolist()))
        trajs = _spy(monkeypatch, "propagate")
        out, dump = tmp_path / "t.csv", tmp_path / "q.txt"
        assert main(["propagate", "--method", "gauss2", "--s-file", str(s_file),
                     "--h", "0.1", "--t-end", t_end, "--out", str(out),
                     "--dump-q", str(dump)]) == 0
        traj = trajs[0]
        assert out.read_bytes() == expected_csv(traj)
        assert dump.read_bytes() == format_rows_oracle(
            traj.qs.reshape(len(traj), -1), " ").encode()


class TestGyroCommand:
    def test_reference_error_column(self, tmp_path):
        log = tmp_path / "gyro.csv"
        log.write_text("t,wx,wy,wz\n0,0,0,1\n1,0,0,1\n2,0,0,1\n")
        out = tmp_path / "att.csv"
        rc = main(["gyro", "--input", str(log), "--method", "cayley-midpoint",
                   "--h", "0.01", "--out", str(out), "--reference"])
        assert rc == 0
        header, rows = csv_rows(out)
        assert header[-1] == "ref_err"
        assert rows[0][-1] == 0.0
        assert all(row[-1] <= 1e-4 for row in rows)

    def test_reference_is_never_metered(self, tmp_path, monkeypatch):
        # the CSV reads only the reference's states, so none of its meters
        # is computed: each kernel runs once, for the integrated trajectory
        text = "t,wx,wy,wz\n0,0,0,1\n1,0.5,0,1\n2,0,0,1\n"
        log = tmp_path / "gyro.csv"
        log.write_text(text)
        gyro_log = parse_gyro_csv(text)
        integrated = propagate_gyro(gyro_log, IntegratorConfig("cayley-midpoint", 0.01)).qs
        exact = reference_gyro(gyro_log).qs
        calls = []
        for name in ("_sum_squares", "_dets", "_orth_defects"):
            kernel = getattr(diagnostics, name)
            monkeypatch.setattr(diagnostics, name,
                                lambda qs, k=kernel, n=name: calls.append((n, qs)) or k(qs))
        assert main(["gyro", "--input", str(log), "--method", "cayley-midpoint",
                     "--h", "0.01", "--out", str(tmp_path / "att.csv"), "--reference"]) == 0
        assert sorted(name for name, _ in calls) == ["_dets", "_orth_defects", "_sum_squares"]
        # every kernel read the integrated states, none the reference's
        assert not np.array_equal(integrated, exact)
        assert all(np.array_equal(qs, integrated) for _, qs in calls)

    def test_zero_log_holds_attitude(self, tmp_path):
        log = tmp_path / "gyro.csv"
        log.write_text("t,wx,wy,wz\n0,0,0,0\n1,0,0,0\n")
        out = tmp_path / "att.csv"
        assert main(["gyro", "--input", str(log), "--method", "rk2-closed",
                     "--h", "0.1", "--out", str(out)]) == 0
        _, rows = csv_rows(out)
        assert all(row[1] == 3.0 for row in rows)

    @pytest.mark.parametrize("n", [31, 61])
    def test_meter_overflow_exits_3_with_step_and_time(self, tmp_path, capsys, n):
        # the gyro twin of the propagate case: one RK2 step per 1 s interval
        log = tmp_path / "gyro.csv"
        log.write_text("t,wx,wy,wz\n" + "".join(f"{i},0,0,50\n" for i in range(n)))
        argv = ["gyro", "--input", str(log), "--method", "rk2-closed", "--h", "1",
                "--out", str(tmp_path / "att.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert "step 25 " in err and "t = 25.0" in err
        assert not (tmp_path / "att.csv").exists()

    def test_overflow_exits_3_with_step_and_time(self, tmp_path, capsys):
        # the gyro twin of the propagate case: the state overflows in the
        # interval ending at t = 100, after the step-25 meters did
        log = tmp_path / "gyro.csv"
        log.write_text("t,wx,wy,wz\n" + "".join(f"{i},0,0,50\n" for i in range(401)))
        argv = ["gyro", "--input", str(log), "--method", "rk2-closed", "--h", "1",
                "--out", str(tmp_path / "att.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "step 25 " in err and "t = 25.0" in err
        assert not (tmp_path / "att.csv").exists()

    def test_singular_stage_system_exits_3(self, tmp_path, capsys):
        # the singular tableau of the propagate case, applied to a gyro log
        rk_file = tmp_path / "singular.rk"
        rk_file.write_text("2\n0 -1\n1 0\n0.5 0.5\n-1 1\n")
        log = tmp_path / "gyro.csv"
        log.write_text("t,wx,wy,wz\n0,0,0,1\n3,0,0,1\n4,0,0,0\n")
        rc = main(["gyro", "--input", str(log), "--method", str(rk_file), "--h", "1",
                   "--out", str(tmp_path / "att.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err
        assert not (tmp_path / "att.csv").exists()

    def test_step_count_past_int64_exits_2(self, tmp_path, capsys):
        # (1e308 - 0) / 0.1 overflows to an infinite step count
        log = tmp_path / "gyro.csv"
        log.write_text("t,wx,wy,wz\n0,0,0,1\n1e308,0,0,1\n")
        rc = main(["gyro", "--input", str(log), "--method", "cayley-midpoint",
                   "--h", "0.1", "--out", str(tmp_path / "att.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2**63 - 1 steps" in err and "(0.0, 1e+308]" in err
        assert not (tmp_path / "att.csv").exists()

    def test_failing_step_past_int64_is_reported_exactly(self, tmp_path, capsys):
        # 6e18 steps of S = 0, then 6e18 RK2 steps that overflow: the
        # failing record closes step 11999999999999987712, past 2**63
        log = tmp_path / "gyro.csv"
        log.write_text("t,wx,wy,wz\n0,0,0,0\n6e18,0,0,50\n1.2e19,0,0,0\n")
        rc = main(["gyro", "--input", str(log), "--method", "rk2-closed", "--h", "1",
                   "--out", str(tmp_path / "att.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "step 11999999999999987712 " in err and "t = 1.2e+19" in err
        assert not (tmp_path / "att.csv").exists()

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        log = tmp_path / "gyro.csv"
        log.write_bytes(b"t,wx,wy,wz\n0,0,0,1\n1,0,0,\xff\n")
        rc = main(["gyro", "--input", str(log), "--method", "cayley-midpoint",
                   "--h", "0.1", "--out", str(tmp_path / "att.csv")])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "att.csv").exists()

    @pytest.mark.parametrize("refused", [None, "first-read", "line-before", "line-after"])
    def test_a_non_utf8_byte_is_named_at_its_offset_in_the_file(self, tmp_path, capsys,
                                                                refused):
        # the bad byte lies two reads into the log; a line refused before it,
        # in an earlier read or in its own, wins, and one after it loses
        data = bytearray(clean_log(6000).encode())
        at = 300055
        assert at > 2 * gyro._READ_SIZE
        bad_line = data.count(b"\n", 0, at) + 1
        data[at] = 0xFF
        lineno = {None: None, "first-read": 7, "line-before": bad_line - 1,
                  "line-after": bad_line + 1}[refused]
        if lineno is not None:
            # the first digit of the line's time becomes an x
            data[sum(len(line) + 1 for line in data.split(b"\n")[: lineno - 1])] = ord("x")
        log = tmp_path / "gyro.csv"
        log.write_bytes(bytes(data))
        rc = main(["gyro", "--input", str(log), "--method", "cayley-midpoint",
                   "--h", "0.01", "--out", str(tmp_path / "att.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        if refused in ("first-read", "line-before"):
            assert err.startswith(f"skewflow: line {lineno}: non-numeric value")
        else:
            assert err == ("skewflow: 'utf-8' codec can't decode byte 0xff in position 300055: "
                           "invalid start byte\n")
        assert not (tmp_path / "att.csv").exists()

    def test_repeated_timestamp_exits_2(self, tmp_path, capsys):
        log = tmp_path / "gyro.csv"
        log.write_text("t,wx,wy,wz\n0,0,0,1\n0,0,0,1\n")
        rc = main(["gyro", "--input", str(log), "--method", "cayley-midpoint",
                   "--h", "0.1", "--out", str(tmp_path / "att.csv")])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err


def clean_log(samples, seed=0):
    """A clean gyro log: the header, then ``samples`` lines of four numbers."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.5, 1.5, samples)) * 0.01
    rates = rng.uniform(-2.0, 2.0, (samples, 3))
    return GYRO_HEADER + "\n" + "".join(
        f"{t!r},{x!r},{y!r},{z!r}\n" for t, (x, y, z) in zip(times.tolist(), rates.tolist()))


def replace_line(text, lineno, new):
    """``text`` with its 1-based line ``lineno`` (or the last) replaced by ``new``."""
    lines = text.split("\n")
    lines[min(lineno, len(lines) - 1) - 1] = new
    return "\n".join(lines)


def read_edge(text):
    # the 1-based line that starts the second read of a streamed log
    body = text.index("\n") + 1
    return text.count("\n", 0, text.rfind("\n", body, body + gyro._READ_SIZE)) + 2


def repeat_time(text, lineno):
    # line ``lineno`` takes the time of the line before it
    lines = text.split("\n")
    before, line = lines[lineno - 2], lines[lineno - 1]
    return replace_line(text, lineno, before.split(",")[0] + line[line.index(","):])


# each case edits a clean log of 2 * _BLOCK + 1 samples, whose first block
# ends at line _BLOCK + 2; line numbers count the header
GYRO_CASES = {
    "clean": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no-final-newline": lambda text: text[:-1],
    "blank-line": lambda text: replace_line(text, 40, "\n" + text.split("\n")[39]),
    "comment-line": lambda text: replace_line(text, 40, "# note\n" + text.split("\n")[39]),
    "bad-line-after-the-first-block": lambda text: replace_line(text, 2 * _BLOCK + 2, "1,2,x,3"),
    "time-repeated-across-a-block-edge": lambda text: repeat_time(text, _BLOCK + 3),
    "time-repeated-across-a-read-edge": lambda text: repeat_time(text, read_edge(text)),
    "form-feed": lambda text: replace_line(text, 7, text.split("\n")[6] + "\x0c"),
    "overflowing": lambda text: replace_line(
        text, _BLOCK + 9, text.split("\n")[_BLOCK + 8].split(",")[0] + ",1e200,0,1e200"),
    "header-only": lambda text: GYRO_HEADER + "\n",
    "leading-comment": lambda text: "# a log\n" + text,
}
# the overflow of block 2 is a numerical failure, but a bad line after it
# is met first when the log is read whole, and so it wins
GYRO_CASES["overflow-then-bad-line"] = lambda text: GYRO_CASES[
    "bad-line-after-the-first-block"](GYRO_CASES["overflowing"](text))
GYRO_METHODS = ["cayley-midpoint", "rk2-closed", "gauss2"]


def gyro_outcome(work, text, method, reference, capsys, flags=()):
    """Everything a ``gyro`` run leaves: exit code, stdout, stderr, and the
    bytes of every file in ``work``, where the log is written first."""
    work.mkdir()
    (work / "in.csv").write_text(text, newline="")
    old = os.getcwd()
    os.chdir(work)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["gyro", "--input", "in.csv", "--method", method, "--h", "0.004",
                         "--out", "att.csv"] + (["--reference"] if reference else [])
                        + list(flags))
    finally:
        os.chdir(old)
    out, err = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return code, out, err, [str(w.message) for w in caught], files


def whole_log_gyro(args):
    """``gyro`` on the whole log, the reference of every run: the line
    parser over the whole text, then ``propagate_gyro`` and
    ``reference_gyro``, their CSV and manifest written as ``gyro`` writes
    them; each step raises its own errors, so they come in that order."""
    with open(args.input) as fh:
        log = line_parser_log(fh.read())
    config = IntegratorConfig(method=cli._resolve_method(args.method), step=args.h)
    traj = propagate_gyro(log, config)
    ref = reference_gyro(log).qs if args.reference else None
    with cli._outputs() as write:
        write(args.out, cli._csv_text([(traj, ref)], args.reference))
        write(args.out + ".manifest", cli._manifest(
            "gyro", method=traj.method, step=args.h, t_end=float(log.times[-1]),
            inputs=args.input, outputs=args.out))
    print(f"wrote {args.out} ({len(traj)} records)")
    return cli.EXIT_OK


class WholeLogParser:
    """``main``'s parser, with every ``gyro`` run sent to :func:`whole_log_gyro`,
    so that its errors become main's exit codes and lines."""

    build = staticmethod(cli.build_parser)

    def __init__(self):
        self.parser = self.build()

    def parse_args(self, argv):
        args = self.parser.parse_args(argv)
        if args.subcommand == "gyro":
            args.func = whole_log_gyro
        return args


def whole_log_outcome(work, text, method, reference, capsys, flags=()):
    """:func:`gyro_outcome` of the same run on the whole log."""
    with mock.patch.object(cli, "build_parser", WholeLogParser):
        return gyro_outcome(work, text, method, reference, capsys, flags)


class TestStreamedGyro:
    """``gyro`` reads every log a chunk of lines at a time and runs it a
    block at a time.  A run leaves what a run on the whole log leaves:
    exit code, stdout, stderr and every file's bytes."""

    def both(self, tmp_path, monkeypatch, capsys, text, method, reference, flags=()):
        streamed = gyro_outcome(tmp_path / "streamed", text, method, reference, capsys, flags)
        whole = whole_log_outcome(tmp_path / "whole", text, method, reference, capsys, flags)
        assert streamed == whole
        return streamed

    @pytest.mark.parametrize("reference", [False, True], ids=["plain", "reference"])
    @pytest.mark.parametrize("method", GYRO_METHODS)
    @pytest.mark.parametrize("samples", [1, 2, 3, _BLOCK, _BLOCK + 1, _BLOCK + 2,
                                         2 * _BLOCK + 1, 3 * _BLOCK + 5])
    def test_every_length_gives_the_whole_log_bytes(self, tmp_path, monkeypatch, capsys,
                                                    samples, method, reference):
        code = self.both(tmp_path, monkeypatch, capsys, clean_log(samples, samples), method,
                         reference)[0]
        assert code == (0 if samples > 1 else 2)

    @pytest.mark.parametrize("reference", [False, True], ids=["plain", "reference"])
    @pytest.mark.parametrize("method", GYRO_METHODS)
    @pytest.mark.parametrize("case", sorted(GYRO_CASES))
    def test_every_case_gives_the_whole_log_bytes(self, tmp_path, monkeypatch, capsys,
                                                  case, method, reference):
        text = GYRO_CASES[case](clean_log(2 * _BLOCK + 1, 5))
        code, _, err, caught, files = self.both(tmp_path, monkeypatch, capsys, text, method,
                                                reference)
        assert caught == [] and "Traceback" not in err
        if code != 0:
            assert list(files) == ["in.csv"]

    @pytest.mark.parametrize("case", ["bad-line-after-the-first-block", "header-only", "clean"])
    def test_an_unknown_method_loses_to_the_logs_error(self, tmp_path, monkeypatch, capsys,
                                                       case):
        text = GYRO_CASES[case](clean_log(2 * _BLOCK + 1, 5))
        code, _, err, *_ = self.both(tmp_path, monkeypatch, capsys, text, "no-such-method",
                                     False)
        assert code == 2
        assert ("unknown method" in err) == (case == "clean")

    def test_a_bad_line_after_an_overflow_wins(self, tmp_path, monkeypatch, capsys):
        # the overflow in block 2 is met first by the stream, and the log
        # is read on to its end, where line 2 * _BLOCK + 2 is refused
        text = GYRO_CASES["overflow-then-bad-line"](clean_log(2 * _BLOCK + 1, 5))
        code, _, err, *_ = self.both(tmp_path, monkeypatch, capsys, text, "gauss2", False)
        assert (code, err) == (2, f"skewflow: line {2 * _BLOCK + 2}: non-numeric value in "
                                  "'1,2,x,3'\n")

    def test_an_overlong_interval_after_an_overflow_wins(self, tmp_path, monkeypatch, capsys):
        # every map is built before a record is metered, so the interval of
        # more than 2**63 steps in block 2 wins over the overflow in block 1
        text = GYRO_HEADER + "\n" + "".join(f"{i},0,0,50\n" for i in range(_BLOCK + 9))
        text += "1e19,0,0,1\n1.1e19,0,0,1\n"
        code, _, err, *_ = self.both(tmp_path, monkeypatch, capsys, text, "rk2-closed", False,
                                     ["--h", "1"])
        assert code == 2 and "2**63 - 1 steps" in err

    @pytest.mark.parametrize("case", ["overflowing", "bad-line-after-the-first-block", "clean"])
    def test_an_output_that_cannot_be_written_loses_to_the_runs_error(
            self, tmp_path, monkeypatch, capsys, case):
        text = GYRO_CASES[case](clean_log(2 * _BLOCK + 1, 5))
        code, _, err, *_ = self.both(tmp_path, monkeypatch, capsys, text, "rk2-closed", False,
                                     ["--out", "missing/att.csv"])
        assert code == {"overflowing": 3}.get(case, 2)
        assert ("No such file" in err) == (case == "clean")

    @pytest.mark.parametrize("samples", [2, _BLOCK + 1, 2 * _BLOCK + 7])
    @pytest.mark.parametrize("case", ["clean", "crlf", "no-final-newline"])
    def test_a_clean_log_never_takes_the_line_parser(self, tmp_path, monkeypatch, capsys,
                                                     case, samples):
        def refuse(*args):
            raise AssertionError("the line parser ran")

        monkeypatch.setattr(gyro, "_parse_lines", refuse)
        text = GYRO_CASES[case](clean_log(samples))
        for method in GYRO_METHODS:
            for reference in (False, True):
                work = tmp_path / f"{method}-{reference}"
                code, out, *_ = gyro_outcome(work, text, method, reference, capsys)
                assert code == 0 and f"({samples} records)" in out

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("case", ["clean", "comment-line", "leading-comment"])
    def test_a_log_from_a_pipe_is_read_once(self, tmp_path, monkeypatch, capsys, case):
        # a pipe is read once, a chunk at a time, as a file is
        text = GYRO_CASES[case](clean_log(3 * _BLOCK))
        want = whole_log_outcome(tmp_path / "file", text, "gauss2", True, capsys)
        work = tmp_path / "pipe"
        work.mkdir()
        os.mkfifo(work / "in.csv")
        writer = threading.Thread(target=(work / "in.csv").write_text, args=(text,))
        writer.start()
        monkeypatch.chdir(work)
        try:
            code = main(["gyro", "--input", "in.csv", "--method", "gauss2", "--h", "0.004",
                         "--out", "att.csv", "--reference"])
        finally:
            writer.join(timeout=10)
        assert (code, capsys.readouterr().out) == want[:2]
        assert (work / "att.csv").read_bytes() == want[4]["att.csv"]
        assert (work / "att.csv.manifest").read_bytes() == want[4]["att.csv.manifest"]

    @staticmethod
    def temporaries(tmp_path, blocks, edit):
        """Peak traced bytes of a streamed ``gyro --reference`` run over a
        log of ``blocks`` blocks edited by ``edit``, above what it holds at
        the start."""
        log = tmp_path / f"{blocks}.csv"
        log.write_text(edit(clean_log(blocks * _BLOCK + 1)))
        argv = ["gyro", "--input", str(log), "--method", "cayley-midpoint", "--h", "0.01",
                "--out", str(tmp_path / f"{blocks}-att.csv"), "--reference"]
        with contextlib.redirect_stdout(io.StringIO()):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peak - start

    def test_a_run_holds_one_block_however_long_the_log(self, tmp_path):
        # a run that held the text, its lines or the state stacks of the
        # whole log would hold about 30 MB more at 48 blocks than at 3
        short = self.temporaries(tmp_path, 3, lambda text: text)
        long = self.temporaries(tmp_path, 48, lambda text: text)
        assert long - short <= 64 * 1024, (short, long)

    def test_a_commented_log_holds_one_block_too(self, tmp_path):
        # a preamble, and a comment and a blank line in the body
        def edit(text):
            return "# a log\n" + replace_line(text, 3000, "# note\n\n" + text.split("\n")[2999])

        short = self.temporaries(tmp_path, 3, edit)
        long = self.temporaries(tmp_path, 48, edit)
        assert long - short <= 64 * 1024, (short, long)


class TestLineRule:
    """Every input file skips blank and ``#`` lines alike and numbers the
    lines it reports the same way, whatever its line ends."""

    # the first data line, a bad line, and the command that reads the file
    LAYOUTS = {
        "s-file": ("0 1", "-1 x", ["propagate", "--method", "cayley-midpoint", "--h", "0.1",
                                   "--t-end", "1", "--out", "out.csv", "--s-file"]),
        "tableau": ("1", "x", ["check-tableau", "--file"]),
        "gyro": ("t,wx,wy,wz", "0,0,0", ["gyro", "--method", "cayley-midpoint", "--h", "0.1",
                                         "--out", "out.csv", "--input"]),
    }

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("kind", sorted(LAYOUTS))
    def test_the_bad_line_after_comments_and_blanks_is_line_5(
            self, tmp_path, monkeypatch, capsys, kind, end):
        first, bad, argv = self.LAYOUTS[kind]
        monkeypatch.chdir(tmp_path)
        text = end.join(["# c", "", first, "  # c", bad]) + end
        (tmp_path / "input.txt").write_bytes(text.encode())
        assert main(argv + ["input.txt"]) == 2
        assert "line 5: " in capsys.readouterr().err

    def test_an_s_file_breaks_lines_only_at_line_ends(self, tmp_path, capsys):
        # a text file object does not split at \x0c, which str.splitlines
        # does: there the bad value would be on line 3
        s_file = tmp_path / "s.mat"
        s_file.write_text("0 1\x0c# c\n-1 x\n")
        rc = main(["propagate", "--method", "cayley-midpoint", "--s-file", str(s_file),
                   "--h", "0.1", "--t-end", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert f"line 1: non-numeric value in '0 1\\x0c# c' of {s_file}" in capsys.readouterr().err
        with pytest.raises(InputError) as excinfo:
            cli._load_matrix_file(str(s_file))
        assert excinfo.value.line == 1


# the exit-code property's tokens, plus an underscore in a number (float()
# reads it, loadtxt does not), the no-break space and the vertical tab
MATRIX_TOKENS = TOKENS + ["1_0", "\xa0", "\x0b"]
MATRIX_JUNK = st.lists(st.sampled_from(MATRIX_TOKENS), max_size=4).map("".join)
MATRIX_NUMBERS = st.one_of(st.floats(width=64).map(repr), st.integers(-10**20, 10**20).map(str))


@st.composite
def matrix_texts(draw):
    """Square matrices of numbers with a few fields corrupted, separated by
    any whitespace, between comment and blank lines, with any line ends."""
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(MATRIX_NUMBERS, min_size=n, max_size=n)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        wrapped = draw(MATRIX_JUNK) + rows[row][col] + draw(MATRIX_JUNK)
        rows[row][col] = draw(st.one_of(st.just(wrapped), MATRIX_JUNK, MATRIX_NUMBERS))
    gaps = st.sampled_from([" ", "\t", "  ", "\xa0", "\x0b", "\x1f", " \x0c"])
    lines = [draw(st.sampled_from(["", " ", "\t"])) + "".join(
        field + draw(gaps) for field in row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# c", " #"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def matrix_outcome(read, path):
    """What a matrix reader makes of ``path``: the matrix's shape and bytes,
    its error and line, or None."""
    try:
        m = read(path)
    except InputError as exc:
        return "error", str(exc), exc.line
    return None if m is None else ("matrix", m.shape, m.tobytes())


def read_matrix_by_lines(path):
    with open(path) as fh:
        return cli._parse_matrix_lines(path, list(data_lines(fh)))


def read_matrix_in_one_call(path):
    """The one-call path alone: None wherever the line parser would run."""
    with mock.patch.object(cli, "_parse_matrix_lines", lambda path, numbered: None):
        return cli._load_matrix_file(path)


class TestMatrixFilePaths:
    """The one-call loadtxt path of ``--s-file`` and ``--q0`` against the
    line parser: the same matrix bit for bit, or the line parser's error."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(matrix_texts(),
                     st.lists(st.sampled_from(MATRIX_TOKENS), max_size=30).map("".join)))
    @example("0 1\n-1 0\n")
    @example("0 1_0\n-1 0\n")
    @example("0\x1f1\n-1 0\n")
    @example("0 1 # c\n-1 0\n")
    @example("0 1\n-1 nan\n")
    @example("1 2\n")
    @example("1\n2\n")
    @example("0\xa01\n-1\x0b0\n")
    @example("# only a comment\n\n")
    def test_both_paths_agree(self, tmp_path, text):
        path = str(tmp_path / "m.txt")
        Path(path).write_bytes(text.encode())
        slow = matrix_outcome(read_matrix_by_lines, path)
        assert matrix_outcome(cli._load_matrix_file, path) == slow
        fast = matrix_outcome(read_matrix_in_one_call, path)
        assert fast is None or fast == slow

    @pytest.mark.parametrize("s_text, q0_text", [
        ("0 -3 2\n3 0 -1\n-2 1 0\n", "0 -1 0\n1 0 0\n0 0 1\n"),
        ("# S\r\n\r\n 0\t-3 2 \r\n3 0 -1\r\n-2 1 0", "1 0 0\n\n# c\n0 1 0\n0 0 1\n"),
    ])
    def test_clean_files_take_the_one_call_path(self, tmp_path, monkeypatch, s_text, q0_text):
        def refuse(path, numbered):
            raise AssertionError("line parser called")

        monkeypatch.setattr(cli, "_parse_matrix_lines", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.txt").write_bytes(s_text.encode())
        (tmp_path / "q0.txt").write_bytes(q0_text.encode())
        assert main(["propagate", "--method", "gauss2", "--s-file", "s.txt", "--q0", "q0.txt",
                     "--h", "0.1", "--t-end", "0.3", "--out", "out.csv"]) == 0


class TestNonFiniteValues:
    """A nan, inf or overflowing value in any input file is refused on its
    own line, with exit 2, by the reader the command uses."""

    PROPAGATE = ["propagate", "--h", "0.1", "--t-end", "1", "--out", "out.csv"]
    MIDPOINT = PROPAGATE + ["--method", "cayley-midpoint"]
    GYRO = ["gyro", "--method", "cayley-midpoint", "--h", "0.1", "--out", "out.csv", "--input"]
    # the text, with the bad value on line 3; the command; the reader
    KINDS = {
        "s-file": ("0 0 0\n0 0 0\n0 0 {}\n", MIDPOINT + ["--s-file"],
                   cli._load_matrix_file),
        "q0": ("1 0 0\n0 1 0\n0 0 {}\n", MIDPOINT + ["--omega", "0,0,1", "--q0"],
               cli._load_matrix_file),
        "tableau-propagate": ("2\n0 0\n{} 0\n0 1\n", PROPAGATE + ["--omega", "0,0,1", "--method"],
                              lambda path: parse_tableau(Path(path).read_text())),
        "tableau-check": ("2\n0 0\n{} 0\n0 1\n", ["check-tableau", "--file"],
                          lambda path: parse_tableau(Path(path).read_text())),
        "gyro-rate": ("t,wx,wy,wz\n0,0,0,1\n1,0,{},1\n2,0,0,1\n", GYRO,
                      lambda path: parse_gyro_csv(Path(path).read_text())),
        "gyro-time": ("t,wx,wy,wz\n0,0,0,1\n{},0,0,1\n2,0,0,1\n", GYRO,
                      lambda path: parse_gyro_csv(Path(path).read_text())),
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_exits_2_naming_the_line(self, tmp_path, monkeypatch, capsys, kind, value):
        text, argv, reader = self.KINDS[kind]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "input.txt").write_text(text.format(value))
        assert main(argv + ["input.txt"]) == 2
        assert "skewflow: line 3: non-finite value in " in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()
        with pytest.raises(InputError) as excinfo:
            reader("input.txt")
        assert excinfo.value.line == 3


GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]


@st.composite
def user_tableaus(draw):
    """s <= 4 stages with entries on a small grid, so that stage systems
    I - h A (x) S that are exactly singular do occur (A = [[0, -1], [1, 0]]
    with h |omega| = 1, say)."""
    s = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from(GRID), min_size=s, max_size=s)
    a, b = draw(st.lists(row, min_size=s, max_size=s)), draw(row)
    return "\n".join([str(s)] + [" ".join(map(str, r)) for r in a + [b]]) + "\n"


class TestRandomUserTableaus:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        tableau=user_tableaus(),
        omega=st.sampled_from(["0,0,1", "0,-1,0", "2,0,0", "0,0,0.5"]),
        h=st.sampled_from(["0.5", "1", "2"]),
        dim=st.sampled_from([1, 2, 4, 5]),
        upper=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=10, max_size=10),
    )
    # exactly singular at h |omega| = 1 and 2, on every path; random draws
    # hit a singular system in about 1 of 250 runs
    @example(tableau="2\n0 -1\n1 0\n0.5 0.5\n", omega="0,0,1", h="1", dim=4,
             upper=[1.0] + [0.0] * 9)
    @example(tableau="2\n0 0.5\n-0.5 0\n1 0\n", omega="2,0,0", h="1", dim=5,
             upper=[0.0] * 9 + [2.0])
    def test_every_run_exits_0_or_3(self, capsys, tableau, omega, h, dim, upper):
        # the closed-form 3x3 maps (--omega, gyro) and the general path
        # (--s-file) guard their stage systems alike: a singular one exits
        # 3, never 1 and never with a traceback
        s = np.zeros((dim, dim))
        s[np.triu_indices(dim, 1)] = upper[: dim * (dim - 1) // 2]
        s -= s.T
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "user.rk").write_text(tableau)
            (tmp / "s.txt").write_text("\n".join(" ".join(map(str, r)) for r in s) + "\n")
            (tmp / "gyro.csv").write_text(f"t,wx,wy,wz\n0,{omega}\n3,{omega}\n4,0,0,0\n")
            common = ["--method", str(tmp / "user.rk"), "--h", h, "--out", str(tmp / "t.csv")]
            runs = [["propagate", "--omega", omega, "--t-end", "3"] + common,
                    ["propagate", "--s-file", str(tmp / "s.txt"), "--t-end", "3"] + common,
                    ["gyro", "--input", str(tmp / "gyro.csv")] + common]
            for argv in runs:
                rc = main(argv)
                err = capsys.readouterr().err
                assert rc in (0, 3), err
                assert "Traceback" not in err
                assert (rc == 3) == ("numerical failure" in err)


class TestBenchmark:
    def test_full_run_passes_all_checks(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert main(["benchmark", "--out", str(out_dir)]) == 0
        summary = read(out_dir / "summary.txt")
        assert summary.count("=PASS") == 4
        assert "FAIL" not in summary
        assert (out_dir / "midpoint.csv").exists()
        assert (out_dir / "rk2.csv").exists()
        assert (out_dir / "manifest.txt").exists()
        printed = capsys.readouterr().out
        assert "check.midpoint-energy-bound(1e-8)=PASS" in printed
        assert "check.rk2-final-vs-forecast(0.5%)=PASS" in printed

        _, rows = csv_rows(out_dir / "rk2.csv")
        energy_errors = [row[2] for row in rows]
        assert all(b >= a for a, b in zip(energy_errors, energy_errors[1:]))
        assert rows[-1][1] == pytest.approx(6196.5189110466, rel=1e-10)

    def test_midpoint_records_stay_orthogonal_to_rounding(self, tmp_path):
        # the paper's headline meter: 20000 records of the Cayley map, each
        # its own n-step map, stay within a few dozen ulps of orthogonal
        assert main(["benchmark", "--out", str(tmp_path / "bench")]) == 0
        summary = read(tmp_path / "bench" / "summary.txt")
        fields = dict(line.split("=") for line in summary.splitlines())
        assert float(fields["midpoint.max_orth_defect"]) <= 7.2e-14


class TestInputErrors:
    @pytest.mark.parametrize("exc, line", [
        (SkewnessError(1.0, 1e-12), None),
        (TableauError("A must be square"), None),
        (TableauParseError("non-numeric value in b", 4), 4),
        (GyroLogError("expected 4 fields, got 3", 7), 7),
        (GyroLogError("log contains non-finite values"), None),
    ])
    def test_refused_input_is_an_input_error(self, exc, line):
        assert isinstance(exc, InputError) and isinstance(exc, ValueError)
        assert exc.line == line
        assert str(exc).startswith(f"line {line}: ") == (line is not None)

    def test_an_internal_value_error_is_not_an_input_error(self, tmp_path, monkeypatch):
        # a bug inside the program must surface, not exit 2 as if the
        # input were bad
        def broken(*args, **kwargs):
            raise ValueError("shapes (3,3) and (4,4) not aligned")

        monkeypatch.setattr(cli, "propagate", broken)
        with pytest.raises(ValueError, match="not aligned"):
            main(["propagate", "--method", "rk2-closed", *BENCH_FLAGS, "--t-end", "1",
                  "--out", str(tmp_path / "t.csv")])
        assert not (tmp_path / "t.csv").exists()


class TestAtomicWrite:
    @pytest.mark.parametrize("old", [None, "old\n"])
    def test_a_failed_write_removes_its_temp_file_and_keeps_the_target(self, tmp_path, old):
        def parts():
            yield "t,E\n"
            raise RuntimeError("disk full")

        target = tmp_path / "t.csv"
        if old is not None:
            target.write_text(old)
        with pytest.raises(RuntimeError, match="disk full"), cli._outputs() as write:
            write(str(target), parts())
        assert list(tmp_path.iterdir()) == ([] if old is None else [target])
        if old is not None:
            assert target.read_text() == old


def _second_call_out_of_memory(monkeypatch, name):
    """Make the second call of ``cli.<name>`` run out of memory."""
    original, calls = getattr(cli, name), []

    def failing(*args, **kwargs):
        calls.append(name)
        if len(calls) == 2:
            raise MemoryError
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, failing)


class TestRunOutputs:
    """A run renames its files into place only after all are written."""

    PROPAGATE = ["propagate", "--method", "cayley-midpoint", "--omega", "0,0,1", "--h", "0.1",
                 "--t-end", "1", "--out", "traj.csv"]

    def run(self, work, monkeypatch, capsys, argv):
        monkeypatch.chdir(work)
        code = main(argv)
        return code, capsys.readouterr().err, sorted(os.listdir(work))

    def test_a_dump_that_cannot_be_written_leaves_no_csv(self, tmp_path, monkeypatch, capsys):
        argv = self.PROPAGATE + ["--dump-q", "missing/q.txt"]
        first = self.run(tmp_path, monkeypatch, capsys, argv)
        # the error names the path asked for, so stderr is the same every run
        assert first == (2, "skewflow: [Errno 2] No such file or directory: "
                            "'missing/q.txt'\n", [])
        assert self.run(tmp_path, monkeypatch, capsys, argv) == first

    def test_a_manifest_path_that_is_a_directory_leaves_no_csv(self, tmp_path, monkeypatch,
                                                                capsys):
        (tmp_path / "traj.csv.manifest").mkdir()
        code, err, left = self.run(tmp_path, monkeypatch, capsys, self.PROPAGATE)
        assert (code, left) == (2, ["traj.csv.manifest"])
        assert err == "skewflow: [Errno 21] Is a directory: 'traj.csv.manifest'\n"

    @pytest.mark.parametrize("dump", ["traj.csv", "./traj.csv", "traj.csv.manifest"])
    def test_a_path_named_twice_is_refused_and_leaves_no_file(self, tmp_path, monkeypatch,
                                                              capsys, dump):
        # each output would overwrite another, which a manifest still lists
        code, err, left = self.run(tmp_path, monkeypatch, capsys,
                                   self.PROPAGATE + ["--dump-q", dump])
        assert (code, left) == (2, [])
        assert err == f"skewflow: {dump}: named as two outputs of one run\n"

    def test_a_benchmark_that_stops_at_rk2_leaves_no_midpoint_csv(self, tmp_path,
                                                                   monkeypatch, capsys):
        _second_call_out_of_memory(monkeypatch, "propagate")
        code, err, left = self.run(tmp_path, monkeypatch, capsys, ["benchmark", "--out", "b"])
        assert (code, err) == (2, "skewflow: out of memory\n")
        assert left == ["b"] and os.listdir(tmp_path / "b") == []

    def test_a_gyro_run_that_stops_at_its_manifest_leaves_no_csv(self, tmp_path, monkeypatch,
                                                                 capsys):
        (tmp_path / "log.csv").write_text(GYRO_LOG)
        # the CSV is written whole before the manifest fails, by the
        # command and by a run on the whole log alike
        monkeypatch.setattr(cli, "_manifest", mock.Mock(side_effect=MemoryError))
        argv = ["gyro", "--input", "log.csv", "--method", "gauss2", "--h", "0.02",
                "--out", "att.csv"]
        want = (2, "skewflow: out of memory\n", ["log.csv"])
        assert self.run(tmp_path, monkeypatch, capsys, argv) == want
        with mock.patch.object(cli, "build_parser", WholeLogParser):
            assert self.run(tmp_path, monkeypatch, capsys, argv) == want

    def test_a_benchmark_whose_checks_fail_writes_every_file(self, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.setattr(cli, "rk2_energy_forecast", lambda *args, **kwargs: 1.0)
        assert main(["benchmark", "--out", str(tmp_path)]) == 3
        assert "check.rk2-final-vs-forecast(0.5%)=FAIL" in capsys.readouterr().out
        assert sorted(os.listdir(tmp_path)) == ["manifest.txt", "midpoint.csv", "rk2.csv",
                                                "summary.txt"]


# a child that sets its umask, then runs each subcommand that writes files
UMASK_CHILD = """
import os, sys
from skewflow.cli import main
os.umask(int(sys.argv[1], 8))
log = "log.csv"
with open(log, "w") as fh:
    fh.write(sys.argv[2])
for argv in (["propagate", "--method", "gauss2", "--omega", "0,0,1", "--h", "0.1",
              "--t-end", "1", "--out", "p.csv", "--dump-q", "q.txt"],
             ["gyro", "--input", log, "--method", "rk2-closed", "--h", "0.02", "--out", "g.csv"],
             ["benchmark", "--out", "."]):
    assert main(argv) == 0, argv
os.remove(log)
"""


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_output_modes_follow_the_umask(tmp_path, umask):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    child = subprocess.run([sys.executable, "-c", UMASK_CHILD, oct(umask), GYRO_LOG],
                           cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(
        ["p.csv", "q.txt", "p.csv.manifest", "g.csv", "g.csv.manifest", "midpoint.csv",
         "rk2.csv", "summary.txt", "manifest.txt"], 0o666 & ~umask)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
def test_a_40x40_dump_is_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # the benchmark's implicit-d40 size; at d = 120 LAPACK rounds differently
    # under two threads, which README states and no test asserts
    s_file = tmp_path / "s.txt"
    s = random_skew(np.random.default_rng(40), 40, norm=2.0)
    s_file.write_text("\n".join(" ".join(map(repr, row)) for row in s.tolist()))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / threads
        out.mkdir()
        child = subprocess.run(
            [sys.executable, "-m", "skewflow.cli", "propagate", "--method", "gauss2",
             "--s-file", str(s_file), "--h", "0.1", "--t-end", "200", "--record-every", "100",
             "--out", str(out / "t.csv"), "--dump-q", str(out / "q.txt")],
            env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        manifest = (out / "t.csv.manifest").read_text().splitlines()
        assert manifest[-1] == "blas_threads=" + ",".join(
            f"{name}:{threads}" for name in cli._BLAS_THREADS)
        outputs[threads] = (out / "t.csv").read_bytes(), (out / "q.txt").read_bytes()
    assert outputs["1"] == outputs["2"]


class TestTopLevel:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "skewflow" in capsys.readouterr().out


class TestCachedParser:
    # a usage error, --version and a mutually exclusive clash, each ending in
    # SystemExit, then one valid run of each reading subcommand
    SEQUENCE = [
        ["propagate", "--method", "gauss2"],
        ["--version"],
        ["propagate", "--method", "gauss2", "--omega", "0,0,1", "--s-file", "s.txt",
         "--h", "0.1", "--t-end", "1", "--out", "clash.csv"],
        ["propagate", "--method", "gauss2", "--s-file", "s.txt", "--h", "0.1",
         "--t-end", "0.35", "--out", "p.csv", "--dump-q", "q.txt"],
        ["gyro", "--input", "log.csv", "--method", "cayley-midpoint", "--h", "0.02",
         "--out", "g.csv", "--reference"],
        ["check-tableau", "--name", "gauss2"],
    ]

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def run_sequence(self, work, monkeypatch, capsys):
        """Each call's exit code, stdout and stderr, and the bytes of every file."""
        work.mkdir()
        (work / "s.txt").write_text(S_FILE)
        (work / "log.csv").write_text(GYRO_LOG)
        monkeypatch.chdir(work)
        calls = []
        for argv in self.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            calls.append((code, *capsys.readouterr()))
        return calls, {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    def test_every_call_matches_a_fresh_parser(self, tmp_path, monkeypatch, capsys):
        cached = self.run_sequence(tmp_path / "cached", monkeypatch, capsys)
        assert cli.build_parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = self.run_sequence(tmp_path / "fresh", monkeypatch, capsys)
        assert [code for code, _, _ in cached[0]] == [1, 0, 1, 0, 0, 0]
        assert cached == fresh

    def test_only_the_first_call_builds_parsers(self, monkeypatch, capsys):
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        argv = ["check-tableau", "--name", "midpoint"]
        assert main(argv) == 0
        first = len(built)
        assert main(argv) == 0
        # the top parser and one for each of the four subcommands
        assert first == 5 and len(built) == first

    def test_help_follows_columns_after_the_parser_is_cached(self, monkeypatch, capsys):
        helps = {}
        for columns in ("200", "40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as excinfo:
                main(["propagate", "-h"])
            assert excinfo.value.code == 0
            helps.setdefault(columns, []).append(capsys.readouterr().out)
        assert cli.build_parser.cache_info().misses == 1
        wide, narrow = helps["200"][0], helps["40"][0]
        assert helps["200"][1] == wide
        assert len(narrow.splitlines()) > len(wide.splitlines())
