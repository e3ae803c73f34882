import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skewflow.cli import main

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
        # the map power overflows first; the per-step search finds no
        # non-finite state, so the failure is the record's own step
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

    def test_repeated_timestamp_exits_2(self, tmp_path, capsys):
        log = tmp_path / "gyro.csv"
        log.write_text("t,wx,wy,wz\n0,0,0,1\n0,0,0,1\n")
        rc = main(["gyro", "--input", str(log), "--method", "cayley-midpoint",
                   "--h", "0.1", "--out", str(tmp_path / "att.csv")])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err


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
