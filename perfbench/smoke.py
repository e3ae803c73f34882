"""Smoke test of the benchmark harness (not part of the test suite).

Run from the repository root:

    python3 perfbench/smoke.py

It checks that ``BENCHMARK.json`` is well formed, that the tracer passes
return values and exceptions through and reports missing names as absent,
that the speed probe restores the timer and signal handler it borrows,
that every workload runs at a tiny size with and without tracing and prints
exactly the declared metrics, and that the harness refuses to run, without
printing a result, in a directory that holds only the benchmark.  Exits 0
when all of that holds.
"""

import contextlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the BLAS thread cap before numpy loads)
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert spec["command"][0] == "python3" and spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS), names
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and w["why"] == WORKLOADS[w["name"]].why, w
    seen = set(names)
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            assert set(m) == keys, m
            assert NAME.match(m["name"]) and m["name"] not in seen, m["name"]
            seen.add(m["name"])
            assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values()), bounds
    assert bounds.get("setup_s") == max(bounds.values()), bounds


def check_tracer():
    run._import_program()
    import skewflow.gyro as gyro
    import skewflow.linalg as linalg

    tracer = Tracer()
    token = object()
    assert tracer.wrap("x", lambda: token)() is token

    class Boom(Exception):
        pass

    exc = Boom()

    def raiser():
        raise exc

    try:
        tracer.wrap("x", raiser)()
    except Boom as caught:
        assert caught is exc
    else:
        raise AssertionError("exception swallowed")
    assert tracer.calls["x"] == 2

    original = gyro.expm
    del gyro.expm
    try:
        with tracer.installed():
            assert gyro.det is not linalg.det
        assert tracer.absent == ["skewflow.gyro.expm"] and tracer.layer_absent("linalg.expm")
    finally:
        gyro.expm = original
    assert gyro.det is linalg.det, "wrapper not restored"


def check_probe():
    probe = SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    with probe.sampling() as start:
        pass
    inside, factor = probe.rep_factor(start)  # no timer tick yet: one probe afterwards
    assert inside == 0.0 and factor > 0 and len(probe.samples) == 1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(stdout, expected):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == expected[name], (name, m)
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    return result


def check_bare_directory(spec):
    bare = os.path.join(run.WORK, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, next(iter(WORKLOADS)), 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    check_tracer()
    check_probe()
    units = {group: {m["name"]: m["unit"] for m in spec[group]}
             for group in ("end_to_end", "per_layer")}
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = check_result(proc.stdout, units[group])
            if trace:
                assert result["metrics"]["trace.absent_names"]["value"] == 0
            print(f"ok {workload} trace={trace} attempted={result['attempted']}")
    check_bare_directory(spec)
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
