"""A standing property of the exit-code contract on mutated input files.

Seeded, with a fixed number of cases, so tier-1 time stays predictable.
Each case mutates one valid input file (a gyro log, an ``--s-file``, a
``--q0`` file or a tableau file) by inserting, deleting or replacing text,
and runs the subcommand that reads it through ``cli.main``.  Every run must
exit 0, 2 or 3, without a traceback or a ``RuntimeWarning``, and leave no
output file after exit 2 or 3.  An error raised on a line's own text
(non-numeric, non-finite, width, header, time order) must carry that line;
checks of the whole object (squareness, skewness, orthogonality, the
consistency of c) may carry none.
"""

import itertools
import os
import random
import warnings
from pathlib import Path

import numpy as np

from skewflow import BUILTIN_NAMES, GyroLogError, InputError, TableauError, TableauParseError
from skewflow.cli import _load_matrix_file, main
from skewflow.gyro import parse_gyro_csv
from skewflow.tableaus import parse_tableau

CASES = 700
SEED = 20

GYRO_LOG = "t,wx,wy,wz\n0,0.1,-0.2,1\n0.05,0.3,0,-2\n0.1,-1,0.5,0.25\n0.15,0,0,1\n"
S_FILE = "0 -3 2\n3 0 -1\n-2 1 0\n"
Q0_FILE = "0 -1 0\n1 0 0\n0 0 1\n"
TABLEAU = "# gauss2\n2\n0.25 -0.038675134594812866\n0.5386751345948129 0.25\n0.5 0.5\n"

PROPAGATE = ["propagate", "--h", "0.1", "--t-end", "0.35", "--out", "out.csv"]
# the valid text, the command that reads it (the file's path goes last),
# and the reader whose errors name the line.  The benchmark reads no file:
# it is asked to write its directory where the file stands, and exits 2
KINDS = {
    "benchmark": (GYRO_LOG, ["benchmark", "--out"], None),
    "gyro": (GYRO_LOG, ["gyro", "--method", "cayley-midpoint", "--h", "0.02",
                        "--out", "out.csv", "--reference", "--input"], parse_gyro_csv),
    "s-file": (S_FILE, PROPAGATE + ["--method", "gauss2", "--s-file"], _load_matrix_file),
    "q0": (Q0_FILE, PROPAGATE + ["--method", "rk2-closed", "--omega", "0,0,1", "--q0"],
           _load_matrix_file),
    "q0-any": (Q0_FILE, PROPAGATE + ["--method", "cayley-midpoint", "--omega", "0,0,1",
                                     "--allow-nonorthogonal", "--q0"], _load_matrix_file),
    "tableau-check": (TABLEAU, ["check-tableau", "--file"], parse_tableau),
    "tableau-propagate": (TABLEAU, PROPAGATE + ["--omega", "0,-0.1,-2", "--method"],
                          parse_tableau),
}
# the matrix reader's checks of the whole matrix
WHOLE_MATRIX = ("no matrix data found", "expected a square whitespace-separated matrix")
TOKENS = ["0", "1", "7", "-", "+", ".", "e", "E", ",", " ", "\t", "\n", "\r", "#",
          "nan", "inf", "-inf", "1e308", "1e999", "-1e308", "1e-320", "\x00", "\x1f",
          "\x0c", "\x85", "é", "٣"]


def mutate(rng, text):
    """``text`` after one to three random insertions, deletions or replacements."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.choice(["insert", "delete", "replace"])
        cut = i if op == "insert" else min(len(text), i + rng.randint(1, 3))
        text = text[:i] + ("" if op == "delete" else rng.choice(TOKENS)) + text[cut:]
    return text


def check_line(reader, path, kind):
    """The reader's error on the mutated file names its line, unless it is
    a check of the whole object."""
    try:
        reader(path) if reader is _load_matrix_file else reader(Path(path).read_text())
    except (TableauParseError, GyroLogError) as exc:
        assert exc.line is not None, (kind, str(exc))
    except TableauError:
        pass  # validation of the whole tableau
    except InputError as exc:
        assert exc.line is not None or str(exc).endswith(WHOLE_MATRIX), (kind, str(exc))


def cases():
    rng = random.Random(SEED)
    kinds = sorted(KINDS)
    for i in range(CASES):
        kind = kinds[i % len(kinds)]
        yield i, kind, mutate(rng, KINDS[kind][0])


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, monkeypatch, capsys):
    exits = {0: 0, 2: 0, 3: 0}
    for i, kind, text in cases():
        _, argv, reader = KINDS[kind]
        work = tmp_path / str(i)
        work.mkdir()
        path = str(work / "input.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        monkeypatch.chdir(work)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv + [path])
        err = capsys.readouterr().err
        where = f"case {i} ({kind}): {text!r}"
        assert rc in exits, where
        exits[rc] += 1
        assert "Traceback" not in err, where
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], where
        if rc != 0:
            assert os.listdir(work) == ["input.txt"], where
        if rc == 2 and reader is not None:
            check_line(reader, path, where)
    # the mutations reach past the readers: every exit code occurs
    assert min(exits.values()) > 0, exits


# the maps of an exactly skew S: a seeded 4x4 under every built-in method
# and hostile steps, spans and strides, a 6x6 scaled to the ends of the
# float range, then a 3x3 and a 2x2 through both grids
STEPS = ["0.1", "1e-300", "5e-324", "1e200", "1e308", "-0.1"]
SPANS = ["1", "1e18", "1e308", "5e-324"]
STRIDES = ["1", "7", str(2**62)]
SCALES = [1e300, 1e307, 1e-300]


def step_grid(s):
    for h, t_end, stride, method in itertools.product(STEPS, SPANS, STRIDES, BUILTIN_NAMES):
        yield s, [method, "--h", h, "--t-end", t_end, "--record-every", stride]


def scale_grid(s):
    for scale, h, method in itertools.product(SCALES, ["0.1", "1e-3", "1e200"], BUILTIN_NAMES):
        yield scale * s, [method, "--h", h, "--t-end", "1"]


def spectral_runs():
    # the 4x4 and 6x6 are drawn first, so their cases stay as they were
    rng = np.random.default_rng(SEED)
    skews = [a - a.T for a in (rng.standard_normal((d, d)) for d in (4, 6, 3, 2))]
    yield from step_grid(skews[0])
    yield from scale_grid(skews[1])
    for s in skews[2:]:
        yield from step_grid(s)
        yield from scale_grid(s)


def test_spectral_maps_keep_the_exit_code_contract(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exits = {0: 0, 2: 0, 3: 0}
    for s, args in spectral_runs():
        np.savetxt("s.txt", s, fmt="%.17g")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["propagate", "--s-file", "s.txt", "--out", "out.csv", "--method"] + args)
        err = capsys.readouterr().err
        where = f"{s.shape} x {s.max():g}: {args}"
        assert rc in exits, where
        exits[rc] += 1
        assert "Traceback" not in err, where
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], where
        if rc != 0:
            assert os.listdir() == ["s.txt"], where
        for name in os.listdir():
            os.remove(name)
    assert min(exits.values()) > 0, exits


def one_step_runs():
    # a seeded 3x3 and 4x4, exactly skew and an ulp off it (the general
    # path), under every built-in method, each with a step longer than the
    # run, so that its only step is its shortened last one
    rng = np.random.default_rng(SEED)
    for d in (3, 4):
        a = rng.standard_normal((d, d))
        s = a - a.T
        leaky = s.copy()
        leaky[0, 1] = np.nextafter(leaky[0, 1], np.inf)
        for m, h, method in itertools.product((s, leaky), ["2", "1e200", "1e308"], BUILTIN_NAMES):
            yield m, [method, "--t-end", "1", "--h", h]


def test_a_run_of_one_step_exits_as_that_step_does(tmp_path, monkeypatch, capsys):
    # the run takes no step of length h, so h cannot decide its exit code:
    # it is that of the same run with h equal to the run's length
    monkeypatch.chdir(tmp_path)
    for s, args in one_step_runs():
        np.savetxt("s.txt", s, fmt="%.17g")
        argv = ["propagate", "--s-file", "s.txt", "--out", "out.csv", "--method"] + args
        rcs = [main(argv), main(argv[:-1] + ["1"])]
        err = capsys.readouterr().err
        assert rcs[0] == rcs[1], f"{s.shape} {'skew' if (s == -s.T).all() else 'leaky'}: {args}"
        assert "Traceback" not in err
