"""Per-layer call counts and self times, measured from outside the program.

The tracer replaces module-global names that skewflow's modules call
through their own namespace (``skewflow.integrators.solve_linear`` and so
on) with timing wrappers, and puts the originals back afterwards.  A
layer's self time is the time spent inside its wrapped calls minus the
time of wrapped calls nested in them.  Only aggregates are kept: a longrun
makes about 1.6e5 wrapped calls per run.
"""

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> the (module, name) pairs whose calls are attributed to it
LAYERS = {
    "linalg.solve_linear": [("skewflow.integrators", "solve_linear")],
    "linalg.det": [("skewflow.integrators", "det"), ("skewflow.gyro", "det")],
    "linalg.hat": [("skewflow.gyro", "hat")],
    "linalg.expm": [("skewflow.gyro", "expm")],
    "diagnostics.meters": [
        ("skewflow.integrators", "energy"),
        ("skewflow.integrators", "orthogonality_defect"),
        ("skewflow.gyro", "energy"),
        ("skewflow.gyro", "orthogonality_defect"),
    ],
    "integrators": [("skewflow.cli", "propagate")],
    "gyro.parse": [("skewflow.cli", "parse_gyro_csv")],
    "gyro.propagate": [("skewflow.cli", "propagate_gyro")],
    "gyro.reference": [("skewflow.cli", "reference_gyro")],
    "tableaus.builtin": [("skewflow.cli", "builtin")],
}
ROOT = "cli"


class Tracer:
    """Aggregated spans: calls and self time per layer, plus returned values.

    ``returns[layer]`` keeps the values returned by that layer's calls when
    the layer is listed in ``keep_returns``, so the caller can measure them
    (records retained, samples parsed) after the run.
    """

    def __init__(self, keep_returns=()):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.returns = defaultdict(list)
        self.absent = []
        self._keep = frozenset(keep_returns)
        self._stack = []

    def wrap(self, layer, fn):
        clock = time.perf_counter
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        keep = self.returns[layer] if layer in self._keep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += dt
            if keep is not None:
                keep.append(result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every present name in ``LAYERS``; restore them on exit.

        A name that no longer exists is recorded in ``absent`` and skipped.
        """
        patched = []
        try:
            for layer, names in LAYERS.items():
                for module_name, attr in names:
                    try:
                        module = importlib.import_module(module_name)
                        original = getattr(module, attr)
                    except (ImportError, AttributeError):
                        self.absent.append(f"{module_name}.{attr}")
                        continue
                    setattr(module, attr, self.wrap(layer, original))
                    patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def root(self, fn, *args):
        """Call ``fn`` as the root span; its self time goes to ``ROOT``."""
        return self.wrap(ROOT, fn)(*args)

    def layer_absent(self, layer):
        """True when none of the layer's names could be wrapped."""
        return all(f"{m}.{a}" in self.absent for m, a in LAYERS[layer])
