"""Per-layer spans for the traced run, recorded from outside the package.

`install` replaces each public function of the six modules with a wrapper at
its module attribute.  Calls between modules go through those attributes
(`linalg.eigenvalues`, `spectra.quadratic_fock_matrix`, ...), and so do calls
inside a module to its own public functions, so every boundary is seen
without editing the package.  Calls the CLI dispatches through its own table
(`cmd_spectrum` and friends) count as `cli.main`.

Spans are folded into per-name totals as they close rather than kept one by
one: a closed_form task opens tens of thousands of them.  A span's self time
is its duration minus the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from time import perf_counter

import numpy as np

LAYERS = ("cli", "canonical", "spectra", "weyl", "linalg", "wavefun")

# linalg functions whose spans also count the dimension of their matrix argument
MATRIX_FUNCTIONS = {"eigenvalues", "eigenvector"}


class Tracer:
    """Span totals for the current task and for all traced tasks so far."""

    def __init__(self):
        self.stack = []
        self.task = {}
        self.totals = {}
        self.seen = set()
        self.tasks = 0
        self.task_seconds = 0.0
        self.output_bytes = 0

    def wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        stack = self.stack
        is_matrix = layer == "linalg" and name in MATRIX_FUNCTIONS
        is_solve = layer == "linalg" and name == "eigenvalues"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            dim = 0
            unique = 0
            if is_matrix:
                start = perf_counter()
                mat = np.asarray(args[0] if args else kwargs["m"])
                dim = mat.shape[0]
                if is_solve:
                    digest = hashlib.blake2b(np.ascontiguousarray(mat, dtype=complex).tobytes(),
                                             digest_size=16).digest()
                    unique = digest not in self.seen
                    self.seen.add(digest)
                if stack:  # bookkeeping is charged to no layer
                    stack[-1][0] += perf_counter() - start
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = self.task.get(key)
                if entry is None:
                    entry = self.task[key] = [0, 0.0, 0.0, 0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                entry[3] += dim
                entry[4] += dim ** 3
                entry[5] += unique

        return wrapper

    def install(self, modules):
        """Wrap the public functions of each module in `modules` (layer -> module)."""
        for layer, module in modules.items():
            names = getattr(module, "__all__", None) or [
                name for name in vars(module) if not name.startswith("_")
            ]
            for name in names:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    setattr(module, name, self.wrap(layer, name, fn))

    def begin_task(self):
        self.task = {}
        self.seen = set()

    def end_task(self, seconds, output_bytes):
        """Fold the task into the totals; return its deterministic counters."""
        self.tasks += 1
        self.task_seconds += seconds
        self.output_bytes += output_bytes
        for key, entry in self.task.items():
            total = self.totals.setdefault(key, [0, 0.0, 0.0, 0, 0, 0])
            for i, value in enumerate(entry):
                total[i] += value
        counters = {"output_bytes": output_bytes}
        for key, (calls, _, _, dim_sum, cubic, unique) in sorted(self.task.items()):
            counters[f"{key}.calls"] = calls
            if dim_sum:
                counters[f"{key}.dim_sum"] = dim_sum
                counters[f"{key}.cubic_work"] = cubic
            if unique:
                counters[f"{key}.unique"] = unique
        return counters

    def _field(self, key, index):
        entry = self.totals.get(key)
        return entry[index] if entry else 0

    def layer_metrics(self, overhead_share):
        """Per-task values of the per-layer metrics, keyed by metric name."""
        per_task = 1.0 / self.tasks
        ms = 1e3 * per_task
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        for key, entry in self.totals.items():
            layer = key.split(".", 1)[0]
            layer_self[layer] += entry[2]
            layer_calls[layer] += entry[0]
        solves = self._field("linalg.eigenvalues", 0)
        metrics = {f"{layer}.self_ms": layer_self[layer] * ms for layer in LAYERS}
        metrics.update({
            "linalg.share": layer_self["linalg"] / self.task_seconds,
            "linalg.eigenvalues.self_ms": self._field("linalg.eigenvalues", 2) * ms,
            "linalg.eigenvalues.calls": solves * per_task,
            "linalg.eigenvalues.dim_sum": self._field("linalg.eigenvalues", 3) * per_task,
            "linalg.eigenvalues.cubic_work": self._field("linalg.eigenvalues", 4) * per_task,
            # no solves means none wasted; report 0 rather than an undefined ratio
            "linalg.eigenvalues.unique_ratio":
                self._field("linalg.eigenvalues", 5) / solves if solves else 0.0,
            "linalg.balance.ms": self._field("linalg.balance", 1) * ms,
            "linalg.eigenvector.ms": self._field("linalg.eigenvector", 1) * ms,
            "linalg.eigenvector.calls": self._field("linalg.eigenvector", 0) * per_task,
            "linalg.eigenvector.dim_sum": self._field("linalg.eigenvector", 3) * per_task,
            "spectra.eigenvalues_by_parity.self_ms":
                self._field("spectra.eigenvalues_by_parity", 2) * ms,
            "spectra.eta_check.self_ms": self._field("spectra.eta_check", 2) * ms,
            "spectra.verify_isospectral.self_ms":
                self._field("spectra.verify_isospectral", 2) * ms,
            "spectra.quadratic_fock_matrix.ms": self._field("spectra.quadratic_fock_matrix", 1) * ms,
            "spectra.general_quadratic_spectrum.calls":
                self._field("spectra.general_quadratic_spectrum", 0) * per_task,
            "spectra.eigenvector_coefficients.ms":
                self._field("spectra.eigenvector_coefficients", 1) * ms,
            "weyl.to_ladder.ms": self._field("weyl.to_ladder", 1) * ms,
            "weyl.fock_matrix.ms": self._field("weyl.fock_matrix", 1) * ms,
            "canonical.calls": layer_calls["canonical"] * per_task,
            "cli.main.self_ms": self._field("cli.main", 2) * ms,
            "cli.output_bytes": self.output_bytes * per_task,
            "trace.spans": sum(layer_calls.values()) * per_task,
            "trace.overhead_share": overhead_share,
        })
        return metrics
