"""Span tracer for the benchmark's traced runs.

Wraps a fixed list of public dnahm functions from outside the package: each
wrapper is bound in every ``dnahm`` module namespace that holds the original
object, so calls made through a module attribute (``linalg.positive_sqrt``),
through a name imported into another module (``cmatrix`` in ``model``) or
from inside the defining module all record a span. A listed function that
does not exist is reported as absent rather than installed.

Spans (name, start, end, parent span, op id) are appended to flat arrays in
memory and written out once, after the run. Self time of a span is its
duration minus the durations of its direct children; calls are synchronous
and single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import logging
import os
import sys
import time
from array import array

import numpy as np

# layer -> functions whose calls are timed, in the order reports list them
LAYERS = {
    "cli": ["cmd_evolve", "cmd_verify", "cmd_spectral", "cmd_continuum"],
    "evolution": ["evolve", "step_forward", "step_backward"],
    "linalg": ["positive_sqrt", "matrix_rank", "poly_roots", "cmatrix"],
    "io": ["save_json", "load_json", "chain_to_document", "document_to_chain", "write_csv"],
    "model": ["from_braam_austin", "to_braam_austin", "dn_residuals", "ba_residuals",
              "reality_residual"],
    "lax": ["commutator_residual", "m_factorization_residual", "ward_plus", "ward_minus",
            "basis_sections"],
    "spectral": ["char_surface", "curve_samples", "smoothness_report",
                 "antidiagonal_clearance"],
    "continuum": ["residual_scaling", "integrate_nahm", "embed", "embedded_residuals"],
    "fixtures": ["random_reality_seed", "random_skew_triple", "boundary_rank_check"],
}

# counter -> the listed function whose hook feeds it (degenerate slices come
# from the dnahm.spectral logger); a counter whose function is absent reads absent
COUNTERS = {
    "evolution.steps": "evolution.evolve",
    "evolution.breakdowns": "evolution.evolve",
    "io.bytes_written": "io.save_json",
    "io.bytes_read": "io.load_json",
    "lax.basis_bytes": "lax.basis_sections",
    "spectral.det_evals": "spectral.char_surface",
    "spectral.degenerate_slices": "spectral.curve_samples",
    "continuum.rk4_steps": "continuum.integrate_nahm",
}

ROOT = "op"  # the span around one cli.main call


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _evolve_counts(counts, args, kwargs, result):
    # evolve returns (chain, breakdown index or None); every produced link
    # after the seed link is one advanced step, and a breakdown is one more
    # attempted step that did not advance
    chain, breakdown_at = result
    broke = breakdown_at is not None
    counts["evolution.steps"] += len(chain.gammas) - 1 + broke
    counts["evolution.breakdowns"] += broke


def _written(counts, args, kwargs, result):
    counts["io.bytes_written"] += _file_size(_arg(args, kwargs, 0, "path"))


def _read(counts, args, kwargs, result):
    counts["io.bytes_read"] += _file_size(_arg(args, kwargs, 0, "path"))


def _basis(counts, args, kwargs, result):
    counts["lax.basis_bytes"] += result.values.nbytes


def _dets(counts, args, kwargs, result):
    # the surface is read off a (k+1) x (k+1) grid of determinant values
    k = _arg(args, kwargs, 0, "A").shape[0]
    counts["spectral.det_evals"] += (k + 1) ** 2


def _rk4(counts, args, kwargs, result):
    counts["continuum.rk4_steps"] += _arg(args, kwargs, 3, "n_steps")


HOOKS = {
    "evolution.evolve": _evolve_counts,
    "io.save_json": _written,
    "io.write_csv": _written,
    "io.load_json": _read,
    "lax.basis_sections": _basis,
    "spectral.char_surface": _dets,
    "continuum.integrate_nahm": _rk4,
}


class _SliceCounter(logging.Handler):
    """Counts the slices dnahm.spectral reports as skipped."""

    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "degenerate" in str(record.msg):
            n = record.args[0] if record.args else 1
            self.counts["spectral.degenerate_slices"] += int(n)


class Tracer:
    """Installs and removes the wrappers and owns the recorded spans."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.names = [ROOT]  # span name ids; 0 is the op root
        self.absent = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._targets = []  # (qualified name, original, wrapper)
        self._bound = []  # (module, attribute, original) while installed
        self._stack = [-1]
        self._next_id = 0
        self.op = -1
        self.ids, self.name_ids, self.parents, self.op_ids = (array("q") for _ in range(4))
        self.starts, self.ends = array("d"), array("d")
        self._slices = _SliceCounter(self.counts)
        for layer, functions in layers.items():
            try:
                module = importlib.import_module(f"dnahm.{layer}")
            except ImportError:
                module = None
            for fn in functions:
                qualified = f"{layer}.{fn}"
                original = getattr(module, fn, None)
                if not callable(original):
                    self.absent.append(qualified)
                    continue
                self.names.append(qualified)
                wrapper = self._wrap(original, len(self.names) - 1, HOOKS.get(qualified))
                self._targets.append((qualified, original, wrapper))
        # qualified name -> module namespaces its wrapper was bound in
        self.bindings_seen = {qualified: 0 for qualified, _, _ in self._targets}

    def _wrap(self, original, name_id, hook):
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._record(span, name_id, parent, start, end)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        return wrapper

    def _record(self, span, name_id, parent, start, end):
        self.ids.append(span)
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.op_ids.append(self.op)
        self.starts.append(start)
        self.ends.append(end)

    def install(self):
        """Bind every wrapper wherever a dnahm namespace holds its original."""
        targets = {id(original): (qualified, original, wrapper)
                   for qualified, original, wrapper in self._targets}
        seen = dict.fromkeys(self.bindings_seen, 0)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "dnahm" or name.startswith("dnahm.")):
                continue
            for attr, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is not None and value is target[1]:
                    setattr(module, attr, target[2])
                    self._bound.append((module, attr, value))
                    seen[target[0]] += 1
        self.bindings_seen = seen
        logging.getLogger("dnahm.spectral").addHandler(self._slices)

    def uninstall(self):
        for module, attr, original in self._bound:
            setattr(module, attr, original)
        self._bound.clear()
        logging.getLogger("dnahm.spectral").removeHandler(self._slices)

    def run_op(self, op_id, call):
        """Run call() as op op_id under a root span; returns (result, seconds)."""
        self.op = op_id
        span = self._next_id
        self._next_id += 1
        self._stack.append(span)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(span, 0, -1, start, end)
        return result, end - start

    def self_times(self):
        """(name ids, self seconds) per recorded span, in record order."""
        ids = np.frombuffer(self.ids, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        position = np.empty(self._next_id, dtype=np.int64)
        position[ids] = np.arange(ids.size)
        child = parents >= 0
        covered = np.zeros(ids.size)
        np.add.at(covered, position[parents[child]], duration[child])
        return np.frombuffer(self.name_ids, dtype=np.int64), duration - covered

    def summary(self, n_ops: int, op_seconds: float) -> dict:
        """Per-function, per-layer and counter figures per traced op."""
        name_ids, self_s = self.self_times()
        calls = np.bincount(name_ids, minlength=len(self.names))
        self_total = np.bincount(name_ids, weights=self_s, minlength=len(self.names))
        functions = {}
        layer_self = dict.fromkeys(self.layers, 0.0)
        for i, qualified in enumerate(self.names[1:], start=1):
            functions[qualified] = {"calls": calls[i] / n_ops, "self_s": self_total[i] / n_ops}
            layer_self[qualified.split(".")[0]] += self_total[i]
        for qualified in self.absent:
            functions[qualified] = "absent"
        layers = {
            layer: {"self_s": total / n_ops, "share": total / op_seconds}
            for layer, total in layer_self.items()
        }
        layers["other"] = {"self_s": self_total[0] / n_ops, "share": self_total[0] / op_seconds}
        counters = {name: "absent" if COUNTERS[name] in self.absent else value / n_ops
                    for name, value in self.counts.items()}
        return {"functions": functions, "layers": layers, "counters": counters}

    def write_spans(self, path):
        """Write the spans as columns: name table, then one list per field."""
        origin = min(self.starts, default=0.0)
        doc = {
            "names": self.names,
            "absent": self.absent,
            "time_unit": "us since the first recorded span",
            "span": list(self.ids),
            "name": list(self.name_ids),
            "parent": list(self.parents),
            "op": list(self.op_ids),
            "start": [round((t - origin) * 1e6, 1) for t in self.starts],
            "end": [round((t - origin) * 1e6, 1) for t in self.ends],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
