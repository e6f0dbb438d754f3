"""Span tracer for the gravodyn modules, installed from outside the package.

``Tracer.install`` replaces every public function of every gravodyn module
(plus the CSV formatter and the file writer of ``cli``) with a wrapper that
records one span per call: name, start, end, parent span and whether the
call raised. Every module-level binding of the function is replaced, so calls
through ``from .x import f`` names are traced too. ``uninstall`` puts the
originals back. Spans live in flat arrays so a pass with a million ladder
calls stays cheap to record; ``layer_metrics`` turns them into per-layer self
times and counts.

The span stack is shared by all threads: this is correct because the
benchmark runs sweeps with one worker thread, which runs while the calling
thread waits.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

# Private cli helpers that get a span of their own: they are the format and
# write stages of the runner.
EXTRA_SPANS = {("cli", "_csv"): "cli.format", ("cli", "_write_outputs"): "cli.write"}

# name -> unit of every metric ``layer_metrics`` reports.
LAYER_METRICS = {
    "config.load_s": "s",
    "config.errors": "count",
    "models.build_s": "s",
    "models.matrix_bytes": "B",
    "models.repeated_share": "fraction",
    "models.errors": "count",
    "fock.enumerate_s": "s",
    "fock.ladder_s": "s",
    "fock.configs": "count",
    "fock.ladder_calls": "count",
    "fock.errors": "count",
    "propagator.diagonalize_s": "s",
    "propagator.diagonalize_calls": "count",
    "propagator.diagonalize_dim3": "count",
    "propagator.evolve_s": "s",
    "propagator.evolve_amplitudes": "count",
    "propagator.evolve_bytes": "B",
    "propagator.errors": "count",
    "meanfield.step_s": "s",
    "meanfield.steps": "count",
    "meanfield.point_steps": "count",
    "meanfield.sample_s": "s",
    "meanfield.errors": "count",
    "gravonon.modes_s": "s",
    "gravonon.errors": "count",
    "dimensional.table_s": "s",
    "dimensional.errors": "count",
    "analytic.eval_s": "s",
    "analytic.errors": "count",
    "cli.format_s": "s",
    "cli.write_s": "s",
    "cli.self_s": "s",
    "cli.errors": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _count_matrix(tracer, result):
    # build_telegraph returns build_generic_ci's matrix: count it once, at
    # the outermost models span.
    if tracer.parent_name().startswith("models."):
        return
    tracer.counts["models.matrix_bytes"] += 16 * result.dim * result.dim
    tracer.matrices.append(result.entries)


def _count_configs(tracer, result):
    tracer.counts["fock.configs"] += len(result)


def _count_diagonalize(tracer, result):
    tracer.counts["propagator.diagonalize_dim3"] += result.dim ** 3


def _count_evolve(tracer, result):
    tracer.counts["propagator.evolve_amplitudes"] += result.size
    tracer.counts["propagator.evolve_bytes"] += result.nbytes


def _count_step(tracer, result):
    tracer.counts["meanfield.point_steps"] += result.n_points


OBSERVERS = {
    "models.build_chooser": _count_matrix,
    "models.build_telegraph": _count_matrix,
    "models.build_generic_ci": _count_matrix,
    "fock.enumerate_configs": _count_configs,
    "propagator.diagonalize": _count_diagonalize,
    "propagator.evolve": _count_evolve,
    "meanfield.step": _count_step,
}


class Tracer:
    """Records spans around the gravodyn functions while installed."""

    def __init__(self, package):
        prefix = package.__name__ + "."
        self.modules = [
            importlib.import_module(prefix + info.name)
            for info in pkgutil.iter_modules(package.__path__)
        ]
        targets = {}  # id(function) -> (span name, function)
        for module in self.modules:
            short = module.__name__[len(prefix):]
            for attr, value in vars(module).items():
                if not (inspect.isfunction(value) and value.__module__ == module.__name__):
                    continue
                extra = EXTRA_SPANS.get((short, attr))
                if extra is None and attr.startswith("_"):
                    continue
                targets[id(value)] = (extra or f"{short}.{attr}", value)
        self.names = sorted(name for name, _ in targets.values())
        self._name_id = {name: i for i, name in enumerate(self.names)}
        # every module-level binding of a target, imported names included
        self._bindings = [
            (module, attr, value)
            for module in self.modules
            for attr, value in vars(module).items()
            if id(value) in targets
        ]
        self._targets = targets
        self._span_name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._failed = array("b")
        self._stack = [-1]
        self.counts = Counter()
        self.matrices = []

    # -- recording -------------------------------------------------------

    def reset(self):
        for buf in (self._span_name, self._parent, self._start, self._end, self._failed):
            del buf[:]
        self._stack[:] = [-1]
        self.counts.clear()
        self.matrices.clear()

    def parent_name(self):
        top = self._stack[-1]
        return "" if top < 0 else self.names[self._span_name[top]]

    def _wrap(self, name, function):
        name_id = self._name_id[name]
        observe = OBSERVERS.get(name)
        span_name, parent, start, end, failed = (
            self._span_name, self._parent, self._start, self._end, self._failed
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            failed.append(0)
            stack.append(index)
            t0 = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                failed[index] = 1
                raise
            finally:
                end[index] = clock()
                start[index] = t0
                stack.pop()
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    def install(self):
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self._targets.items()}
        for module, attr, value in self._bindings:
            setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, value in self._bindings:
            setattr(module, attr, value)

    def restored(self):
        """True when every wrapped binding holds its original function again."""
        return all(vars(module)[attr] is value for module, attr, value in self._bindings)

    # -- results ---------------------------------------------------------

    def spans(self):
        """Recorded spans as arrays; times are relative to the first span."""
        start = np.frombuffer(self._start, dtype=float).copy()
        origin = start.min() if len(start) else 0.0
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self._span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": start - origin,
            "end": np.frombuffer(self._end, dtype=float) - origin,
            "failed": np.frombuffer(self._failed, dtype=np.int8).copy(),
        }

    def layer_metrics(self):
        """Per-layer self times and counts of the spans recorded since reset."""
        spans = self.spans()
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        n_spans, n_names = len(duration), len(self.names)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=n_spans)
        self_time = np.bincount(name, weights=duration - child_time, minlength=n_names)
        inclusive = np.bincount(name, weights=duration, minlength=n_names)
        calls = np.bincount(name, minlength=n_names)
        errors = np.bincount(name, weights=spans["failed"], minlength=n_names)

        def total(values, names):
            return float(sum(values[self._name_id[n]] for n in names if n in self._name_id))

        def module_names(module, exclude=()):
            return [n for n in self.names if n.startswith(module + ".") and n not in exclude]

        m = {}
        for layer in ("config", "models", "fock", "propagator", "meanfield",
                      "gravonon", "dimensional", "analytic", "cli"):
            m[f"{layer}.errors"] = total(errors, module_names(layer))
        m["config.load_s"] = total(self_time, module_names("config"))
        m["models.build_s"] = total(self_time, module_names("models"))
        m["models.matrix_bytes"] = float(self.counts["models.matrix_bytes"])
        digests = [hashlib.blake2b(entries.tobytes()).digest() for entries in self.matrices]
        m["models.repeated_share"] = 1.0 - len(set(digests)) / len(digests) if digests else 0.0
        m["fock.enumerate_s"] = total(self_time, ["fock.enumerate_configs", "fock.index_map"])
        m["fock.ladder_s"] = total(self_time, ["fock.apply_ladder_string", "fock.apply_ladder"])
        m["fock.configs"] = float(self.counts["fock.configs"])
        m["fock.ladder_calls"] = total(calls, ["fock.apply_ladder_string"])
        m["propagator.diagonalize_s"] = total(self_time, ["propagator.diagonalize"])
        m["propagator.diagonalize_calls"] = total(calls, ["propagator.diagonalize"])
        m["propagator.diagonalize_dim3"] = float(self.counts["propagator.diagonalize_dim3"])
        m["propagator.evolve_s"] = total(self_time, ["propagator.evolve"])
        m["propagator.evolve_amplitudes"] = float(self.counts["propagator.evolve_amplitudes"])
        m["propagator.evolve_bytes"] = float(self.counts["propagator.evolve_bytes"])
        # step only calls meanfield functions, so its inclusive time is the
        # stepping cost of the layer
        m["meanfield.step_s"] = total(inclusive, ["meanfield.step"])
        m["meanfield.steps"] = total(calls, ["meanfield.step"])
        m["meanfield.point_steps"] = float(self.counts["meanfield.point_steps"])
        m["meanfield.sample_s"] = total(inclusive, ["meanfield.packet_moments"])
        m["gravonon.modes_s"] = total(self_time, module_names("gravonon"))
        m["dimensional.table_s"] = total(self_time, module_names("dimensional"))
        m["analytic.eval_s"] = total(self_time, module_names("analytic"))
        m["cli.format_s"] = total(self_time, ["cli.format"])
        m["cli.write_s"] = total(self_time, ["cli.write"])
        m["cli.self_s"] = total(self_time, module_names("cli", exclude=("cli.format", "cli.write")))
        m["trace.spans"] = float(n_spans)
        return m
