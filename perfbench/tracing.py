"""In-memory spans around the calls gradplay's modules make into each other.

The traced run replaces, for its duration, the names that callers inside
gradplay look up at call time (``harness.run``, ``network.second_largest_
singular_value``, ``bounds.alpha_max`` ...) with wrappers that record one
span per call: name, layer, start, end and parent.  Nothing is wrapped
outside :meth:`Tracer.installed`, so the untraced run executes gradplay's
own function objects.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of all spans of a job add up to the
job's wall time.
"""

from __future__ import annotations

import builtins
import gzip
import io
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from gradplay import bounds, dynamics, harness, network

#: Trace rows an analysis helper walks: its first argument is the trace.
_TRACE_ARG_HELPERS = (
    "lemma_slack_minima",
    "first_lemma_violation",
    "fit_tail_contraction",
    "zdomination_excess",
    "envelope_excess",
)


def _count_run(tracer, args, result):
    # The latest job's inputs, so the kernel probe can replay step() on them.
    game, w, alpha, x0 = args[:4]
    iters = len(result[1]) - 1
    if tracer.run_calls and tracer.run_calls[-1][0] != tracer.current_job:
        tracer.run_calls.clear()
    tracer.run_calls.append((tracer.current_job, game, w, alpha, x0, iters))
    tracer.counts[(tracer.current_job, "dynamics.iters")] += iters


def _count_trace_rows(tracer, args, result):
    tracer.counts[(tracer.current_job, "harness.analysis.rows")] += len(args[0])


#: (module, attribute, layer, counter).  Each attribute is a name the module
#: looks up at call time; the counter, if any, records counts from a call.
TARGETS = (
    (harness, "random_game", "game.random_game", None),
    (harness, "estimate_constants", "game.estimate_constants", None),
    (dynamics, "estimate_constants", "game.estimate_constants", None),
    (dynamics, "solve_nash_equilibrium", "game.solve_nash_equilibrium", None),
    (harness, "game_mapping", "game.gradient", None),
    (harness, "local_gradient", "game.gradient", None),
    (harness, "build_graph", "network.graph", None),
    (harness, "metropolis_weights", "network.metropolis_weights", None),
    (network, "second_largest_singular_value", "network.sigma", None),
    (harness, "average_property_check", "network.average_property_check", None),
    (bounds, "step_size_terms", "bounds", None),
    (bounds, "alpha_max", "bounds", None),
    (bounds, "rate_bound", "bounds", None),
    (bounds, "z_matrix", "bounds", None),
    (bounds, "quadratic_form_alpha_bound", "bounds", None),
    (harness, "run", "dynamics.run", _count_run),
    (harness, "step", "dynamics.step", None),
    *((harness, name, "harness.analysis", _count_trace_rows) for name in _TRACE_ARG_HELPERS),
    (harness, "recursion_residual", "harness.analysis", None),
    (harness, "trace_to_csv", "harness.io", None),
    (harness, "save_mixing_matrix", "harness.io", None),
    # harness writes its other artifacts through builtins.open; a module
    # global named ``open`` shadows the builtin for harness alone.
    (harness, "open", "harness.io", None),
)

JOB_LAYER = "harness.job"
_MISSING = object()


class _SpanFile(io.TextIOWrapper):
    """Text file whose span ends when it is closed, so that serialization
    inside the ``with open(...)`` block counts as I/O."""

    def close(self):
        if not self.closed:
            try:
                super().close()
            finally:
                self._end_span()


class Tracer:
    """Collects spans in memory; one tracer per benchmark run.

    Spans are kept column-wise in typed arrays (an audit job makes tens of
    thousands of them); ``sites`` maps each span's site index to its
    ``(name, layer)``.
    """

    def __init__(self):
        # Site 0 is the job; site k + 1 is TARGETS[k].
        self.sites = [(JOB_LAYER, JOB_LAYER)] + [
            (f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", layer)
            for module, attr, layer, _ in TARGETS
        ]
        self.job = array("q")
        self.site = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts = defaultdict(int)  # (job, counter) -> total
        self.run_calls = []  # (job, game, w, alpha, x0, iters), latest job only
        self.current_job = -1
        self._stack = []

    def begin(self, site):
        index = len(self.start)
        self.job.append(self.current_job)
        self.site.append(site)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index):
        self.end[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")

    @contextmanager
    def job_span(self, job):
        """Root span of one job; every span the job causes descends from it."""
        self.current_job = job
        index = self.begin(0)
        try:
            yield
        finally:
            self.finish(index)
            self.current_job = -1

    def _wrap(self, fn, site, counter):
        def traced(*args, **kwargs):
            index = self.begin(site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def _traced_open(self, site):
        def traced_open(file, mode="r", encoding=None, newline=None):
            if mode != "w":
                return builtins.open(file, mode, encoding=encoding, newline=newline)
            index = self.begin(site)
            try:
                f = _SpanFile(
                    io.BufferedWriter(io.FileIO(file, "w")), encoding=encoding, newline=newline
                )
            except BaseException:
                self.finish(index)
                raise
            f._end_span = lambda: self.finish(index)
            return f

        return traced_open

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore
        each module's namespace exactly (injected names are deleted)."""
        saved = []
        try:
            for site, (module, attr, _, counter) in enumerate(TARGETS, start=1):
                original = module.__dict__.get(attr, _MISSING)
                saved.append((module, attr, original))
                if attr == "open":
                    wrapper = self._traced_open(site)
                else:
                    wrapper = self._wrap(original, site, counter)
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(module, attr)
                else:
                    setattr(module, attr, original)

    def layer_totals(self, job):
        """Per-layer self seconds and entry counts of one job.

        A call enters a layer when its parent span belongs to another
        layer, so nested calls inside one layer (``alpha_max`` calling
        ``step_size_terms``) count once.
        """
        layer_of = [layer for _, layer in self.sites]
        spans = [i for i, j in enumerate(self.job) if j == job]
        child_time = defaultdict(float)
        for i in spans:
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.end[i] - self.start[i]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i in spans:
            layer = layer_of[self.site[i]]
            self_s[layer] += self.end[i] - self.start[i] - child_time[i]
            parent = self.parent[i]
            if parent < 0 or layer_of[self.site[parent]] != layer:
                calls[layer] += 1
        counts = {key: value for (j, key), value in self.counts.items() if j == job}
        return dict(self_s), dict(calls), counts

    def write_spans(self, path, origin):
        """Gzipped CSV, one row per span; times in seconds since ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("job,span,parent,name,layer,start_s,end_s\n")
            for i, site in enumerate(self.site):
                name, layer = self.sites[site]
                f.write(
                    f"{self.job[i]},{i},{self.parent[i]},{name},{layer},"
                    f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f}\n"
                )
