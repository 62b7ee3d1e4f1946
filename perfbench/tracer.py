"""Outside-in tracing of one `hscm` command: spans and counters, no edits to `src/`.

`Tracer.install()` rebinds a fixed list of public `hscm` functions to span
wrappers, and `scipy.integrate.quad` and `hscm.rng.uniform` to counting
wrappers, in every module that holds a reference to them, so the unmodified
`hscm.cli.main` records a span per call.  `restore()` puts the originals
back.  Spans stay in memory until the child writes them out with its result.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

# (module, attribute, span name); "Class.method" patches the class attribute.
SPANS = [
    ("hscm.sampler", "sample_coordinates", "sampler.coords"),
    ("hscm.sampler", "sample_graph_fast", "sampler.fast"),
    ("hscm.io", "write_edge_list", "io.write"),
    ("hscm.stats", "ingest_edge_list", "stats.ingest"),
    ("hscm.stats", "degree_histogram", "stats.histogram"),
    ("hscm.stats", "tail_exponent_fit", "stats.tail_fit"),
    ("hscm.stats", "finite_n_degree_pmf", "stats.finite_n_pmf"),
    ("hscm.stats", "compare_to_theory", "stats.compare"),
    ("hscm.theory", "DegreeLaw.pmf_array", "theory.pmf_array"),
    ("hscm.theory", "expected_avg_degree_finite_n", "theory.avg_degree_finite_n"),
    ("hscm.theory", "finite_size_degree_tail", "theory.tail_curve"),
    ("hscm.entropy", "graphon_entropy", "entropy.graphon_entropy"),
    ("hscm.entropy", "averaged_graphon", "entropy.averaged_graphon"),
    ("hscm.entropy", "gibbs_entropy_bounds", "entropy.gibbs_bounds"),
    ("hscm.scm", "solve_scm", "scm.solve"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self._open = []  # indices into self.spans
        self._undo = []  # (owner, attribute, original)

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`, nested under the open span."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self._open)

    def _rebind(self, original, replacement):
        """Point every `hscm` module attribute bound to `original` at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hscm" or mod_name.startswith("hscm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        import scipy.integrate

        import hscm.cli  # noqa: F401  (binds every module the commands use)
        import hscm.rng

        for mod_name, attr, span in SPANS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self._span_wrapper(span, original)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                self._rebind(original, wrapper)

        quad = scipy.integrate.quad

        def counted_quad(*args, **kwargs):
            self.count("quadrature.quad_calls")
            return quad(*args, **kwargs)

        self._undo.append((scipy.integrate, "quad", quad))
        scipy.integrate.quad = counted_quad
        self._rebind(quad, counted_quad)

        uniform = hscm.rng.uniform

        def counted_uniform(*parts):
            out = uniform(*parts)
            if self.inside("sampler.fast"):
                self.count("rng.uniform_calls")
                self.count("rng.draws", int(np.size(out)))
            return out

        self._undo.append((hscm.rng, "uniform", uniform))
        hscm.rng.uniform = counted_uniform
        self._rebind(uniform, counted_uniform)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _span_wrapper(self, span, fn):
        after = _AFTER.get(span)

        def traced(*args, **kwargs):
            out = self.call(span, fn, *args, **kwargs)
            if after is not None:
                after(self, args, out)
            return out

        traced.__wrapped__ = fn
        return traced


# Counts taken after a span has closed, so they cost no span time.
def _after_fast(tracer, args, graph):
    tracer.count("sampler.edges", graph.num_edges)
    if graph.num_edges:
        peak = int(graph.degrees().max())
        tracer.counters["sampler.max_degree"] = max(
            tracer.counters.get("sampler.max_degree", 0), peak)


def _after_write(tracer, args, out):
    tracer.count("io.write_bytes", os.path.getsize(args[0]))


def _after_ingest(tracer, args, out):
    tracer.count("stats.ingest_bytes", os.path.getsize(args[0]))


def _after_solve(tracer, args, inst):
    tracer.count("scm.distinct_degrees", int(np.unique(np.asarray(args[0])).size))
    tracer.counters["scm.residual"] = max(tracer.counters.get("scm.residual", 0.0),
                                          float(inst.residual))


_AFTER = {
    "sampler.fast": _after_fast,
    "io.write": _after_write,
    "stats.ingest": _after_ingest,
    "scm.solve": _after_solve,
}
