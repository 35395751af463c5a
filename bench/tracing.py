"""Spans around tropitheta's public functions, installed from outside.

install() wraps every public function of each layer module, except the
leaf helpers in SKIP that run millions of times per job, and rebinds the
wrapper in every tropitheta namespace and dict that holds the original:
from-imports such as embedding.lattice_argmin, the package re-exports and
cli.HANDLERS.  Nothing under src/ changes.

A span is (job, parent span, name, start ns, end ns, observed count).  Spans
stay in memory; summary() derives the per-layer metrics from them and
write_spans() dumps them when the run ends.
"""

import inspect
import os
import time

LAYERS = ("exactlinalg", "torus", "theta", "embedding", "voronoi", "nalift",
          "jsonio", "svg", "cli")

# leaf helpers called per vector operation or per enumeration level; a span
# on each would cost more than the work it measures
SKIP = {
    "exactlinalg": {"to_vector", "dot", "vec_add", "vec_sub", "vec_scale",
                    "is_integer_vector", "gram_norm", "integer_vector",
                    "content"},
    "theta": {"round_half_up", "floor_plus_sqrt", "ceil_minus_sqrt"},
    "torus": {"gamma_eval"},
    "nalift": {"vs_val", "vs_leading", "vs_add", "vs_mul", "vs_inv",
               "vs_pow", "vs_root", "monomial", "to_scalar"},
    "jsonio": {"rational_to_str", "rational_from_str", "vector_to_json",
               "vector_from_json"},
}

# what a span records besides its time: a count read off the result
OBSERVE = {
    "theta.lattice_argmin": lambda res: int(res.tie),
    "embedding.linearity_cells": lambda pam: len(pam.cells),
    "voronoi.good_decomposition": lambda dec: len(dec.pieces),
    "nalift.fourier_lift": lambda fd: len(fd.coeffs),
    "jsonio.dump": os.path.getsize,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.job = 0

    def _wrap(self, name, fn):
        key = len(self.names)
        self.names.append(name)
        observe = OBSERVE.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.job, parent, key, start, end, 0)
            if observe is not None:
                spans[sid] = spans[sid][:5] + (observe(result),)
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, modules):
        """Wrap the public functions of every layer module and rebind the
        wrappers wherever tropitheta binds the originals; modules maps the
        names of one import of tropitheta and its submodules to the
        modules."""
        swap = {}
        for layer in LAYERS:
            module = modules["tropitheta." + layer]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not name.startswith("_")
                        and name not in SKIP.get(layer, ())):
                    swap[id(obj)] = self._wrap(layer + "." + name, obj)
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in swap:
                    setattr(module, name, swap[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in swap:
                            obj[k] = swap[id(v)]

    def summary(self, jobs):
        """Per-layer metrics over all spans recorded so far."""
        n = len(self.spans)
        child = [0] * n
        for job, parent, key, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own, seen = {}, {}, {}, {}
        for sid, span in enumerate(self.spans):
            job, parent, key, start, end, count = span
            name = self.names[key]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + end - start
            own[name] = own.get(name, 0) + end - start - child[sid]
            seen[name] = seen.get(name, 0) + count

        def layer_self(layer):
            return sum(v for k, v in own.items()
                       if k.startswith(layer + ".")) / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        argmins = calls.get("theta.lattice_argmin", 0)
        m = {}
        for layer in LAYERS:
            if layer != "cli":
                m[layer + ".self_s"] = (layer_self(layer), "s")
        m["cli.self_ms_per_job"] = (ratio(layer_self("cli") * 1e3, jobs), "ms")
        for name in ("theta.lattice_argmin", "theta.theta_eval",
                     "theta.q_ell_constant", "exactlinalg.ldlt",
                     "exactlinalg.solve", "exactlinalg.snf",
                     "embedding.phi_eval", "voronoi.cell_certificate",
                     "voronoi.relevant_vectors", "nalift.c_extend",
                     "nalift.t_pair", "nalift.tropicalize_fourier",
                     "torus.polarization_type"):
            m[name + ".calls"] = (calls.get(name, 0), "count")
        m["theta.lattice_argmin.us_per_call"] = (
            ratio(total.get("theta.lattice_argmin", 0) / 1e3, argmins), "us")
        m["theta.lattice_argmin.tie_share"] = (
            ratio(seen.get("theta.lattice_argmin", 0), argmins), "ratio")
        m["exactlinalg.ldlt.calls_per_argmin"] = (
            ratio(calls.get("exactlinalg.ldlt", 0), argmins), "ratio")
        m["embedding.linearity_cells.calls_per_job"] = (
            ratio(calls.get("embedding.linearity_cells", 0), jobs), "ratio")
        m["embedding.cells"] = (seen.get("embedding.linearity_cells", 0),
                                "count")
        m["embedding.check_injective.self_s"] = (
            own.get("embedding.check_injective", 0) / 1e9, "s")
        m["voronoi.good_decomposition.self_s"] = (
            own.get("voronoi.good_decomposition", 0) / 1e9, "s")
        m["voronoi.pieces"] = (seen.get("voronoi.good_decomposition", 0),
                               "count")
        m["nalift.coeffs"] = (seen.get("nalift.fourier_lift", 0), "count")
        m["jsonio.bytes_written"] = (seen.get("jsonio.dump", 0), "B")
        return m

    def write_spans(self, path):
        with open(path, "w") as handle:
            handle.write("job\tspan\tparent\tname\tstart_ns\tend_ns\tcount\n")
            for sid, (job, parent, key, start, end, count) in enumerate(
                    self.spans):
                handle.write("%d\t%d\t%d\t%s\t%d\t%d\t%d\n" % (
                    job, sid, parent, self.names[key], start, end, count))
