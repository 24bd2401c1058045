"""Per-layer tracing of kgraphwave from outside the library.

``Tracer.install`` replaces every public function of each library module by
a timing wrapper, rebinding the name in every ``kgraphwave`` module namespace
that holds it, so calls between modules and within one module both pass
through it.  No source file changes; ``restore`` puts the originals back.

Each call becomes a span ``[name, start, end, parent, op_id]`` kept in
memory.  Calls of the leaf functions in ``LEAVES`` are too many to keep one
by one; they are summed per parent span as a count and a time, and calls made
from inside a leaf are not traced separately.  A span's self time is its
duration minus the time of its child spans and leaves, so the self times of
all layers plus ``cli`` (the op span itself) add up to the op wall time.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("kgraph", "perron", "measure", "sbfs", "wavelets", "orthobasis", "traffic", "spectral")
LEAVES = {"compose", "cylinder_measure", "kernel_eval", "vertex_path", "normal_form",
          "as_degree", "deg_add", "deg_sub", "deg_le", "deg_join", "deg_scale"}
OP_SPAN = "cli.op"


def _arg(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _count_enumerate(tracer, args, kwargs, result):
    degree = tuple(_arg(args, kwargs, 1, "degree"))
    tracer.keys["enumerate"].append(
        (tracer.op_id, degree, _arg(args, kwargs, 2, "range"), _arg(args, kwargs, 3, "source")))
    if result is not None:
        tracer.counts["kgraph.paths_enumerated"] += len(result)


def _count_level_space(tracer, args, kwargs, result):
    # keyed by what the measure is, not by which object holds it
    spec = _arg(args, kwargs, 0, "spec")
    g = spec.graph
    weights = None if spec.weights is None else tuple(map(float, spec.weights))
    tracer.keys["level_space"].append((tracer.op_id, g.k, g.vertices, tuple(g.edges), spec.kind, spec.exact,
                                       weights, tuple(_arg(args, kwargs, 1, "level"))))


def _count_refine(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["measure.refine_terms"] += len(result.terms)


def _count_s_matrix(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["sbfs.dense_bytes"] += result.matrix.size * 8


def _count_basis(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["wavelets.basis_dim"] += len(result.labels)
        tracer.counts["wavelets.basis_bytes"] += result.matrix.size * 8


def _count_eig(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["spectral.eig_n"] += result.n


def _count_reconstruct(tracer, args, kwargs, result):
    grid = _arg(args, kwargs, 3, "t_grid")
    if grid is not None:
        tracer.counts["spectral.reconstruct_scales"] += len(grid)


HOOKS = {
    "kgraph.enumerate_paths": _count_enumerate,
    "sbfs.level_space": _count_level_space,
    "measure.refine": _count_refine,
    "sbfs.s_matrix": _count_s_matrix,
    "wavelets.wavelet_basis": _count_basis,
    "spectral.eig_sym": _count_eig,
    "spectral.reconstruct": _count_reconstruct,
}


class Tracer:
    def __init__(self):
        self.passes: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = None
        self.in_leaf = False

    def start_pass(self):
        """Collect the following ops into a new pass record."""
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.keys: dict[str, list] = defaultdict(list)
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.in_leaf = False
        self.passes.append({"spans": self.spans, "leaves": self.leaves,
                            "keys": self.keys, "counts": self.counts})

    # -- wrapping ------------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "kgraphwave" or name.startswith("kgraphwave.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"kgraphwave.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}", attr in LEAVES))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def restore(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _wrap(self, fn, name, leaf):
        tracer = self
        hook = HOOKS.get(name)

        if leaf:
            def wrapper(*args, **kwargs):
                if tracer.op_id is None or tracer.in_leaf:
                    return fn(*args, **kwargs)
                tracer.in_leaf = True
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds = perf_counter() - start
                    tracer.in_leaf = False
                    slot = tracer.leaves.setdefault((tracer.stack[-1], name), [0, 0.0])
                    slot[0] += 1
                    slot[1] += seconds
        else:
            def wrapper(*args, **kwargs):
                if tracer.op_id is None or tracer.in_leaf:
                    return fn(*args, **kwargs)
                index = len(tracer.spans)
                span = [name, 0.0, 0.0, tracer.stack[-1], tracer.op_id]
                tracer.spans.append(span)
                tracer.stack.append(index)
                result = None
                span[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    span[2] = perf_counter()
                    tracer.stack.pop()
                    if hook is not None:
                        hook(tracer, args, kwargs, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self.stack = [len(self.spans)]
        self.spans.append([OP_SPAN, perf_counter(), 0.0, None, op_id])

    def end_op(self, output_bytes: int):
        self.spans[self.stack[0]][2] = perf_counter()
        self.counts["cli.output_bytes"] += output_bytes
        self.op_id = None

    # -- results -----------------------------------------------------------------

    def pass_metrics(self, record: dict) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        spans, leaves, keys, counts = record["spans"], record["leaves"], record["keys"], record["counts"]
        inner = [0.0] * len(spans)
        self_s = Counter({layer: 0.0 for layer in (*LAYERS, "cli")})
        total = Counter()
        calls = Counter()
        for name, start, end, parent, _ in spans:
            if parent is not None:
                inner[parent] += end - start
        for (parent, name), (count, seconds) in leaves.items():
            inner[parent] += seconds
            self_s[name.split(".")[0]] += seconds
            calls[name] += count
        for (name, start, end, _, _), covered in zip(spans, inner):
            self_s[name.split(".")[0]] += (end - start) - covered
            total[name] += end - start
            calls[name] += 1

        def ratio(key):
            seen = keys[key]
            return len(set(seen)) / len(seen) if seen else 0.0

        m = {
            "kgraph.load_s": total["kgraph.load_kgraph"],
            "kgraph.enumerate_calls": calls["kgraph.enumerate_paths"],
            "kgraph.paths_enumerated": counts["kgraph.paths_enumerated"],
            "kgraph.enumerate_distinct_ratio": ratio("enumerate"),
            "kgraph.compose_calls": calls["kgraph.compose"],
            "perron.pf_calls": calls["perron.pf_data"],
            "perron.pf_s": total["perron.pf_data"],
            "measure.cylinder_measure_calls": calls["measure.cylinder_measure"],
            "measure.refine_calls": calls["measure.refine"],
            "measure.refine_terms": counts["measure.refine_terms"],
            "sbfs.level_space_calls": calls["sbfs.level_space"],
            "sbfs.level_space_distinct_ratio": ratio("level_space"),
            "sbfs.s_matrix_calls": calls["sbfs.s_matrix"],
            "sbfs.dense_bytes": counts["sbfs.dense_bytes"],
            "sbfs.s_apply_calls": calls["sbfs.s_apply"],
            "wavelets.basis_s": total["wavelets.wavelet_basis"],
            "wavelets.basis_dim": counts["wavelets.basis_dim"],
            "wavelets.basis_bytes": counts["wavelets.basis_bytes"],
            "wavelets.transform_s": total["wavelets.analyze"] + total["wavelets.synthesize"],
            "wavelets.compare_s": total["wavelets.subspace_compare"],
            "wavelets.markov_s": total["wavelets.markov_wavelets"],
            "orthobasis.calls": sum(c for name, c in calls.items() if name.startswith("orthobasis.")),
            "traffic.prefs_s": total["traffic.default_preferred_paths"],
            "traffic.family_s": total["traffic.traffic_wavelet_family"],
            "spectral.eig_s": total["spectral.eig_sym"],
            "spectral.eig_n": counts["spectral.eig_n"],
            "spectral.reconstruct_s": total["spectral.reconstruct"],
            "spectral.reconstruct_scales": counts["spectral.reconstruct_scales"],
            "spectral.kernel_eval_calls": calls["spectral.kernel_eval"],
            "cli.output_bytes": counts["cli.output_bytes"],
            "trace.op_wall_s": total[OP_SPAN],
        }
        for layer, seconds in self_s.items():
            m[f"{layer}.self_s"] = seconds
        return m

    def write(self, path):
        """Write every span and leaf aggregate as JSON lines."""
        with open(path, "w") as fh:
            for number, record in enumerate(self.passes):
                for name, start, end, parent, op_id in record["spans"]:
                    fh.write(json.dumps({"pass": number, "name": name, "start": start, "end": end,
                                         "parent": parent, "op_id": op_id}) + "\n")
                for (parent, name), (count, seconds) in sorted(record["leaves"].items()):
                    fh.write(json.dumps({"pass": number, "name": name, "parent": parent,
                                         "count": count, "seconds": seconds}) + "\n")
