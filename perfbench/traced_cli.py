"""Run one ``getk`` command with a span around each layer's public functions.

Usage: ``python perfbench/traced_cli.py SPANS.json <getk arguments>``

The script imports ``getk.cli`` (timing the import), wraps the functions
listed in ``LAYERS`` in the module that defines them and in every ``getk``
module that imported them by name (methods are wrapped on their class),
then calls ``getk.cli.main``; a listed function the code no longer has
is skipped and its layer reports 0.  Each call leaves a span in memory: layer,
start, end and parent span.  The spans and a few work counts are written to
SPANS.json when the command exits.  ``pass_metrics`` turns the span files of
one pass into the per-layer metrics the benchmark reports.
"""

import functools
import inspect
import json
import sys
import time

# (layer, module, attribute); "Class.method" wraps a method on its class
LAYERS = (
    ("cli.main", "getk.cli", "main"),
    ("states.load_state", "getk.states", "load_state"),
    ("catalog.named_algebra", "getk.catalog", "named_algebra"),
    ("operators.ObservableSpace.init", "getk.operators", "ObservableSpace.__init__"),
    ("operators.ObservableSpace.expectation_vector", "getk.operators",
     "ObservableSpace.expectation_vector"),
    ("operators.ObservableSpace.traceless_sector", "getk.operators",
     "ObservableSpace.traceless_sector"),
    ("operators.orthonormalize", "getk.operators", "orthonormalize"),
    ("operators.lie_closure", "getk.operators", "lie_closure"),
    ("purity.rescaled_purity", "getk.purity", "rescaled_purity"),
    ("purity.numeric_max_reference", "getk.purity", "numeric_max_reference"),
    ("coherent.max_purity_estimate", "getk.coherent", "max_purity_estimate"),
    ("coherent.raw_purity_and_gradient", "getk.coherent", "raw_purity_and_gradient"),
    ("fermion.fock_register", "getk.fermion", "fock_register"),
    ("fermion.fermionic_u2", "getk.fermion", "fermionic_u2"),
    ("fermion.fermionic_so4", "getk.fermion", "fermionic_so4"),
    ("boxes.enumerate_vertices", "getk.boxes", "enumerate_vertices"),
    ("boxes.no_signalling_polytope", "getk.boxes", "no_signalling_polytope"),
    ("boxes.classify_extremal", "getk.boxes", "classify_extremal"),
    ("boxes.is_extremal", "getk.boxes", "is_extremal"),
    ("boxes.in_convex_hull", "getk.boxes", "in_convex_hull"),
    ("boxes.relabeling_orbit", "getk.boxes", "relabeling_orbit"),
    ("boxes.local_relabeling", "getk.boxes", "local_relabeling"),
    ("boxes.marginals", "getk.boxes", "marginals"),
    ("reproduce.run_table_paper", "getk.reproduce", "run_table_paper"),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)

# Per-layer metrics reported by a traced run, with units.  Times are summed
# over one pass of the workload; counts are per pass and repeat exactly.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("states.load_state.self_s", "s"),
    ("states.load_state.calls", "count"),
    ("catalog.named_algebra.self_s", "s"),
    ("catalog.named_algebra.calls", "count"),
    ("operators.ObservableSpace.init.self_s", "s"),
    ("operators.ObservableSpace.init.calls", "count"),
    ("operators.space_bytes", "bytes"),
    ("operators.ObservableSpace.expectation_vector.self_s", "s"),
    ("operators.ObservableSpace.expectation_vector.calls", "count"),
    ("operators.ObservableSpace.traceless_sector.self_s", "s"),
    ("operators.orthonormalize.self_s", "s"),
    ("operators.orthonormalize.calls", "count"),
    ("operators.lie_closure.self_s", "s"),
    ("purity.rescaled_purity.self_s", "s"),
    ("purity.rescaled_purity.calls", "count"),
    ("purity.numeric_max_reference.calls", "count"),
    ("purity.reference_cache_hit_ratio", "1"),
    ("coherent.max_purity_estimate.self_s", "s"),
    ("coherent.max_purity_estimate.calls", "count"),
    ("coherent.raw_purity_and_gradient.calls", "count"),
    ("coherent.grad_evals_per_restart", "count"),
    ("fermion.fock_register.self_s", "s"),
    ("fermion.fermionic_u2.self_s", "s"),
    ("fermion.fermionic_so4.self_s", "s"),
    ("boxes.enumerate_vertices.self_s", "s"),
    ("boxes.enumerate_vertices.calls", "count"),
    ("boxes.vertices_found", "count"),
    ("boxes.no_signalling_polytope.self_s", "s"),
    ("boxes.classify_extremal.self_s", "s"),
    ("boxes.is_extremal.self_s", "s"),
    ("boxes.is_extremal.calls", "count"),
    ("boxes.in_convex_hull.self_s", "s"),
    ("boxes.in_convex_hull.calls", "count"),
    ("boxes.hull_columns", "count"),
    ("boxes.relabeling_orbit.self_s", "s"),
    ("boxes.relabeling_orbit.calls", "count"),
    ("boxes.local_relabeling.calls", "count"),
    ("boxes.orbit_yield", "1"),
    ("boxes.marginals.calls", "count"),
    ("reproduce.run_table_paper.self_s", "s"),
    ("trace.overhead", "1"),
)

# Work counts that must repeat exactly between two traced passes on one seed.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER
                     if unit == "count" or name == "operators.space_bytes")


class Tracer:
    def __init__(self):
        self.spans = []  # [layer index, start, end, parent span index or -1]
        self.stack = []
        self.counts = {"boxes.vertices_found": 0, "boxes.hull_columns": 0,
                       "boxes.orbit_members": 0, "operators.space_bytes": 0,
                       "coherent.restarts": 0}

    def wrap(self, index, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced


def _hull_columns(tracer, args, kwargs):
    # in_convex_hull accepts any iterable; count it without consuming it
    if len(args) > 1:
        args = (args[0], list(args[1])) + args[2:]
        n = len(args[1])
    else:
        kwargs = dict(kwargs, vertices=list(kwargs["vertices"]))
        n = len(kwargs["vertices"])
    tracer.counts["boxes.hull_columns"] += n
    return args, kwargs


def _restarts(fn):
    sig = inspect.signature(fn)

    def before(tracer, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        restarts = bound.arguments.get("restarts")
        if isinstance(restarts, int) and getattr(bound.arguments.get("omega"), "size", 0):
            tracer.counts["coherent.restarts"] += restarts
        return args, kwargs

    return before


def _add(key, measure):
    def after(tracer, args, result):
        tracer.counts[key] += measure(args, result)

    return after


def _space_bytes(args, result):
    space = args[0]  # size and dim only: touching a lazily built stack would build it
    return space.size * space.dim ** 2 * 16


HOOKS = {
    "boxes.in_convex_hull": (_hull_columns, None),
    "boxes.enumerate_vertices": (None, _add("boxes.vertices_found", lambda a, r: len(r))),
    "boxes.relabeling_orbit": (None, _add("boxes.orbit_members", lambda a, r: len(r))),
    "operators.ObservableSpace.init": (None, _add("operators.space_bytes", _space_bytes)),
}


def install(tracer):
    """Wrap every layer function; return the wrapped ``getk.cli.main``."""
    getk_modules = [m for name, m in sys.modules.items()
                    if m is not None and (name == "getk" or name.startswith("getk."))]
    wrapped = {}
    for index, (layer, module_name, attr) in enumerate(LAYERS):
        cls_name, _, name = attr.rpartition(".")
        owner = sys.modules.get(module_name)
        if owner is not None and cls_name:
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, name, None)
        if original is None:
            continue  # not in this version of getk: the layer reports 0
        before, after = HOOKS.get(layer, (None, None))
        if layer == "coherent.max_purity_estimate":
            before = _restarts(original)
        wrapper = tracer.wrap(index, original, before, after)
        if cls_name:
            setattr(owner, name, wrapper)
            continue
        wrapped[layer] = wrapper
        for m in getk_modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    return wrapped["cli.main"]


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import getk.cli  # noqa: F401  (timed: every command pays this import)
    import_s = time.perf_counter() - start
    tracer = Tracer()
    cli_main = install(tracer)
    code = 1
    try:
        code = cli_main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "layers": LAYER_NAMES,
                       "spans": tracer.spans, "counts": tracer.counts}, fh)
    sys.exit(code)


# ---------------------------------------------------------------------------
# aggregation, used by run.py


def pass_metrics(traces) -> dict:
    """Per-layer metrics of one pass from the span records of its commands."""
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    counts = {}
    import_s = 0.0
    estimates_under_reference = 0
    for rec in traces:
        import_s += rec["import_s"]
        for key, value in rec["counts"].items():
            counts[key] = counts.get(key, 0) + value
        names = rec["layers"]
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for index, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for n, (index, start, end, parent) in enumerate(spans):
            layer = names[index]
            self_s[layer] += (end - start) - child[n]
            calls[layer] += 1
            if (layer == "coherent.max_purity_estimate" and parent >= 0
                    and names[spans[parent][0]] == "purity.numeric_max_reference"):
                estimates_under_reference += 1
    out = {"cli.import_s": import_s}
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out["boxes.vertices_found"] = counts.get("boxes.vertices_found", 0)
    out["boxes.hull_columns"] = counts.get("boxes.hull_columns", 0)
    out["operators.space_bytes"] = counts.get("operators.space_bytes", 0)
    refs = calls["purity.numeric_max_reference"]
    # 0 when no numerical reference was asked for (nothing to hit)
    out["purity.reference_cache_hit_ratio"] = 1 - estimates_under_reference / refs if refs else 0.0
    restarts = counts.get("coherent.restarts", 0)
    out["coherent.grad_evals_per_restart"] = (
        calls["coherent.raw_purity_and_gradient"] / restarts if restarts else 0.0)
    relabelings = calls["boxes.local_relabeling"]
    out["boxes.orbit_yield"] = counts.get("boxes.orbit_members", 0) / relabelings if relabelings else 0.0
    out["purity.estimates_under_reference"] = estimates_under_reference
    out["coherent.restarts"] = restarts
    out["boxes.orbit_members"] = counts.get("boxes.orbit_members", 0)
    return out


if __name__ == "__main__":
    main()
