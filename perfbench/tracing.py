"""Outside-in tracing of the polartrees layers, from the benchmark's code.

``Tracer.install`` replaces every cross-module reference to a public
function of a library layer, in each ``polartrees.<module>`` namespace, by a
wrapper that records a span: name, parent, start and end.  Calls inside one
module are left alone (wrapping leaf helpers such as ``divides`` costs more
than the work they do), with one exception: ``decomposition``'s own
reference to the cached ``irreducible_decomposition``, so that every call to
the cache is counted.  Wrappers call the original object, so the cache is
never bypassed.  Class constructors and methods are not wrapped; their time
lands in the caller's span.

A layer's self time is the sum over its spans of duration minus the
duration of the span's children.  Counters that need the arguments or the
result (witness box points, polar candidates, covers) are taken in hooks
that run outside the span's own start and end.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

from corpus import box_points, polar_candidates

LAYERS = ("textio", "monomials", "decomposition", "polarization", "simplicial", "structure")
HOSTS = ("cli",) + LAYERS
CACHED = ("decomposition", "irreducible_decomposition")
WITNESS_SWEEPS = ("quotient_associated_prime_witnesses", "quotient_associated_primes")
# Public names the per-layer metrics are read from.
WATCHED = {
    "monomials": ("intersect_all", "minimalize"),
    "decomposition": ("irreducible_decomposition",) + WITNESS_SWEEPS,
    "polarization": ("polar_decomposition",),
    "simplicial": ("is_forest", "minimal_vertex_covers"),
}


def _layer_of(obj) -> str | None:
    if isinstance(obj, type) or not callable(obj):
        return None
    package, _, layer = (getattr(obj, "__module__", None) or "").rpartition(".")
    return layer if package == "polartrees" and layer in LAYERS else None


def _box_points(ideal, module=None) -> int:
    """Points of the colon-witness box swept for these arguments."""
    gens = ideal.gens + (module.gens if module is not None else ())
    return box_points([g.exps for g in gens])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Flat records of (name id, parent index, start ns, end ns).
        self.spans = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._decomposed: set = set()
        self.missing: list[str] = []
        self.cache = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        before, after = self._hooks(name, fn)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans) // 4
            spans.extend((nid, stack[-1] if stack else -1, 0, 0))
            stack.append(index)
            spans[4 * index + 2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * index + 3] = clock()
                stack.pop()
            if after is not None:
                after(result, index)
            return result

        traced.__wrapped__ = fn
        return traced

    def _parent_name(self, index: int) -> str | None:
        parent = self.spans[4 * index + 1]
        return None if parent < 0 else self.names[self.spans[4 * parent]]

    def _hooks(self, name: str, fn):
        counts = self.counts
        fn_name = name.rpartition(".")[2]
        if fn_name == "irreducible_decomposition":
            if hasattr(fn, "cache_info"):
                self.cache = fn

            def seen(args, kwargs):
                key = args[0] if args else kwargs.get("ideal")
                counts["decomposition.repeats"] += key in self._decomposed
                self._decomposed.add(key)

            def candidates(result, index):
                if self._parent_name(index) == "polarization.polar_decomposition":
                    counts["polarization.polar_candidates"] += polar_candidates(
                        [c.exps for c in result])

            return seen, candidates
        if fn_name in WITNESS_SWEEPS:
            def box(args, kwargs):
                counts["decomposition.witness_box_points"] += _box_points(*args, **kwargs)

            return box, None
        if fn_name == "minimal_vertex_covers":
            def covers(result, index):
                counts["simplicial.minimal_vertex_covers.covers_out"] += len(result)

            return None, covers
        return None, None

    def install(self) -> None:
        """Wrap the cross-layer references of a freshly imported polartrees."""
        for host in HOSTS:
            module = sys.modules.get(f"polartrees.{host}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                layer = _layer_of(obj)
                if attr.startswith("_") or layer is None:
                    continue
                if layer == host and (host, attr) != CACHED:
                    continue
                setattr(module, attr, self.wrap(f"{layer}.{attr}", obj))
        for layer, names in WATCHED.items():
            module = sys.modules.get(f"polartrees.{layer}")
            self.missing += [f"{layer}.{n}" for n in names if not hasattr(module, n)]

    def write(self, path) -> None:
        """One line per span: index, parent, name, start ns, end ns."""
        spans = self.spans
        with open(path, "w") as out:
            for i in range(len(spans) // 4):
                nid, parent, start, end = spans[4 * i: 4 * i + 4]
                out.write(f"{i}\t{parent}\t{self.names[nid]}\t{start}\t{end}\n")

    def summary(self) -> dict:
        """Self time and calls per span name and per layer.

        Inclusive time counts each outermost entry into a layer with all the
        work it calls; ``inclusive_from_structure_ms`` keeps the entries made
        from inside a ``structure`` call.
        """
        spans, names = self.spans, self.names
        n = len(spans) // 4
        children = [0] * n
        for i in range(n):
            parent = spans[4 * i + 1]
            if parent >= 0:
                children[parent] += spans[4 * i + 3] - spans[4 * i + 2]
        bits = {layer: 1 << k for k, layer in enumerate(("cli",) + LAYERS)}
        inside = [0] * n  # layers on the path from the root, as a bit mask
        self_ns: defaultdict = defaultdict(int)
        layer_ns: defaultdict = defaultdict(int)
        entered_ns: defaultdict = defaultdict(int)
        from_structure: defaultdict = defaultdict(int)
        calls: Counter = Counter()
        for i in range(n):
            nid, parent, start, end = spans[4 * i: 4 * i + 4]
            name = names[nid]
            layer = name.partition(".")[0]
            above = inside[parent] if parent >= 0 else 0
            inside[i] = above | bits[layer]
            self_ns[name] += end - start - children[i]
            layer_ns[layer] += end - start - children[i]
            calls[name] += 1
            if not above & bits[layer]:
                entered_ns[layer] += end - start
                if above & bits["structure"]:
                    from_structure[layer] += end - start
        return {
            "spans": n,
            "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
            "layer_ms": {k: v / 1e6 for k, v in layer_ns.items()},
            "inclusive_ms": {k: v / 1e6 for k, v in entered_ns.items()},
            "inclusive_from_structure_ms": {k: v / 1e6 for k, v in from_structure.items()},
            "calls": calls,
        }

    def metrics(self, s: dict) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, by name, as (value, unit), from ``summary()``."""
        self_ms, layer_ms, calls, counts = s["self_ms"], s["layer_ms"], s["calls"], self.counts
        decompositions = calls["decomposition.irreducible_decomposition"]
        out = {f"{layer}.self_ms": (layer_ms.get(layer, 0.0), "ms") for layer in ("cli",) + LAYERS}
        out.update({
            "monomials.intersect_all.self_ms": (self_ms.get("monomials.intersect_all", 0.0), "ms"),
            "monomials.intersect_all.calls": (calls["monomials.intersect_all"], "count"),
            "monomials.minimalize.calls": (calls["monomials.minimalize"], "count"),
            "decomposition.irreducible_decomposition.calls": (decompositions, "count"),
            "decomposition.irreducible_decomposition.repeat_share": (
                counts["decomposition.repeats"] / decompositions if decompositions else 0.0,
                "ratio",
            ),
            "decomposition.irreducible_decomposition.cache_hits": (
                self.cache.cache_info().hits if self.cache is not None else 0, "count"),
            "decomposition.witness_sweep.self_ms": (
                sum(self_ms.get(f"decomposition.{n}", 0.0) for n in WITNESS_SWEEPS), "ms"),
            "decomposition.witness_box_points": (counts["decomposition.witness_box_points"], "count"),
            "polarization.polar_decomposition.self_ms": (
                self_ms.get("polarization.polar_decomposition", 0.0), "ms"),
            "polarization.polar_candidates": (counts["polarization.polar_candidates"], "count"),
            "simplicial.is_forest.self_ms": (self_ms.get("simplicial.is_forest", 0.0), "ms"),
            "simplicial.is_forest.calls": (calls["simplicial.is_forest"], "count"),
            "simplicial.minimal_vertex_covers.self_ms": (
                self_ms.get("simplicial.minimal_vertex_covers", 0.0), "ms"),
            "simplicial.minimal_vertex_covers.calls": (
                calls["simplicial.minimal_vertex_covers"], "count"),
            "simplicial.minimal_vertex_covers.covers_out": (
                counts["simplicial.minimal_vertex_covers.covers_out"], "count"),
            "structure.checks.calls": (
                sum(v for k, v in calls.items() if k.startswith("structure.")), "count"),
            "trace.spans": (s["spans"], "count"),
        })
        return out
