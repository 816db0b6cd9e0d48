"""Seeded query streams for the four benchmark workloads.

Every input is made here from ``(workload, seed)`` with the benchmark's own
``random.Random``; nothing comes from ``polartrees.sampling``.  The only
library calls are exact yes/no predicates (``is_tree`` on small facet
complexes) used to reject candidates, so one seed gives byte-identical
inputs on every commit whose predicates answer correctly.

A stream yields lists of queries: one list per generated input (an ideal or
a complex), since ``forest-battery`` sends one ideal through eight commands
and ``high-exponent`` through two or four.  Each query carries the facts the
generator knows by construction, which the answer checks compare against.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

Exps = tuple[int, ...]

RUNNING_EXAMPLE = "x1^2, x1*x2, x2^3"
WORKED_TREE = "x1^3, x1^2*x2*x3, x3^2, x2^3*x3"


@dataclass(frozen=True)
class Query:
    command: str
    text: str
    expect: dict = field(default_factory=dict, compare=False)

    def argv(self) -> list[str]:
        return [self.command, self.text, "--format", "machine"]


# -- exponent-vector helpers -------------------------------------------------


def _divides(a: Exps, b: Exps) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimal(gens: list[Exps]) -> list[Exps]:
    """Minimal generators, in the order first generated."""
    unique = list(dict.fromkeys(g for g in gens if any(g)))
    return [g for g in unique if not any(h != g and _divides(h, g) for h in unique)]


def _random_exps(rng: random.Random, nv: int, dmin: int, dmax: int, smax: int) -> Exps:
    """A monomial of degree in [dmin, dmax] on at most smax variables."""
    degree = rng.randint(dmin, dmax)
    size = rng.randint(1, min(degree, smax, nv))
    exps = [0] * nv
    support = rng.sample(range(nv), size)
    for i in support:
        exps[i] = 1
    for _ in range(degree - size):
        exps[rng.choice(support)] += 1
    return tuple(exps)


def render(gens: list[Exps]) -> str:
    return ", ".join(
        "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(g) if e)
        for g in gens
    )


def polar_facets(gens: list[Exps]) -> list[tuple[str, ...]]:
    """The polarization's facets: x_i^e spreads over slots x[i,1..e]."""
    return [
        tuple(f"x[{i + 1},{j}]" for i, e in enumerate(g) for j in range(1, e + 1))
        for g in gens
    ]


def render_facets(facets) -> str:
    return ", ".join("*".join(f) for f in facets)


def components(gens: list[Exps]) -> list[Exps]:
    """Irredundant irreducible components, by splitting every generator.

    I is the intersection over all choice functions g -> x_i (x_i | g) of the
    pure-power ideals (x_i^{g_i}); the inclusion-minimal ones are the
    irredundant components.  Exponential in the generator count, so used
    only on the few-generator inputs of ``high-exponent``.
    """
    nv = len(gens[0])
    found = set()
    supports = [[i for i in range(nv) if g[i]] for g in gens]
    for choice in itertools.product(*supports):
        exps = [0] * nv
        for g, i in zip(gens, choice):
            exps[i] = g[i] if not exps[i] else min(exps[i], g[i])
        found.add(tuple(exps))

    def contains(outer: Exps, inner: Exps) -> bool:
        return all(not e or (outer[i] and outer[i] <= e) for i, e in enumerate(inner))

    return sorted(c for c in found if not any(o != c and contains(c, o) for o in found))


def polar_candidates(comps: list[Exps]) -> int:
    """Slot-choice primes over all components, before the inclusion prune."""
    total = 0
    for c in comps:
        count = 1
        for e in c:
            count *= e or 1
        total += count
    return total


def box_points(gens: list[Exps]) -> int:
    """Points of the colon-witness box, prod(max exponent + 1)."""
    count = 1
    for column in zip(*gens):
        count *= max(column) + 1
    return count


# -- workloads ---------------------------------------------------------------


def _decompose_mix(rng: random.Random) -> Iterator[list[Query]]:
    """Distinct ideals on 6 variables: 9 drawn generators of degree 2-3, at
    least 7 of them minimal, not square-free; each sent once, round-robin."""
    commands = ("decompose", "ass", "height", "filtration")
    yield [Query("decompose", RUNNING_EXAMPLE)]
    seen = set()
    k = 1
    while True:
        gens = _minimal([_random_exps(rng, 6, 2, 3, 3) for _ in range(9)])
        key = frozenset(gens)
        if len(gens) < 7 or all(max(g) == 1 for g in gens) or key in seen:
            continue
        seen.add(key)
        yield [Query(commands[k % 4], render(gens))]
        k += 1


FOREST_BATTERY = (
    "is-tree", "cm-verdict", "scm-verdict", "check-konig",
    "check-joint-removal", "check-localization", "check-appendix", "filtration",
)


def _battery(text: str, facets) -> list[Query]:
    return [
        Query(c, render_facets(facets) if c == "is-tree" else text,
              {"is_tree": True} if c == "is-tree" else {})
        for c in FOREST_BATTERY
    ]


def _tree_ideal(rng: random.Random, nv: int, ngens: int, dmax: int) -> list[Exps]:
    """Grow an ideal one generator at a time, keeping its polarization a tree.

    Forests are closed under taking subcollections, so a generator whose
    polar facet breaks the forest property is simply redrawn.  Sharing a
    variable with an earlier generator shares the slot x[i,1], which keeps
    the polarization connected.
    """
    from polartrees.simplicial import complex_on, is_tree

    while True:
        gens: list[Exps] = []
        for _ in range(40 * ngens):
            g = _random_exps(rng, nv, 1, dmax, 3)
            if any(_divides(h, g) or _divides(g, h) for h in gens):
                continue
            if gens and not any(a and b for h in gens for a, b in zip(g, h)):
                continue
            candidate = gens + [g]
            facets = polar_facets(candidate)
            vertices = sorted(set(itertools.chain.from_iterable(facets)))
            if len(candidate) >= 3 and not is_tree(complex_on(vertices, facets)):
                continue
            gens = candidate
            if len(gens) == ngens:
                break
        if len(gens) == ngens and any(max(g) > 1 for g in gens):
            return gens


def _forest_battery(rng: random.Random) -> Iterator[list[Query]]:
    """Tree-polarizing ideals with 7 generators on all 5 variables and total
    degree 20-26, a band narrow enough that the seed moves the cost little."""
    worked = [(3, 0, 0), (2, 1, 1), (0, 0, 2), (0, 3, 1)]
    yield _battery(WORKED_TREE, polar_facets(worked))
    seen = set()
    while True:
        gens = _tree_ideal(rng, 5, 7, 5)
        key = frozenset(gens)
        if (key in seen or not all(any(col) for col in zip(*gens))
                or not 20 <= sum(map(sum, gens)) <= 26):
            continue
        seen.add(key)
        yield _battery(render(gens), polar_facets(gens))


class _Names:
    def __init__(self):
        self.count = 0

    def fresh(self, k: int) -> list[str]:
        out = [f"v{self.count + i + 1}" for i in range(k)]
        self.count += k
        return out


def _grow_forest(rng: random.Random, names: _Names, facets: list[tuple[str, ...]],
                 target: int, max_size: int) -> None:
    """Attach facets until ``target``, each keeping the complex a forest.

    A new facet F meets the old vertices in a set S drawn from one host
    facet, where every old facet either contains S properly or misses it,
    and brings at least one fresh vertex.  A special cycle through F would
    need two vertices of S, and the cycle's edge before F would then hold
    both of them plus its own other cycle vertex, so no special cycle (hence,
    by Herzog-Hibi-Trung-Zheng, no leafless subcollection) is created.
    """
    if not facets:
        facets.append(tuple(names.fresh(rng.randint(2, max_size))))
    while len(facets) < target:
        host = rng.choice(facets)
        shared = tuple(sorted(rng.sample(host, rng.randint(1, len(host) - 1))))
        s = set(shared)
        if any(s & set(f) and not s < set(f) for f in facets):
            continue
        extra = rng.randint(1, max_size - len(shared))
        facets.append(shared + tuple(names.fresh(extra)))


def _path(k: int) -> list[tuple[str, ...]]:
    return [(f"v{i}", f"v{i + 1}") for i in range(1, k)]


def _squarefree(rng: random.Random) -> Iterator[list[Query]]:
    """15-facet forests and near-forests, and 10-facet forests for covers.

    The cover forests keep the product of their facet sizes, which bounds
    the branching of cover enumeration, between 6,000 and 20,000.
    """
    big = ("is-tree", "scm-verdict", "leaves")
    small = ("covers", "complex-info")
    yield [Query("is-tree", render_facets(_path(16)), {"is_tree": True})]
    yield [Query("covers", render_facets(_path(12)), {"is_forest": True})]
    k = 0
    near = 0
    while True:
        names = _Names()
        facets: list[tuple[str, ...]] = []
        command = (big + small)[k % 5]
        if command in small:
            while not 6_000 <= math.prod(map(len, facets)) <= 20_000:
                names, facets = _Names(), []
                _grow_forest(rng, names, facets, 10, 3)
            expect = {"is_forest": True}
        elif (k // 5) % 2 == 0:
            _grow_forest(rng, names, facets, 15, 4)
            expect = {"is_forest": True, "is_tree": True}
        else:
            # Plant a leafless cycle, attached to a forest at one vertex.
            length = 4 if near % 2 == 0 else rng.randint(3, 4)
            _grow_forest(rng, names, facets, 15 - length, 4)
            anchor = rng.choice(rng.choice(facets))
            if near % 2 == 0:
                # Each small facet is a leaf of the whole complex, yet
                # {abx, bcy, acz} is leafless: greedy leaf removal fails here.
                a, b, c, x, y, z = names.fresh(6)
                cycle = [(a, b, x), (b, c, y), (a, c, z), (a, b, c, anchor)]
            else:
                ring = [anchor] + names.fresh(length - 1)
                cycle = [
                    (ring[i], ring[(i + 1) % length], *names.fresh(rng.randint(0, 1)))
                    for i in range(length)
                ]
            near += 1
            facets.extend(cycle)
            expect = {"is_forest": False, "is_tree": False}
        if command == "leaves":
            expect = {}
        yield [Query(command, render_facets(facets), expect)]
        k += 1


def _high_exponent(rng: random.Random) -> Iterator[list[Query]]:
    """4-5 variables, 3-4 generators with exponents 1-12, the top one at least
    9.  The witness box (8,000-40,000 points) and the polar candidates
    (100-250) stay in bands below the quadratic prune's cliff."""
    fixed = [[(4, 1, 0, 0), (0, 4, 1, 0), (0, 0, 4, 1), (0, 0, 0, 4)]]
    for gens in fixed:
        yield _high_battery(gens, True)
    seen = set()
    while True:
        nv = rng.randint(4, 5)
        gens = []
        for _ in range(rng.randint(3, 4)):
            exps = [0] * nv
            for i in rng.sample(range(nv), rng.randint(1, 3)):
                exps[i] = rng.randint(1, 12)
            gens.append(tuple(exps))
        gens = _minimal(gens)
        key = frozenset(gens)
        if (len(gens) < 3 or key in seen or not all(any(col) for col in zip(*gens))
                or max(max(g) for g in gens) < 9):
            continue
        if not (8_000 <= box_points(gens) <= 40_000
                and 100 <= polar_candidates(components(gens)) <= 250):
            continue
        seen.add(key)
        yield _high_battery(gens, len(seen) % 2 == 0)


def _high_battery(gens: list[Exps], polar: bool) -> list[Query]:
    """ass and decompose; polarize and depolarize only when ``polar``.

    Sending the two cheap commands for every second ideal keeps them a
    third of the queries, so the median latency does not sit in the gap
    between the cheap and the expensive commands.
    """
    text = render(gens)
    queries = [Query("ass", text), Query("decompose", text, {"components": components(gens)})]
    if polar:
        queries += [
            Query("polarize", text),
            Query("depolarize", render_facets(polar_facets(gens)), {"generators": text}),
        ]
    return queries


STREAMS = {
    "decompose-mix": _decompose_mix,
    "forest-battery": _forest_battery,
    "squarefree-complexes": _squarefree,
    "high-exponent": _high_exponent,
}


class Corpus:
    """The query list of one workload, materialized on demand."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        rng = random.Random(f"perfbench/{workload}/{seed}")
        self._groups = STREAMS[workload](rng)
        self.queries: list[Query] = []

    def ensure(self, n: int) -> None:
        while len(self.queries) < n:
            self.queries.extend(next(self._groups))

    def digest(self, n: int) -> str:
        """sha256 over the first n queries' command lines."""
        self.ensure(n)
        h = hashlib.sha256()
        for q in self.queries[:n]:
            h.update(f"{q.command}\t{q.text}\n".encode())
        return h.hexdigest()
