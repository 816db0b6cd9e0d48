"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: membership sweeps
over bounded exponent boxes, itertools subset scans for covers and
non-faces, generator splitting for irreducible decompositions and all
lcms for intersections (both on exponent tuples), a pairwise
inclusion prune for polar primes, and a pair-by-pair substitution that
undoes a polarization without counting slots.
"""

from __future__ import annotations

import itertools

from polartrees import (
    IrreducibleComponent,
    Monomial,
    MonomialIdeal,
    PolarRing,
    Prime,
    Ring,
    SimplicialComplex,
    minimalize,
    polar_decomposition_of_component,
    polarization_sequence,
    sort_primes,
)


def box_members(ideal: MonomialIdeal, bound: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Exponent tuples inside the box that the ideal contains."""
    gens = [g.exps for g in ideal.gens]
    out = set()
    for exps in itertools.product(*(range(b + 1) for b in bound)):
        if any(all(a <= b for a, b in zip(g, exps)) for g in gens):
            out.add(exps)
    return out


def equal_by_membership(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """Ideal equality decided by comparing membership on a bounding box.

    The box tops out at the componentwise max of both generator lcms, which
    is enough: every generator of either ideal lies inside it.
    """
    assert a.ring == b.ring
    bound = tuple(
        max(x, y) for x, y in zip(a.max_exponents(), b.max_exponents())
    )
    return box_members(a, bound) == box_members(b, bound)


def contained_by_membership(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """a inside b, decided on the joint bounding box."""
    assert a.ring == b.ring
    bound = tuple(
        max(x, y) for x, y in zip(a.max_exponents(), b.max_exponents())
    )
    return box_members(a, bound) <= box_members(b, bound)


def primes_cut_out_ideal(primes, ideal: MonomialIdeal) -> bool:
    """Whether the intersection of the primes equals the square-free ideal.

    Membership sweep over all square-free monomials of the ring: a monomial
    sits in every prime exactly when it should sit in the ideal.
    """
    ring = ideal.ring
    n = len(ring)
    gen_masks = [
        sum(1 << i for i, e in enumerate(g.exps) if e) for g in ideal.gens
    ]
    prime_masks = [
        sum(1 << ring.index(v) for v in p.variables) for p in primes
    ]
    for mask in range(1 << n):
        in_all = all(mask & pm for pm in prime_masks)
        in_ideal = any(mask & gm == gm for gm in gen_masks)
        if in_all != in_ideal:
            return False
    return True


def brute_minimal_covers(complex_: SimplicialComplex) -> set[frozenset]:
    """All minimal vertex covers by scanning every vertex subset."""
    vertices = complex_.vertices
    covers = []
    for size in range(0, len(vertices) + 1):
        for combo in itertools.combinations(vertices, size):
            chosen = frozenset(combo)
            if all(chosen & f for f in complex_.facets):
                covers.append(chosen)
    return {c for c in covers if not any(o < c for o in covers)}


def brute_minimal_nonfaces(complex_: SimplicialComplex) -> set[frozenset]:
    vertices = complex_.vertices
    nonfaces = []
    for size in range(1, len(vertices) + 1):
        for combo in itertools.combinations(vertices, size):
            chosen = frozenset(combo)
            if not any(chosen <= f for f in complex_.facets):
                nonfaces.append(chosen)
    return {s for s in nonfaces if not any(o < s for o in nonfaces)}


def sequence_substitution(polar: MonomialIdeal) -> MonomialIdeal:
    """Undo a polarization by applying the pair substitutions one by one.

    Every pair (head, tail) of the polarizing sequence stands for the
    identification tail -> head; exponents pile up on the head slot and the
    slot-one variables are then renamed to the base variables.  This is an
    independent route to the same answer as slot counting.
    """
    ring = polar.ring
    assert isinstance(ring, PolarRing)
    base = ring.base
    images = []
    for g in polar.gens:
        exps = list(g.exps)
        for head, tail in polarization_sequence(ring):
            h, t = ring.index(head), ring.index(tail)
            exps[h] += exps[t]
            exps[t] = 0
        base_exps = [0] * len(base)
        for name, e in zip(ring.names, exps):
            if e:
                i, slot = ring.structure_of(name)
                assert slot == 1
                base_exps[i] = e
        images.append(Monomial(base, tuple(base_exps)))
    result = minimalize(images, base)
    assert isinstance(result, MonomialIdeal)
    return result


def power_ideal(ring: Ring, variables: tuple[str, ...], power: int) -> MonomialIdeal:
    """The power of the prime on the given variables, minimally generated."""
    indices = [ring.index(v) for v in variables]
    gens = []
    for combo in itertools.combinations_with_replacement(indices, power):
        exps = [0] * len(ring)
        for i in combo:
            exps[i] += 1
        gens.append(Monomial(ring, tuple(exps)))
    result = minimalize(gens, ring)
    assert isinstance(result, MonomialIdeal)
    return result


def exponent_ideal(vectors) -> MonomialIdeal:
    """The ideal on x1..xn generated by nonzero exponent vectors."""
    n = len(vectors[0])
    ring = Ring(tuple(f"x{i}" for i in range(1, n + 1)))
    result = minimalize([Monomial(ring, tuple(v)) for v in vectors], ring)
    assert isinstance(result, MonomialIdeal)
    return result


def seeded_ideal(rng, max_variables: int = 6) -> MonomialIdeal:
    """At most ``max_variables`` variables, 9 generators and exponent 5."""
    n = rng.randint(1, max_variables)
    vectors = []
    for _ in range(rng.randint(1, 9)):
        exps = [0] * n
        for i in rng.sample(range(n), rng.randint(1, n)):
            exps[i] = rng.randint(1, 5)
        vectors.append(exps)
    return exponent_ideal(vectors)


def seeded_complexes(
    rng, count: int, max_vertices: int = 10
) -> list[SimplicialComplex]:
    """At least ``count`` non-void complexes on at most ``max_vertices``
    vertices and 8 drawn facets.

    The list opens with the lone empty facet and the full simplex on every
    vertex count; the random rest draws each facet vertex by vertex, so
    isolated vertices, nested facets and repeated facets all occur.
    """
    out = []
    for n in range(1, max_vertices + 1):
        vertices = tuple(f"v{i}" for i in range(n))
        out.append(SimplicialComplex(vertices, (frozenset(),)))
        out.append(SimplicialComplex(vertices, (frozenset(vertices),)))
    while len(out) < count:
        vertices = tuple(f"v{i}" for i in range(rng.randint(1, max_vertices)))
        density = rng.uniform(0.2, 0.7)
        facets = [
            frozenset(v for v in vertices if rng.random() < density)
            for _ in range(rng.randint(1, 8))
        ]
        out.append(SimplicialComplex(vertices, tuple(facets)))
    return out


def covering_primes(ideal: MonomialIdeal) -> list[Prime]:
    """Every variable-subset prime containing the ideal, by subset scan."""
    names = ideal.ring.names
    supports = [frozenset(g.support) for g in ideal.gens]
    out = []
    for size in range(1, len(names) + 1):
        for combo in itertools.combinations(names, size):
            chosen = frozenset(combo)
            if all(chosen & s for s in supports):
                out.append(Prime(ideal.ring, combo))
    return out


def _leaf_of(facet: frozenset, family: tuple[frozenset, ...]) -> bool:
    """Leaf test straight from the definition, on vertex sets."""
    others = [g for g in family if g != facet]
    if not others:
        return True
    shared = facet & frozenset().union(*others)
    return any(shared <= g for g in others)


def brute_forest_witness(complex_: SimplicialComplex) -> tuple[frozenset, ...] | None:
    """First leafless subcollection of facets, smallest first, or None.

    Scans every subcollection of two or more facets in ``combinations``
    order, so a complex is a forest exactly when this returns None, and
    otherwise the answer is the witness a smallest-first sweep finds first.
    """
    facets = complex_.facets
    for size in range(2, len(facets) + 1):
        for family in itertools.combinations(facets, size):
            if not any(_leaf_of(f, family) for f in family):
                return family
    return None


def _minimal_vectors(vectors) -> list[tuple[int, ...]]:
    """The distinct vectors that no other one divides, by a pairwise scan."""
    pool = set(vectors)
    return [
        v
        for v in pool
        if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in pool)
    ]


def lcm_intersection(ideals) -> MonomialIdeal:
    """Intersection of the ideals from the lcm of every choice of one
    generator per ideal, minimalized pairwise and checked by the public
    constructor."""
    ring = ideals[0].ring
    lcms = (
        tuple(map(max, zip(*choice)))
        for choice in itertools.product(*([g.exps for g in j.gens] for j in ideals))
    )
    vectors = _minimal_vectors(lcms)
    return MonomialIdeal(ring, tuple(Monomial(ring, v) for v in vectors))


def splitting_decomposition(ideal: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """Irredundant irreducible decomposition by generator splitting.

    A generator that factors into coprime nonconstant parts u, v splits the
    ideal into I+(u) and I+(v); an ideal of pure powers is irreducible.
    Components containing another are dropped, which leaves the irredundant
    decomposition because irreducible monomial ideals are meet-prime.  The
    ideals are frozensets of minimal exponent vectors: adding u to one
    drops the generators u divides, or changes nothing when a generator
    already divides u.
    """
    seen: set[frozenset[tuple[int, ...]]] = set()
    found: set[tuple[int, ...]] = set()
    stack = [frozenset(g.exps for g in ideal.gens)]
    while stack:
        gens = stack.pop()
        if gens in seen:
            continue
        seen.add(gens)
        mixed = next((g for g in gens if sum(1 for e in g if e) >= 2), None)
        if mixed is None:
            found.add(tuple(map(sum, zip(*gens))))
            continue
        first = next(i for i, e in enumerate(mixed) if e)
        u = tuple(e if i == first else 0 for i, e in enumerate(mixed))
        v = tuple(0 if i == first else e for i, e in enumerate(mixed))
        for extra in (u, v):
            if not any(all(a <= b for a, b in zip(g, extra)) for g in gens):
                stack.append(
                    frozenset(
                        g for g in gens if not all(a <= b for a, b in zip(extra, g))
                    )
                    | {extra}
                )

    # d lies inside c when c has every variable of d, at an exponent no
    # larger; grouping by support mask rules out most pairs at once.
    by_support: dict[int, list[tuple[int, ...]]] = {}
    for c in found:
        by_support.setdefault(sum(1 << i for i, e in enumerate(c) if e), []).append(c)
    kept = [
        c
        for mask, group in by_support.items()
        for c in group
        if not any(
            d != c and all(o <= e for o, e in zip(c, d) if e)
            for inner, ds in by_support.items()
            if not inner & ~mask
            for d in ds
        )
    ]
    return tuple(IrreducibleComponent(ideal.ring, c) for c in sorted(kept))


def pairwise_polar_decomposition(ideal: MonomialIdeal) -> tuple[Prime, ...]:
    """Polar primes by comparing every slot-choice candidate with every other.

    The candidates are the slot choices of every component of the splitting
    decomposition in the spanning polar ring; one is dropped when another
    has a strictly smaller variable set.
    """
    ring = PolarRing.spanning(ideal)
    candidates = set()
    for component in splitting_decomposition(ideal):
        candidates.update(polar_decomposition_of_component(component, ring))
    var_sets = {p: set(p.variables) for p in candidates}
    kept = [
        p
        for p in candidates
        if not any(var_sets[q] < var_sets[p] for q in candidates)
    ]
    return sort_primes(kept)


def box_witnesses(
    ideal: MonomialIdeal, modules=(None,)
) -> list[dict[Prime, Monomial]]:
    """Colon witnesses by sweeping one exponent box, first point per prime.

    The box tops out at the per-variable maximum over the generators of the
    ideal and of every module (None stands for the whole ring), and its
    points run in ``itertools.product`` order.  For each module, each prime
    P gets the first point u in the module whose colon (ideal : u) is P.
    That colon is generated by the quotients g / gcd(g, u), whose supports
    are the variables where g exceeds u: it is P when no quotient is
    constant and each one involves a variable of P, where P collects the
    variables that are whole quotients.
    """
    ring = ideal.ring
    n = len(ring)
    gens = [g.exps for g in ideal.gens]
    members = [None if m is None else [g.exps for g in m.gens] for m in modules]
    bound_gens = gens + [g for m in members if m is not None for g in m]
    bound = [max(g[i] for g in bound_gens) for i in range(n)]
    found: list[dict[Prime, Monomial]] = [{} for _ in modules]
    for u in itertools.product(*(range(b + 1) for b in bound)):
        supports = []
        linear = set()
        for g in gens:
            support = [i for i in range(n) if g[i] > u[i]]
            if not support:
                break  # u lies in the ideal, so the colon is the whole ring
            if len(support) == 1 and g[support[0]] - u[support[0]] == 1:
                linear.add(support[0])
            supports.append(support)
        else:
            if not linear or not all(linear.intersection(s) for s in supports):
                continue
            p = Prime(ring, tuple(ring.names[i] for i in sorted(linear)))
            for m, witnesses in zip(members, found):
                if p not in witnesses and (
                    m is None or any(all(a <= b for a, b in zip(g, u)) for g in m)
                ):
                    witnesses[p] = Monomial(ring, u)
    return found
