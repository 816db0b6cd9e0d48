"""Irreducible decomposition, minimal and associated primes, height.

The decomposition refines components one generator at a time on exponent
vectors: a component that misses the next generator splits into one
component per variable of that generator, and refinements containing
another component are dropped.  This is the minimal vertex cover
construction on the facets of the polarization, read back through
x[i,j] -> x_i^j, and it yields the unique irredundant irreducible
decomposition.

Associated primes come in two flavours: radicals of the irreducible
components, and colon witnesses (primes of the form (I : u) for a monomial
u).  The witness search takes its candidate primes from the component
supports and finds the lexicographically least u for each by
branch-and-bound over generators of colon ideals, never sweeping the
exponent box; every witness's colon is then recomputed from the generators,
so the two flavours still check each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .monomials import (
    Monomial,
    MonomialIdeal,
    Prime,
    Ring,
    RingMismatchError,
    _ideal_of,
    _minimal_exps,
    sort_primes,
)


@dataclass(frozen=True)
class IrreducibleComponent:
    """A pure-power ideal (x_i^a, ..., x_j^b); exponent 0 means absent."""

    ring: Ring
    exps: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.exps, tuple):
            object.__setattr__(self, "exps", tuple(self.exps))
        if len(self.exps) != len(self.ring):
            raise ValueError("one exponent per ring variable required")
        if not any(self.exps):
            raise ValueError("a component needs nonempty support")

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(n for n, e in zip(self.ring.names, self.exps) if e)

    @property
    def height(self) -> int:
        return sum(1 for e in self.exps if e)

    def radical(self) -> Prime:
        return Prime(self.ring, self.support)

    def as_ideal(self) -> MonomialIdeal:
        n = len(self.exps)
        # Pure powers of distinct variables are pairwise incomparable.
        return _ideal_of(
            self.ring,
            [(0,) * i + (e,) + (0,) * (n - i - 1) for i, e in enumerate(self.exps) if e],
        )

    def __str__(self) -> str:
        parts = []
        for name, e in zip(self.ring.names, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "(" + ", ".join(parts) + ")"


def _contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    # inner ⊆ outer: every pure power of inner must lie in outer.
    return all(0 < o <= e for o, e in zip(outer, inner) if e)


def irreducible_decomposition(ideal: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The unique irredundant irreducible decomposition, sorted by exponents.

    Sequential refinement on exponent vectors (Berge's transversal
    construction, read downstairs as in Miller-Sturmfels ch. 5): the first
    generator's pure powers decompose it, and each further generator g keeps
    every component holding g and refines every other component C into the
    components C + (x_i^{g_i}) for i in the support of g.  A refined
    component that contains another is dropped; a kept one never needs it,
    because each refinement strictly contains its parent and the components
    before the step were pairwise incomparable.  Irreducible monomial ideals
    are meet-prime, so the final antichain is irredundant.
    """
    first, *rest = (g.exps for g in ideal.gens)
    n = len(first)
    comps = [(0,) * i + (e,) + (0,) * (n - i - 1) for i, e in enumerate(first) if e]
    for g in rest:
        support = [(i, e) for i, e in enumerate(g) if e]
        kept: list[tuple[int, ...]] = []
        grown: set[tuple[int, ...]] = set()
        for c in comps:
            if any(0 < c[i] <= e for i, e in support):
                kept.append(c)
            else:
                grown.update(c[:i] + (e,) + c[i + 1 :] for i, e in support)
        comps = kept + [
            c
            for c in grown
            if not any(d != c and _contains(c, d) for d in itertools.chain(kept, grown))
        ]
    return tuple(IrreducibleComponent(ideal.ring, c) for c in sorted(comps))


def inclusion_minimal(primes: Iterable[Prime]) -> tuple[Prime, ...]:
    """The primes that contain no other one of them, sorted."""
    pool = set(primes)
    kept = [
        p
        for p in pool
        if not any(q is not p and set(q.variables) < set(p.variables) for q in pool)
    ]
    return sort_primes(kept)


def minimal_primes(ideal: MonomialIdeal) -> tuple[Prime, ...]:
    """Radicals of the components, minimalized under inclusion, sorted."""
    return inclusion_minimal(c.radical() for c in irreducible_decomposition(ideal))


def associated_primes(ideal: MonomialIdeal) -> frozenset[Prime]:
    """Radicals of all components of the irredundant decomposition."""
    return frozenset(c.radical() for c in irreducible_decomposition(ideal))


def height(ideal: MonomialIdeal) -> int:
    """Smallest number of variables in a minimal prime over the ideal."""
    return min(p.height for p in minimal_primes(ideal))


def is_unmixed_ideal(ideal: MonomialIdeal) -> bool:
    """True when every associated prime has the same height."""
    heights = {p.height for p in associated_primes(ideal)}
    return len(heights) == 1


def _prime_of_colon(
    gen_exps: list[tuple[int, ...]], u_exps: tuple[int, ...], ring: Ring
) -> Prime | None:
    """The prime (I : u) if the colon is prime, else None (or None on unit)."""
    quotients = []
    for g in gen_exps:
        q = tuple(a - b if a > b else 0 for a, b in zip(g, u_exps))
        if not any(q):
            return None  # u in I, colon is the unit ideal
        quotients.append(q)
    singles = set()
    for q in quotients:
        if sum(q) == 1:
            singles.add(q.index(1))
    if not singles:
        return None
    for q in quotients:
        if not any(q[i] for i in singles):
            return None
    return Prime(ring, tuple(ring.names[i] for i in sorted(singles)))


def _least_witness(
    levels: list[list[tuple[int, ...]]], saturation: list[list[tuple[int, int]]]
) -> tuple[int, ...] | None:
    """Lexicographically least lcm of one vector per level outside the saturation.

    Each level lists the generators of one ideal, so an lcm of one vector
    per level generates part of their intersection J; ``saturation`` lists
    the generators of a second ideal as (variable, exponent) pairs.  The
    answer is the least element of J outside that ideal in tuple order, or
    None.  Depth-first branch-and-bound: a level whose ideal already holds
    the partial lcm is passed over, and a partial lcm inside the saturation
    or not below the best found so far is cut, since every completion lies
    above it in both senses.
    """
    best = None

    def search(k: int, u: tuple[int, ...]) -> None:
        nonlocal best
        while k < len(levels) and any(
            all(a <= b for a, b in zip(q, u)) for q in levels[k]
        ):
            k += 1
        if k == len(levels):
            best = u
            return
        for v in sorted({tuple(map(max, u, q)) for q in levels[k]}):
            if best is not None and v >= best:
                break
            if not any(all(v[i] >= e for i, e in s) for s in saturation):
                search(k + 1, v)

    search(0, (0,) * len(levels[0][0]))
    return best


def quotient_associated_prime_witnesses(
    ideal: MonomialIdeal, module: MonomialIdeal | None = None
) -> dict[Prime, Monomial]:
    """Associated primes of module/ideal with one colon witness per prime.

    ``module`` defaults to the whole ring, giving the associated primes of
    the quotient by the ideal.  A prime P is associated exactly when
    P = (ideal : u) for some monomial u in the module, and the witness is
    the lexicographically least such u.  Only the supports of the irreducible
    components can qualify, since Ass(module/ideal) lies in Ass(S/ideal).
    For such a P, (ideal : u) = P holds exactly when u lies in
    J = module ∩ (ideal : x_i) over i in P, and outside the saturation of
    the ideal by the variables off P; the least such u is a minimal
    generator of J, found by :func:`_least_witness`.  Each witness's colon
    is then recomputed from the generators, and a candidate whose witness
    does not give back its prime is left out.
    """
    ring_ = ideal.ring
    if module is not None:
        if module.ring != ring_:
            raise RingMismatchError(f"{ideal} and {module} live in different rings")
        if not module.contains_ideal(ideal):
            raise ValueError("the ideal must sit inside the module")
        module_exps = [g.exps for g in module.gens]
    else:
        module_exps = [(0,) * len(ring_)]
    gen_exps = [g.exps for g in ideal.gens]
    colons: dict[int, list[tuple[int, ...]]] = {}
    found = []
    supports = {
        tuple(i for i, e in enumerate(c.exps) if e)
        for c in irreducible_decomposition(ideal)
    }
    for support in supports:
        for i in support:
            if i not in colons:
                colons[i] = _minimal_exps(
                    g[:i] + (max(g[i] - 1, 0),) + g[i + 1 :] for g in gen_exps
                )
        saturation = [[(i, g[i]) for i in support if g[i]] for g in gen_exps]
        u = _least_witness([module_exps] + [colons[i] for i in support], saturation)
        if u is None:
            continue
        p = _prime_of_colon(gen_exps, u, ring_)
        if p is not None and p.indices() == support:
            found.append((u, p))
    return {p: Monomial(ring_, u) for u, p in sorted(found)}


def quotient_associated_primes(
    ideal: MonomialIdeal, module: MonomialIdeal | None = None
) -> frozenset[Prime]:
    """Associated primes of module/ideal, read off the colon witnesses."""
    return frozenset(quotient_associated_prime_witnesses(ideal, module))
