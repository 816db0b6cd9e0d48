"""Irreducible decomposition, minimal and associated primes, height.

The decomposition refines components one generator at a time on exponent
vectors: a component that misses the next generator splits into one
component per variable of that generator, and refinements containing
another component are dropped.  This is the minimal vertex cover
construction on the facets of the polarization, read back through
x[i,j] -> x_i^j, and it yields the unique irredundant irreducible
decomposition.

Associated primes come in two independent flavours: radicals of the
irreducible components, and colon witnesses (primes of the form (I : u) for
a monomial u).  Tests play the two against each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .monomials import (
    Monomial,
    MonomialIdeal,
    Prime,
    Ring,
    RingMismatchError,
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
        gens = []
        for i, e in enumerate(self.exps):
            if e:
                exps = [0] * len(self.ring)
                exps[i] = e
                gens.append(Monomial(self.ring, tuple(exps)))
        return MonomialIdeal(self.ring, tuple(gens))

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


def minimal_primes(ideal: MonomialIdeal) -> tuple[Prime, ...]:
    """Radicals of the components, minimalized under inclusion, sorted."""
    radicals = {c.radical() for c in irreducible_decomposition(ideal)}
    kept = [
        p
        for p in radicals
        if not any(q is not p and set(q.variables) < set(p.variables) for q in radicals)
    ]
    return sort_primes(kept)


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


def quotient_associated_prime_witnesses(
    ideal: MonomialIdeal, module: MonomialIdeal | None = None
) -> dict[Prime, Monomial]:
    """Associated primes of module/ideal with one colon witness per prime.

    ``module`` defaults to the whole ring, giving the associated primes of
    the quotient by the ideal.  A prime p is associated exactly when
    p = (ideal : u) for some monomial u in the module; it suffices to search
    monomials dividing the lcm of all generators involved, because capping
    exponents there changes neither membership in the module nor the colon.
    """
    ring_ = ideal.ring
    if module is not None:
        if module.ring != ring_:
            raise RingMismatchError(f"{ideal} and {module} live in different rings")
        if not module.contains_ideal(ideal):
            raise ValueError("the ideal must sit inside the module")
        bound_gens = ideal.gens + module.gens
    else:
        bound_gens = ideal.gens
    bound = tuple(
        max(g.exps[i] for g in bound_gens) for i in range(len(ring_))
    )
    gen_exps = [g.exps for g in ideal.gens]
    module_exps = None if module is None else [g.exps for g in module.gens]
    witnesses: dict[Prime, Monomial] = {}
    for u in itertools.product(*(range(e + 1) for e in bound)):
        if module_exps is not None and not any(
            all(a <= b for a, b in zip(g, u)) for g in module_exps
        ):
            continue
        p = _prime_of_colon(gen_exps, u, ring_)
        if p is not None and p not in witnesses:
            witnesses[p] = Monomial(ring_, u)
    return witnesses


def quotient_associated_primes(
    ideal: MonomialIdeal, module: MonomialIdeal | None = None
) -> frozenset[Prime]:
    """Associated primes of module/ideal via exhaustive colon witnesses."""
    return frozenset(quotient_associated_prime_witnesses(ideal, module))
