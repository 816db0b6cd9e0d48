"""Simplicial complexes given by facet lists, and the square-free dictionary.

A complex is held by its vertex list and its facets (inclusion-maximal
faces); every square-free monomial ideal is the facet ideal of exactly one
complex and vice versa.  Minimal vertex covers, minimal non-faces and the
Alexander dual are one problem, minimal transversals of a family of vertex
sets, solved by one routine on bitmasks that only ever holds minimal sets:
the covers are the transversals of the facets, the non-faces those of the
facet complements, and the dual ideal is generated by the covers.  Forest
detection removes good leaves in polynomial time and searches for a
leafless witness only inside the core that is left when the complex is not
a forest.

Two degenerate complexes are told apart: the void complex (no facets at all,
``is_void``) and the complex whose only facet is the empty set.  Removing
the last facet produces the void complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .monomials import (
    UNIT_IDEAL,
    ZERO_IDEAL,
    MonomialIdeal,
    Ring,
    UnitIdeal,
    ZeroIdeal,
    _ideal_of,
    _max_disjoint,
    _support_masks,
)

MAX_FOREST_FACETS = 20


@dataclass(frozen=True)
class SimplicialComplex:
    """Facets over an ordered vertex list; none contains another.

    The constructor normalizes: duplicate facets collapse, faces contained
    in a bigger facet are dropped, and facets are sorted by their vertex
    index tuples.  Vertices in no facet stay in the vertex list (isolated).
    """

    vertices: tuple[str, ...]
    facets: tuple[frozenset[str], ...]

    def __post_init__(self):
        vertices = tuple(self.vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError(f"duplicate vertices: {vertices}")
        position = {v: i for i, v in enumerate(vertices)}
        cleaned = {frozenset(f) for f in self.facets}
        for f in cleaned:
            stray = f - position.keys()
            if stray:
                raise ValueError(f"facet {sorted(f)} uses unknown vertices {sorted(stray)}")
        maximal = [
            f for f in cleaned if not any(f < g for g in cleaned)
        ]
        maximal.sort(key=lambda f: tuple(sorted(position[v] for v in f)))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "facets", tuple(maximal))

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def isolated_vertices(self) -> frozenset[str]:
        used = set().union(*self.facets) if self.facets else set()
        return frozenset(v for v in self.vertices if v not in used)

    def facet_count(self) -> int:
        return len(self.facets)

    def _index(self, v: str) -> int:
        return self.vertices.index(v)

    def _masks(self) -> list[int]:
        masks = self.__dict__.get("_mask_cache")
        if masks is None:
            position = {v: i for i, v in enumerate(self.vertices)}
            masks = [
                sum(1 << position[v] for v in facet) for facet in self.facets
            ]
            self.__dict__["_mask_cache"] = masks
        return masks

    def facet_string(self, facet: Iterable[str]) -> str:
        """A set of vertices as ``{a,b,...}``, in vertex-list order."""
        position = {v: i for i, v in enumerate(self.vertices)}
        return "{" + ",".join(sorted(facet, key=position.get)) + "}"

    def facet_strings(self) -> tuple[str, ...]:
        return tuple(self.facet_string(f) for f in self.facets)

    def __str__(self) -> str:
        if self.is_void:
            return "<void>"
        return "<" + ", ".join(self.facet_strings()) + ">"


def complex_on(vertices: Iterable[str], facets: Iterable[Iterable[str]]) -> SimplicialComplex:
    return SimplicialComplex(tuple(vertices), tuple(frozenset(f) for f in facets))


def facet_complex(ideal: MonomialIdeal) -> SimplicialComplex:
    """One facet per square-free generator, supported on its variables."""
    if not ideal.is_squarefree:
        raise ValueError("facet complexes need a square-free ideal")
    return SimplicialComplex(
        ideal.ring.names, tuple(frozenset(g.support) for g in ideal.gens)
    )


def facet_ideal(complex_: SimplicialComplex) -> MonomialIdeal | UnitIdeal | ZeroIdeal:
    """One square-free generator per facet, over the vertex ring.

    The void complex gives the zero ideal; a lone empty facet would generate
    the constant, so the unit sentinel comes back.
    """
    if complex_.is_void:
        return ZERO_IDEAL
    if complex_.facets == (frozenset(),):
        return UNIT_IDEAL
    # The facets are distinct, nonempty and pairwise incomparable.
    return _ideal_of_masks(Ring(complex_.vertices), complex_._masks())


def _ideal_of_masks(ring: Ring, masks: Iterable[int]) -> MonomialIdeal:
    """The square-free ideal on an antichain of nonempty vertex bitmasks."""
    n = len(ring)
    return _ideal_of(ring, [tuple(m >> i & 1 for i in range(n)) for m in masks])


def _minimal_transversals(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal bitmasks meeting every one of ``masks``.

    Berge's sequential construction: from the empty set, each mask keeps
    the sets that meet it and grows each set c that misses it into c | bit
    for every bit of the mask.  A grown set is dropped when it contains a
    kept one.  Grown sets never contain each other: c1 | b1 >= c2 | b2
    forces b2 = b1, as c1 misses the mask, and then c2 = c1.  No masks
    leave the empty set; an empty mask leaves nothing.
    """
    found = [0]
    for m in masks:
        kept = [c for c in found if c & m]
        grown = []
        for c in found:
            if c & m:
                continue
            rest = m
            while rest:
                bit = rest & -rest
                rest ^= bit
                g = c | bit
                if not any(k & g == k for k in kept):
                    grown.append(g)
        found = kept + grown
    return found


def _minimal_nonface_masks(complex_: SimplicialComplex) -> list[int]:
    """A set is a non-face when it meets the complement of every facet."""
    full = (1 << len(complex_.vertices)) - 1
    return _minimal_transversals(full & ~m for m in complex_._masks())


def _mask_to_set(complex_: SimplicialComplex, mask: int) -> frozenset[str]:
    return frozenset(
        v for i, v in enumerate(complex_.vertices) if mask >> i & 1
    )


def nonface_ideal(complex_: SimplicialComplex) -> MonomialIdeal | ZeroIdeal | UnitIdeal:
    """Generated by the minimal vertex sets that are not faces.

    A set is a face exactly when some facet contains it.  The full simplex
    has no non-faces (zero sentinel); the void complex has the empty set as
    a non-face, which generates the unit.
    """
    if complex_.is_void:
        return UNIT_IDEAL
    nonfaces = _minimal_nonface_masks(complex_)
    if not nonfaces:
        return ZERO_IDEAL
    # Minimal transversals; the empty set is a face, so none is empty.
    return _ideal_of_masks(Ring(complex_.vertices), nonfaces)


def nonface_complex(ideal: MonomialIdeal) -> SimplicialComplex:
    """Faces are the vertex sets whose product avoids the ideal.

    Equivalently the independent sets of the generator supports, so the
    facets are the complements of the minimal vertex covers.
    """
    if not ideal.is_squarefree:
        raise ValueError("non-face complexes need a square-free ideal")
    hypergraph = facet_complex(ideal)
    all_vertices = set(ideal.ring.names)
    facets = tuple(
        frozenset(all_vertices - cover) for cover in minimal_vertex_covers(hypergraph)
    )
    return SimplicialComplex(ideal.ring.names, facets)


def alexander_dual_complex(complex_: SimplicialComplex) -> SimplicialComplex:
    """Faces are the complements of non-faces; an involution on complexes.

    The facets are complements of the minimal non-faces.  The full simplex
    and the void complex swap with each other.
    """
    vertices = complex_.vertices
    if complex_.is_void:
        return SimplicialComplex(vertices, (frozenset(vertices),))
    nonfaces = _minimal_nonface_masks(complex_)
    if not nonfaces:
        return SimplicialComplex(vertices, ())
    full = frozenset(vertices)
    facets = tuple(full - _mask_to_set(complex_, mask) for mask in nonfaces)
    return SimplicialComplex(vertices, facets)


def alexander_dual_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """Generated by the products of the minimal vertex covers of the
    generator supports (Miller and Sturmfels, ch. 1 and 5).

    Generators are nonconstant, so every cover is nonempty and the dual is
    again a proper nonzero ideal.
    """
    if not ideal.is_squarefree:
        raise ValueError("Alexander duality needs a square-free ideal")
    # Minimal transversals of nonempty supports: an antichain of nonempty sets.
    covers = _minimal_transversals(_support_masks(ideal))
    return _ideal_of_masks(Ring(ideal.ring.names), covers)


def minimal_vertex_covers(complex_: SimplicialComplex) -> tuple[frozenset[str], ...]:
    """All inclusion-minimal vertex sets meeting every facet.

    Sorted by size and then by vertex indices, so the output is stable.
    """
    if complex_.is_void:
        raise ValueError("the void complex has no covering problem")
    if frozenset() in complex_.facets:
        raise ValueError("an empty facet cannot be covered")
    transversals = _minimal_transversals(complex_._masks())
    covers = [_mask_to_set(complex_, c) for c in transversals]
    position = {v: i for i, v in enumerate(complex_.vertices)}
    covers.sort(key=lambda s: (len(s), tuple(sorted(position[v] for v in s))))
    return tuple(covers)


def covering_number(complex_: SimplicialComplex) -> int:
    """Size of a smallest vertex cover."""
    return min(len(c) for c in minimal_vertex_covers(complex_))


def is_unmixed(complex_: SimplicialComplex) -> bool:
    """True when all minimal vertex covers have the same size."""
    sizes = {len(c) for c in minimal_vertex_covers(complex_)}
    return len(sizes) == 1


def independence_number(complex_: SimplicialComplex) -> int:
    """Largest number of pairwise disjoint facets."""
    if complex_.is_void:
        raise ValueError("the void complex has no facets")
    return _max_disjoint(complex_._masks())


def _require_facet(complex_: SimplicialComplex, facet: Iterable[str]) -> frozenset[str]:
    f = frozenset(facet)
    if f not in complex_.facets:
        raise ValueError(f"{sorted(f)} is not a facet of {complex_}")
    return f


def remove_facet(
    complex_: SimplicialComplex, facet: Iterable[str]
) -> SimplicialComplex:
    """Drop one facet (one generator of the facet ideal).

    Vertices only that facet used become isolated but stay in the vertex
    list.  Removing the last facet yields the void complex.
    """
    f = _require_facet(complex_, facet)
    rest = tuple(g for g in complex_.facets if g != f)
    return SimplicialComplex(complex_.vertices, rest)


def _shared_vertices(complex_: SimplicialComplex, facet: frozenset[str]) -> frozenset[str]:
    others = [g for g in complex_.facets if g != facet]
    if not others:
        return frozenset()
    return facet & frozenset().union(*others)


def is_leaf(complex_: SimplicialComplex, facet: Iterable[str]) -> bool:
    """A facet is a leaf when it is alone, or everything it shares with the
    rest of the complex sits inside one single other facet."""
    f = _require_facet(complex_, facet)
    others = [g for g in complex_.facets if g != f]
    if not others:
        return True
    shared = _shared_vertices(complex_, f)
    return any(shared <= g for g in others)


def joints(
    complex_: SimplicialComplex, facet: Iterable[str]
) -> tuple[frozenset[str], ...]:
    """The facets witnessing that a leaf is a leaf, meeting it nontrivially."""
    f = _require_facet(complex_, facet)
    others = [g for g in complex_.facets if g != f]
    shared = _shared_vertices(complex_, f)
    witnesses = [g for g in others if shared <= g and f & g]
    position = {v: i for i, v in enumerate(complex_.vertices)}
    witnesses.sort(key=lambda g: tuple(sorted(position[v] for v in g)))
    return tuple(witnesses)


def free_vertices(
    complex_: SimplicialComplex, facet: Iterable[str]
) -> frozenset[str]:
    """Vertices of the facet belonging to no other facet."""
    f = _require_facet(complex_, facet)
    return f - _shared_vertices(complex_, f)


def is_connected(complex_: SimplicialComplex) -> bool:
    """Connectivity of the facet-intersection graph; vacuous for <= 1 facet."""
    masks = complex_._masks()
    if len(masks) <= 1:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for b in range(len(masks)):
            if b not in seen and masks[a] & masks[b]:
                seen.add(b)
                frontier.append(b)
    return len(seen) == len(masks)


@dataclass(frozen=True)
class ForestCheck:
    """Outcome of the forest test.

    On failure ``witness`` is a smallest leafless subcollection, as a tuple
    of facets in canonical order.
    """

    is_forest: bool
    witness: tuple[frozenset[str], ...] | None

    def __bool__(self) -> bool:
        return self.is_forest


def _subcollection_has_leaf(masks: list[int], members: tuple[int, ...]) -> bool:
    if len(members) == 1:
        return True
    for k in members:
        others = 0
        for j in members:
            if j != k:
                others |= masks[j]
        shared = masks[k] & others
        if shared == 0:
            return True
        if any(j != k and shared & ~masks[j] == 0 for j in members):
            return True
    return False


def _is_good_leaf(masks: list[int], k: int, members: list[int]) -> bool:
    """Whether facet k meets the other members in a chain of intersections."""
    meets = sorted(
        (masks[k] & masks[j] for j in members if j != k), key=int.bit_count
    )
    return all(a & ~b == 0 for a, b in zip(meets, meets[1:]))


def _leafless_core(masks: list[int]) -> list[int]:
    """Facet indices left once good leaves are removed until none is left.

    A good leaf of a collection stays a good leaf of every subcollection
    holding it, so several can go in one pass, and what remains does not
    depend on the order of removal.
    """
    core = list(range(len(masks)))
    removed = True
    while removed:
        removed = False
        for k in list(core):
            if _is_good_leaf(masks, k, core):
                core.remove(k)
                removed = True
    return core


def is_forest(
    complex_: SimplicialComplex, max_facets: int = MAX_FOREST_FACETS
) -> ForestCheck:
    """Check that every nonempty subcollection of facets has a leaf.

    A complex is a forest exactly when its facets can be removed one good
    leaf at a time, a good leaf being a facet whose intersections with the
    other facets form a chain (Herzog, Hibi, Trung, Zheng 2008).  Removal
    runs in polynomial time; an empty leafless core means a forest.
    Otherwise every leafless subcollection lies in the core, since a
    removed good leaf is a leaf of any subcollection still around it, so
    the witness comes from a smallest-first sweep over the core alone and
    is a minimal leafless family, the first in ``combinations`` order.
    That sweep is exponential in the core size, which is why ``max_facets``
    still caps the facet count.
    """
    q = complex_.facet_count()
    if q > max_facets:
        raise ValueError(
            f"forest witness search is exponential; "
            f"{q} facets exceed the cap of {max_facets}"
        )
    masks = complex_._masks()
    core = _leafless_core(masks)
    for size in range(2, len(core) + 1):
        for members in itertools.combinations(core, size):
            if not _subcollection_has_leaf(masks, members):
                witness = tuple(complex_.facets[k] for k in members)
                return ForestCheck(False, witness)
    return ForestCheck(True, None)


def is_tree(complex_: SimplicialComplex, max_facets: int = MAX_FOREST_FACETS) -> bool:
    """A tree is a connected forest."""
    return is_connected(complex_) and bool(is_forest(complex_, max_facets))
