"""Simplicial complexes given by facet lists, and the square-free dictionary.

A complex is held by its vertex list and its facets (inclusion-maximal
faces); every square-free monomial ideal is the facet ideal of exactly one
complex and vice versa.  Vertex covers, non-faces and the Alexander dual
run by honest exhaustion over small instances, so the answers double as
oracles for the algebraic side.  Forest detection removes good leaves in
polynomial time and searches for a leafless witness only inside the core
that is left when the complex is not a forest.

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
    Monomial,
    MonomialIdeal,
    Ring,
    UnitIdeal,
    ZeroIdeal,
)

MAX_FOREST_FACETS = 20
MAX_NONFACE_VERTICES = 22


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

    def _sorted_facet(self, facet: frozenset[str]) -> tuple[str, ...]:
        position = {v: i for i, v in enumerate(self.vertices)}
        return tuple(sorted(facet, key=position.get))

    def facet_strings(self) -> tuple[str, ...]:
        return tuple("{" + ",".join(self._sorted_facet(f)) + "}" for f in self.facets)

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
    ring = Ring(complex_.vertices)
    gens = tuple(
        Monomial(ring, tuple(1 if v in facet else 0 for v in ring.names))
        for facet in complex_.facets
    )
    return MonomialIdeal(ring, gens)


def _facet_masks(complex_: SimplicialComplex) -> tuple[list[int], int]:
    masks = complex_._masks()
    return masks, len(complex_.vertices)


def _minimal_nonface_masks(complex_: SimplicialComplex) -> list[int]:
    masks, n = _facet_masks(complex_)
    if n > MAX_NONFACE_VERTICES:
        raise ValueError(f"non-face enumeration capped at {MAX_NONFACE_VERTICES} vertices")
    found: list[int] = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if any(prev & mask == prev for prev in found):
                continue
            if not any(mask & ~fm == 0 for fm in masks):
                found.append(mask)
    return found


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
    ring = Ring(complex_.vertices)
    gens = []
    for mask in _minimal_nonface_masks(complex_):
        gens.append(
            Monomial(ring, tuple(1 if mask >> i & 1 else 0 for i in range(len(ring))))
        )
    if not gens:
        return ZERO_IDEAL
    return MonomialIdeal(ring, tuple(gens))


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


def alexander_dual_ideal(
    ideal: MonomialIdeal,
) -> MonomialIdeal | ZeroIdeal | UnitIdeal:
    """Non-face ideal of the dual of the non-face complex."""
    if not ideal.is_squarefree:
        raise ValueError("Alexander duality needs a square-free ideal")
    return nonface_ideal(alexander_dual_complex(nonface_complex(ideal)))


def minimal_vertex_covers(complex_: SimplicialComplex) -> tuple[frozenset[str], ...]:
    """All inclusion-minimal vertex sets meeting every facet, exhaustively.

    Sorted by size and then by vertex indices, so the output is stable.
    """
    if complex_.is_void:
        raise ValueError("the void complex has no covering problem")
    if frozenset() in complex_.facets:
        raise ValueError("an empty facet cannot be covered")
    masks, n = _facet_masks(complex_)
    found: set[int] = set()

    def extend(cover: int, start_facet: int) -> None:
        for k in range(start_facet, len(masks)):
            if masks[k] & cover == 0:
                remaining = masks[k]
                i = 0
                while remaining:
                    if remaining & 1:
                        extend(cover | (1 << i), k + 1)
                    remaining >>= 1
                    i += 1
                return
        found.add(cover)

    extend(0, 0)
    minimal = [
        c for c in found if not any(other != c and other & c == other for other in found)
    ]
    covers = [_mask_to_set(complex_, c) for c in minimal]
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
    """Largest number of pairwise disjoint facets, by exhaustion."""
    if complex_.is_void:
        raise ValueError("the void complex has no facets")
    masks, _ = _facet_masks(complex_)
    best = 0

    def grow(start: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        for k in range(start, len(masks)):
            if count + (len(masks) - k) <= best:
                break
            if masks[k] & used:
                continue
            grow(k + 1, used | masks[k], count + 1)

    grow(0, 0, 0)
    return best


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
    masks, _ = _facet_masks(complex_)
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
    masks, _ = _facet_masks(complex_)
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
