"""Executable structure theory for ideals whose polarization is a forest.

Everything here is a check or a construction built from the lower layers:
height strata and the filtration they induce, the coprime bound on height,
joint removal, localization into forests, and the Cohen-Macaulay verdicts
that the tree machinery makes decidable.  Checks return report values; the
caller decides what a failed assertion means (the CLI exits nonzero).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .decomposition import (
    IrreducibleComponent,
    associated_primes,
    height,
    irreducible_decomposition,
    is_unmixed_ideal,
    quotient_associated_primes,
)
from .monomials import (
    ZERO_IDEAL,
    Monomial,
    MonomialIdeal,
    Prime,
    ZeroIdeal,
    _ideal_of,
    _support_masks,
    change_ring_ideal,
    coprime_independence_number,
    intersect_all,
    localize,
    sort_primes,
)
from .polarization import PolarRing, polarize_ideal, polarize_prime
from .simplicial import (
    MAX_FOREST_FACETS,
    ForestCheck,
    _ideal_of_masks,
    facet_complex,
    is_connected,
    is_forest,
    is_leaf,
    is_tree,
    joints,
)


@dataclass(frozen=True)
class HeightStrata:
    """Irreducible components grouped by the height of their radical."""

    ideal: MonomialIdeal
    strata: tuple[tuple[int, tuple[IrreducibleComponent, ...]], ...]
    height: int
    max_height: int

    def heights(self) -> tuple[int, ...]:
        return tuple(h for h, _ in self.strata)

    def components_up_to(self, bound: int) -> tuple[IrreducibleComponent, ...]:
        out: list[IrreducibleComponent] = []
        for h, comps in self.strata:
            if h <= bound:
                out.extend(comps)
        return tuple(out)


def height_strata(ideal: MonomialIdeal) -> HeightStrata:
    components = irreducible_decomposition(ideal)
    by_height: dict[int, list[IrreducibleComponent]] = {}
    for c in components:
        by_height.setdefault(c.height, []).append(c)
    strata = tuple(
        (h, tuple(sorted(by_height[h], key=lambda c: c.exps)))
        for h in sorted(by_height)
    )
    return HeightStrata(
        ideal=ideal,
        strata=strata,
        height=height(ideal),
        max_height=max(by_height),
    )


@dataclass(frozen=True)
class Filtration:
    """Ascending chain of ideals cut out by component-height bounds.

    ``chain[0]`` is the ideal itself; each later term intersects only the
    components up to a smaller height bound, consecutive equal terms
    collapsed, so inclusions are strict.
    """

    chain: tuple[MonomialIdeal, ...]
    strata: HeightStrata


def scm_filtration(ideal: MonomialIdeal) -> Filtration:
    strata = height_strata(ideal)
    chain: list[MonomialIdeal] = []
    for i in range(strata.max_height - strata.height + 1):
        bound = strata.max_height - i
        comps = strata.components_up_to(bound)
        term = intersect_all(c.as_ideal() for c in comps)
        if not chain or term != chain[-1]:
            chain.append(term)
    return Filtration(chain=tuple(chain), strata=strata)


@dataclass(frozen=True)
class FiltrationStep:
    index: int
    height_bound: int
    quotient_expected: tuple[Prime, ...]
    quotient_actual: tuple[Prime, ...]
    submodule_expected: tuple[Prime, ...]
    submodule_actual: tuple[Prime, ...]
    consistency_ok: bool

    @property
    def quotient_ok(self) -> bool:
        return self.quotient_expected == self.quotient_actual

    @property
    def submodule_ok(self) -> bool:
        return self.submodule_expected == self.submodule_actual

    @property
    def passed(self) -> bool:
        return self.quotient_ok and self.submodule_ok and self.consistency_ok


@dataclass(frozen=True)
class FiltrationReport:
    """Associated primes along the filtration versus the height strata.

    For chain term i with height bound b: the primes of the quotient ring by
    the term must be exactly the associated primes of the ideal of height at
    most b, and the primes of the next term seen as a module over the ideal
    must be exactly those of height at least b.  Each term is also recomputed
    from a fresh decomposition as a consistency check.
    """

    ideal: MonomialIdeal
    polarization_is_forest: bool
    filtration: Filtration
    steps: tuple[FiltrationStep, ...]

    @property
    def passed(self) -> bool:
        return all(step.passed for step in self.steps)


def check_filtration_strata(
    ideal: MonomialIdeal, max_facets: int = MAX_FOREST_FACETS
) -> FiltrationReport:
    forest = bool(is_forest(facet_complex(polarize_ideal(ideal)), max_facets))
    filtration = scm_filtration(ideal)
    strata = filtration.strata
    chain = filtration.chain
    heights = strata.heights()
    c = len(heights)
    assert len(chain) == c, "every distinct component height yields one chain term"

    ass_all = associated_primes(ideal)
    fresh = irreducible_decomposition(ideal)

    steps = []
    for i in range(c):
        bound = heights[c - 1 - i]
        quotient_expected = sort_primes(p for p in ass_all if p.height <= bound)
        quotient_actual = sort_primes(associated_primes(chain[i]))
        submodule_expected = sort_primes(p for p in ass_all if p.height >= bound)
        module = chain[i + 1] if i + 1 < c else None
        submodule_actual = sort_primes(quotient_associated_primes(ideal, module))
        recomputed = intersect_all(
            comp.as_ideal() for comp in fresh if comp.height <= bound
        )
        steps.append(
            FiltrationStep(
                index=i,
                height_bound=bound,
                quotient_expected=quotient_expected,
                quotient_actual=quotient_actual,
                submodule_expected=submodule_expected,
                submodule_actual=submodule_actual,
                consistency_ok=recomputed == chain[i],
            )
        )

    return FiltrationReport(
        ideal=ideal,
        polarization_is_forest=forest,
        filtration=filtration,
        steps=tuple(steps),
    )


@dataclass(frozen=True)
class KonigReport:
    """Height against the coprime-generator bound, asserted only for trees."""

    ideal: MonomialIdeal
    height: int
    coprime_bound: int
    polarization_is_tree: bool
    verdict: str  # "pass" | "fail" | "inapplicable"

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


def check_konig(
    ideal: MonomialIdeal, max_facets: int = MAX_FOREST_FACETS
) -> KonigReport:
    tree = is_tree(facet_complex(polarize_ideal(ideal)), max_facets)
    h = height(ideal)
    b = coprime_independence_number(ideal)
    if not tree:
        verdict = "inapplicable"
    elif h == b:
        verdict = "pass"
    else:
        verdict = "fail"
    return KonigReport(
        ideal=ideal,
        height=h,
        coprime_bound=b,
        polarization_is_tree=tree,
        verdict=verdict,
    )


@dataclass(frozen=True)
class JointDrop:
    generator: Monomial
    height_before: int
    height_after: int

    @property
    def ok(self) -> bool:
        return self.height_before == self.height_after


@dataclass(frozen=True)
class JointRemovalReport:
    """Dropping a generator whose polarization is a joint keeps the height."""

    ideal: MonomialIdeal
    applicable: bool
    drops: tuple[JointDrop, ...]

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "inapplicable"
        return "pass" if all(d.ok for d in self.drops) else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


def joint_generators(ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """Generators whose polarized facet is a joint of some leaf."""
    polar = polarize_ideal(ideal)
    complex_ = facet_complex(polar)
    by_facet = {
        frozenset(pg.support): g for pg, g in zip(polar.gens, ideal.gens)
    }
    joint_facets: set[frozenset[str]] = set()
    for facet in complex_.facets:
        if is_leaf(complex_, facet):
            joint_facets.update(joints(complex_, facet))
    found = [by_facet[f] for f in joint_facets]
    found.sort(key=lambda m: m.exps, reverse=True)
    return tuple(found)


def check_joint_removal(ideal: MonomialIdeal) -> JointRemovalReport:
    culprits = joint_generators(ideal)
    if not culprits:
        return JointRemovalReport(ideal=ideal, applicable=False, drops=())
    h = height(ideal)
    drops = []
    for g in culprits:
        # A subset of a minimal generating set; a joint is one facet of at
        # least two, so some generator is left.
        smaller = _ideal_of(ideal.ring, [m.exps for m in ideal.gens if m != g])
        drops.append(
            JointDrop(generator=g, height_before=h, height_after=height(smaller))
        )
    return JointRemovalReport(ideal=ideal, applicable=True, drops=tuple(drops))


@dataclass(frozen=True)
class LocalizationReport:
    """Localizing a tree-polarizing ideal must polarize to a forest.

    Also records that polarizing does not commute with localizing: the
    polarization of the localized ideal generally differs from the localized
    polarization, so both generator lists are kept side by side.
    """

    ideal: MonomialIdeal
    prime: Prime
    tree_hypothesis: bool
    localized: MonomialIdeal
    forest: ForestCheck
    polar_of_localization: tuple[str, ...]
    localization_of_polar: tuple[str, ...]

    @property
    def substitution_commutes(self) -> bool:
        return self.polar_of_localization == self.localization_of_polar

    @property
    def passed(self) -> bool:
        return self.forest.is_forest


def check_localization(
    ideal: MonomialIdeal, primes: Iterable[Prime], max_facets: int = MAX_FOREST_FACETS
) -> tuple[LocalizationReport, ...]:
    """One report per prime, in the order given.

    The ideal is polarized and its tree hypothesis checked once for all the
    primes; every prime must contain the ideal.
    """
    primes = tuple(primes)
    for at in primes:
        if not at.contains_ideal(ideal):
            raise ValueError(f"{at} does not contain {ideal}")
    polar = polarize_ideal(ideal)
    ring = polar.ring
    assert isinstance(ring, PolarRing)
    tree = is_tree(facet_complex(polar), max_facets)

    reports = []
    for at in primes:
        localized = localize(ideal, at)
        assert isinstance(localized, MonomialIdeal)
        # Re-home into the full base ring so both polarizations below share
        # one slot namespace and the generator lists are comparable verbatim.
        localized_polar = polarize_ideal(change_ring_ideal(localized, ideal.ring))
        forest = is_forest(facet_complex(localized_polar), max_facets)

        polar_localized = localize(polar, polarize_prime(at, ring))
        assert isinstance(polar_localized, MonomialIdeal)
        reports.append(
            LocalizationReport(
                ideal=ideal,
                prime=at,
                tree_hypothesis=tree,
                localized=localized,
                forest=forest,
                polar_of_localization=tuple(str(g) for g in localized_polar.gens),
                localization_of_polar=tuple(str(g) for g in polar_localized.gens),
            )
        )
    return tuple(reports)


class CMVerdict(Enum):
    COHEN_MACAULAY = "cohen-macaulay"
    NOT_COHEN_MACAULAY = "not-cohen-macaulay"
    INAPPLICABLE = "inapplicable"


def cm_verdict(
    ideal: MonomialIdeal, max_facets: int = MAX_FOREST_FACETS
) -> CMVerdict:
    """For tree-polarizing ideals, Cohen-Macaulay is the same as unmixed.

    Outside the tree hypothesis nothing is decided here.
    """
    if not is_tree(facet_complex(polarize_ideal(ideal)), max_facets):
        return CMVerdict.INAPPLICABLE
    if is_unmixed_ideal(ideal):
        return CMVerdict.COHEN_MACAULAY
    return CMVerdict.NOT_COHEN_MACAULAY


class ScmVerdict(Enum):
    SEQUENTIALLY_CM = "sequentially-cohen-macaulay"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ScmReport:
    verdict: ScmVerdict
    polarization_is_forest: bool
    polarization_is_connected: bool
    note: str | None


def scm_verdict(
    ideal: MonomialIdeal, max_facets: int = MAX_FOREST_FACETS
) -> ScmReport:
    """Forest-polarizing ideals are sequentially Cohen-Macaulay.

    A disconnected forest reduces componentwise to trees; that extension is
    flagged in the note.  Beyond forests no decision procedure is in scope,
    so the verdict falls back to unknown.
    """
    complex_ = facet_complex(polarize_ideal(ideal))
    forest = bool(is_forest(complex_, max_facets))
    connected = is_connected(complex_)
    if forest:
        note = None if connected else "forest extension"
        return ScmReport(ScmVerdict.SEQUENTIALLY_CM, forest, connected, note)
    return ScmReport(ScmVerdict.UNKNOWN, forest, connected, None)


def squarefree_component(
    ideal: MonomialIdeal, degree: int
) -> MonomialIdeal | ZeroIdeal:
    """The ideal generated by all square-free members of one degree.

    Enumerates the degree-k square-free monomials of the ring and keeps the
    ones lying in the ideal; they form an antichain, hence a minimal
    generating set, or the zero sentinel when none qualifies.
    """
    if not ideal.is_squarefree:
        raise ValueError("square-free components need a square-free ideal")
    if degree < 1:
        raise ValueError("the degree must be positive")
    supports = _support_masks(ideal)
    masks = []
    for combo in itertools.combinations(range(len(ideal.ring)), degree):
        mask = sum(1 << i for i in combo)
        if any(s & mask == s for s in supports):
            masks.append(mask)
    if not masks:
        return ZERO_IDEAL
    # Distinct square-free monomials of one degree are pairwise incomparable.
    return _ideal_of_masks(ideal.ring, masks)
