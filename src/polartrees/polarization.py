"""Polarization: the square-free shadow of a monomial ideal.

Each power x^e of a base variable x spreads across e fresh slot variables,
written ``x[i,j]`` for slot j of the i-th base variable (1-based).  The
:class:`PolarRing` remembers the base ring and the slot counts, so the
substitution back (every slot of a variable collapses onto the variable) is
always available.

Besides the two substitutions, this module carries the closed-form prime
decompositions of polarized pure-power ideals and powers of variable primes,
the prime transfer maps in both directions, and a report that confronts the
associated primes of an ideal with those of its polarization.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .decomposition import (
    IrreducibleComponent,
    associated_primes,
    irreducible_decomposition,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    Prime,
    Ring,
    RingMismatchError,
    _ideal_of,
    minimalize,
    sort_primes,
)

_POLAR_NAME = re.compile(r"^x\[(\d+),(\d+)\]$")


def polar_variable_name(base_index: int, slot: int) -> str:
    """Text form of the slot variable: 1-based base index, 1-based slot."""
    return f"x[{base_index},{slot}]"


def parse_polar_name(name: str) -> tuple[int, int] | None:
    m = _POLAR_NAME.match(name)
    if m is None:
        return None
    return int(m.group(1)), int(m.group(2))


@dataclass(frozen=True)
class PolarRing(Ring):
    """A ring of slot variables over a base ring, ordered by (base, slot).

    ``slots[i]`` is the number of slots of the i-th base variable; a count of
    zero means the variable does not occur in whatever was polarized.
    """

    base: Ring
    slots: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.slots, tuple):
            object.__setattr__(self, "slots", tuple(self.slots))
        if len(self.slots) != len(self.base):
            raise ValueError("one slot count per base variable required")
        if any(s < 0 for s in self.slots):
            raise ValueError("slot counts must be nonnegative")
        expected = _polar_names(self.slots)
        if self.names != expected:
            raise ValueError("polar variable names must follow the slot layout")

    @classmethod
    def from_slots(cls, base: Ring, slots: tuple[int, ...] | list[int]) -> "PolarRing":
        slots = tuple(slots)
        return cls(_polar_names(slots), base, slots)

    @classmethod
    def spanning(cls, *ideals: MonomialIdeal) -> "PolarRing":
        """The smallest polar ring covering every exponent of the ideals."""
        if not ideals:
            raise ValueError("need at least one ideal")
        base = ideals[0].ring
        for other in ideals[1:]:
            if other.ring != base:
                raise RingMismatchError("ideals live in different base rings")
        slots = [0] * len(base)
        for ideal in ideals:
            for i, e in enumerate(ideal.max_exponents()):
                slots[i] = max(slots[i], e)
        return cls.from_slots(base, tuple(slots))

    @property
    def _structure(self) -> dict[str, tuple[int, int]]:
        table = self.__dict__.get("_struct")
        if table is None:
            table = {}
            for i, count in enumerate(self.slots):
                for j in range(1, count + 1):
                    table[polar_variable_name(i + 1, j)] = (i, j)
            self.__dict__["_struct"] = table
        return table

    def structure_of(self, name: str) -> tuple[int, int]:
        """(0-based base index, 1-based slot) of a slot variable."""
        try:
            return self._structure[name]
        except KeyError:
            raise KeyError(f"{name!r} is not a variable of {self}") from None

    def slot_variable(self, base_index: int, slot: int) -> str:
        if not (0 <= base_index < len(self.base)):
            raise IndexError(f"no base variable with index {base_index}")
        if not (1 <= slot <= self.slots[base_index]):
            raise ValueError(
                f"{self.base.names[base_index]} has {self.slots[base_index]} slots, "
                f"requested slot {slot}"
            )
        return polar_variable_name(base_index + 1, slot)


def _polar_names(slots: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(
        polar_variable_name(i + 1, j)
        for i, count in enumerate(slots)
        for j in range(1, count + 1)
    )


def polarize_monomial(m: Monomial, ring: PolarRing) -> Monomial:
    """Spread each power x^e over the slot variables x[i,1]...x[i,e]."""
    return Monomial(ring, _polar_exps(m, ring))


def _polar_exps(m: Monomial, ring: PolarRing) -> tuple[int, ...]:
    # The polar ring lists the slots of each base variable in order, so x^e
    # becomes e ones followed by a zero for every unused slot.
    if m.ring != ring.base:
        raise RingMismatchError(f"{m} is not a monomial over {ring.base}")
    exps: list[int] = []
    for i, (e, count) in enumerate(zip(m.exps, ring.slots)):
        if e > count:
            raise ValueError(
                f"exponent {e} of {m.ring.names[i]} exceeds the {count} "
                "available slots"
            )
        exps += [1] * e + [0] * (count - e)
    return tuple(exps)


def polarize_ideal_in(ideal: MonomialIdeal, ring: PolarRing) -> MonomialIdeal:
    """Polarize inside a given (possibly larger) polar ring."""
    # Polarization preserves and reflects divisibility (Fröberg), so the
    # images of minimal generators are minimal and nonconstant again.
    return _ideal_of(ring, [_polar_exps(g, ring) for g in ideal.gens])


def polarize_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """The square-free polarization, over its own spanning :class:`PolarRing`.

    The returned ideal's ``ring`` attribute is the :class:`PolarRing`; slot
    counts are the per-variable maximal exponents of the generators.
    Minimality of the generating set survives polarization.
    """
    return polarize_ideal_in(ideal, PolarRing.spanning(ideal))


def polarization_sequence(ring: PolarRing) -> tuple[tuple[str, str], ...]:
    """All pairs (x[i,1], x[i,j]) with 1 < j, in (base, slot) order.

    Identifying the two members of each pair undoes the polarization; the
    pair list is exactly the difference sequence that cuts the polar ring
    back down to the base ring.
    """
    pairs = []
    for i, count in enumerate(ring.slots):
        for j in range(2, count + 1):
            pairs.append(
                (polar_variable_name(i + 1, 1), polar_variable_name(i + 1, j))
            )
    return tuple(pairs)


def depolarize_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """Substitute every slot variable by its base variable and reminimalize.

    Inverse to :func:`polarize_ideal` on polarizations; on an arbitrary
    square-free ideal over a polar ring, each generator's exponent of a base
    variable is the number of its slots present in the generator.
    """
    ring = ideal.ring
    if not isinstance(ring, PolarRing):
        raise TypeError("depolarization needs an ideal over a PolarRing")
    if not ideal.is_squarefree:
        raise ValueError("only square-free ideals can be depolarized")
    base = ring.base
    images = []
    for g in ideal.gens:
        exps = [0] * len(base)
        for name, e in zip(ring.names, g.exps):
            if e:
                exps[ring.structure_of(name)[0]] += 1
        images.append(Monomial(base, tuple(exps)))
    result = minimalize(images, base)
    assert isinstance(result, MonomialIdeal)
    return result


def infer_polar_ring(ring: Ring) -> PolarRing:
    """Reconstruct a PolarRing from bare ``x[i,j]`` names (text input)."""
    if isinstance(ring, PolarRing):
        return ring
    seen: dict[int, int] = {}
    for name in ring.names:
        parsed = parse_polar_name(name)
        if parsed is None:
            raise ValueError(f"{name!r} is not a polar variable name")
        i, j = parsed
        if i < 1 or j < 1:
            raise ValueError(f"polar indices in {name!r} must be positive")
        seen[i] = max(seen.get(i, 0), j)
    n = max(seen)
    base = Ring(tuple(f"x{i}" for i in range(1, n + 1)))
    slots = tuple(seen.get(i, 0) for i in range(1, n + 1))
    return PolarRing.from_slots(base, slots)


def polar_decomposition_of_component(
    component: IrreducibleComponent, ring: PolarRing | None = None
) -> tuple[Prime, ...]:
    """Prime decomposition of the polarized pure-power ideal.

    One prime per choice of a slot for each supported variable: all
    (x[i1,c1], ..., x[ir,cr]) with 1 <= cj <= exponent.  Their intersection
    equals the polarization of the component.
    """
    if ring is None:
        ring = PolarRing.from_slots(component.ring, component.exps)
    supported = [(i, e) for i, e in enumerate(component.exps) if e]
    primes = []
    for combo in itertools.product(*(range(1, e + 1) for _, e in supported)):
        names = tuple(
            ring.slot_variable(i, c) for (i, _), c in zip(supported, combo)
        )
        primes.append(Prime(ring, names))
    return sort_primes(primes)


def polar_decomposition_of_power(
    base: Ring, variables: tuple[str, ...] | list[str], power: int
) -> tuple[Prime, ...]:
    """Irredundant prime decomposition of the polarized m-th power.

    For the m-th power of the prime on the given variables, the polarization
    is the intersection of all (x[i1,c1], ..., x[ir,cr]) with every
    1 <= cj <= m and c1 + ... + cr <= m + r - 1.
    """
    variables = tuple(variables)
    if power < 1:
        raise ValueError("the power must be positive")
    if len(set(variables)) != len(variables):
        raise ValueError("variables must be distinct")
    indices = [base.index(v) for v in variables]
    slots = [0] * len(base)
    for i in indices:
        slots[i] = power
    ring = PolarRing.from_slots(base, tuple(slots))
    r = len(variables)
    primes = []
    for combo in itertools.product(range(1, power + 1), repeat=r):
        if sum(combo) <= power + r - 1:
            names = tuple(ring.slot_variable(i, c) for i, c in zip(indices, combo))
            primes.append(Prime(ring, names))
    return sort_primes(primes)


def polar_decomposition(ideal: MonomialIdeal) -> tuple[Prime, ...]:
    """Irredundant prime decomposition of the polarization of any ideal.

    Collects the slot-choice primes of every irreducible component inside
    the spanning polar ring and drops the inclusion-redundant ones.  A slot
    choice of component C strictly contains a slot choice of component D
    exactly when supp D is a proper subset of supp C and each slot it picks
    on supp D is at most D's exponent there, so each candidate is tested
    against the components rather than against the other candidates.  For
    a square-free target an inclusion-minimal subset whose intersection is
    the ideal is automatically irredundant; tests verify irredundancy by
    dropping primes.
    """
    ring = PolarRing.spanning(ideal)
    components = [c.exps for c in irreducible_decomposition(ideal)]
    supports = [frozenset(i for i, e in enumerate(c) if e) for c in components]
    kept = set()  # components on one support can share a slot choice
    for c, support in zip(components, supports):
        axes = sorted(support)
        lower = [
            [(i, d[i]) for i in s] for d, s in zip(components, supports) if s < support
        ]
        for combo in itertools.product(*(range(1, c[i] + 1) for i in axes)):
            slot = dict(zip(axes, combo))
            if not any(all(slot[i] <= e for i, e in d) for d in lower):
                kept.add(Prime(ring, tuple(map(ring.slot_variable, axes, combo))))
    return sort_primes(kept)


def polarize_prime(p: Prime, ring: PolarRing) -> Prime:
    """Send each base variable to its first slot."""
    if p.ring != ring.base:
        raise RingMismatchError(f"{p} is not a prime of {ring.base}")
    names = []
    for name in p.variables:
        i = ring.base.index(name)
        if ring.slots[i] < 1:
            raise ValueError(f"{name} has no slots in {ring}")
        names.append(ring.slot_variable(i, 1))
    return Prime(ring, tuple(names))


def depolarize_prime(q: Prime) -> Prime:
    """Send each slot variable to its base variable.

    Rejects primes holding two slots of one base variable, since those do
    not correspond to a variable prime downstairs.
    """
    ring = q.ring
    if not isinstance(ring, PolarRing):
        raise TypeError("expected a prime over a PolarRing")
    bases: dict[int, str] = {}
    for name in q.variables:
        i, _ = ring.structure_of(name)
        if i in bases:
            raise ValueError(
                f"{q} holds two slots of {ring.base.names[i]}; no base prime matches"
            )
        bases[i] = ring.base.names[i]
    return Prime(ring.base, tuple(bases.values()))


@dataclass(frozen=True)
class CorrespondenceReport:
    """Associated primes of an ideal versus those of its polarization.

    Three verdicts.  (a) Projection: collapsing slots maps the polar
    associated primes onto exactly the base associated primes.  (b)
    Downward saturation: lowering any slot of an associated prime keeps it
    over the polarization; the associated primes sitting fully below each
    prime (same supports, slots componentwise smaller) are listed.  Note a
    lowered prime need not stay associated itself: it may strictly contain
    a smaller associated prime, which is exactly what ``below`` exposes.
    (c) Counts of both prime sets per height stratum, for the record.
    """

    ideal: MonomialIdeal
    base_primes: tuple[Prime, ...]
    polar_primes: tuple[Prime, ...]
    projected: tuple[Prime, ...]
    projection_ok: bool
    saturation_failures: tuple[tuple[Prime, Prime], ...]
    below: tuple[tuple[Prime, tuple[Prime, ...]], ...]
    stratum_counts: tuple[tuple[int, int, int], ...]

    @property
    def saturation_ok(self) -> bool:
        return not self.saturation_failures

    @property
    def passed(self) -> bool:
        return self.projection_ok and self.saturation_ok


def _slot_vector(ring: PolarRing, q: Prime) -> dict[int, int]:
    return dict(ring.structure_of(name) for name in q.variables)


def associated_prime_correspondence(ideal: MonomialIdeal) -> CorrespondenceReport:
    base_primes = sort_primes(associated_primes(ideal))
    polar = polarize_ideal(ideal)
    ring = polar.ring
    assert isinstance(ring, PolarRing)
    polar_primes = sort_primes(associated_primes(polar))

    projected = sort_primes({depolarize_prime(q) for q in polar_primes})
    projection_ok = projected == base_primes

    # Saturation gate: one slot decrement at a time; by induction every
    # lowered prime is reached, and each must still contain the polarization.
    failures = []
    for q in polar_primes:
        structured = [ring.structure_of(name) for name in q.variables]
        for k, (i, c) in enumerate(structured):
            if c == 1:
                continue
            names = list(q.variables)
            names[k] = ring.slot_variable(i, c - 1)
            lowered = Prime(ring, tuple(names))
            if not lowered.contains_ideal(polar):
                failures.append((q, lowered))

    # Listing: which associated primes sit strictly below each one.
    vectors = {q: _slot_vector(ring, q) for q in polar_primes}
    below = []
    for q in polar_primes:
        vq = vectors[q]
        under = [
            other
            for other in polar_primes
            if other != q
            and vectors[other].keys() == vq.keys()
            and all(vectors[other][i] <= vq[i] for i in vq)
        ]
        if under:
            below.append((q, tuple(under)))

    heights = sorted(
        {p.height for p in base_primes} | {q.height for q in polar_primes}
    )
    counts = tuple(
        (
            h,
            sum(1 for p in base_primes if p.height == h),
            sum(1 for q in polar_primes if q.height == h),
        )
        for h in heights
    )
    return CorrespondenceReport(
        ideal=ideal,
        base_primes=base_primes,
        polar_primes=polar_primes,
        projected=projected,
        projection_ok=projection_ok,
        saturation_failures=tuple(failures),
        below=tuple(below),
        stratum_counts=counts,
    )
