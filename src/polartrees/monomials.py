"""Exact arithmetic for monomials and monomial ideals.

A :class:`Ring` is an ordered list of variable names, a :class:`Monomial` is
an exponent vector over a ring, and a :class:`MonomialIdeal` is a minimal set
of monomial generators.  Everything is immutable and hashable, every operation
is a pure function of its inputs, and all arithmetic is exact (plain ints), so
values can be shared freely across threads.

The unit ideal and the zero ideal are deliberately not representable as
:class:`MonomialIdeal` values.  Operations that can collapse to either return
the module-level sentinels ``UNIT_IDEAL`` / ``ZERO_IDEAL`` instead, so callers
must handle the degenerate cases explicitly.

Ideal equality is structural: two ideals are ``==`` exactly when they live in
the same ring and have the same minimal generating set.

Input is validated once, at the boundary: the public :class:`Monomial` and
:class:`MonomialIdeal` constructors and :func:`minimalize` check everything
(exponents, ring, constants, minimality).  Results the library derives from
already-valid ideals, which are minimal by construction, are built from
their exponent tuples by the private :func:`_ideal_of` without checking
them again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class RingMismatchError(ValueError):
    """Two operands belong to different ambient rings."""


class _Signal:
    _label = "SIGNAL"
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return self._label


class UnitIdeal(_Signal):
    """The whole ring, e.g. the result of localizing away every generator."""

    _label = "UNIT_IDEAL"


class ZeroIdeal(_Signal):
    """The ideal with no generators, e.g. a non-face ideal with no non-faces."""

    _label = "ZERO_IDEAL"


UNIT_IDEAL = UnitIdeal()
ZERO_IDEAL = ZeroIdeal()


@dataclass(frozen=True)
class Ring:
    """An ordered list of variable names (the ambient polynomial ring)."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.names, tuple):
            object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("a ring needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")

    @property
    def _positions(self) -> dict[str, int]:
        pos = self.__dict__.get("_pos")
        if pos is None:
            pos = {name: i for i, name in enumerate(self.names)}
            self.__dict__["_pos"] = pos
        return pos

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"{name!r} is not a variable of {self}") from None

    def var(self, name: str) -> "Monomial":
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return Monomial(self, tuple(exps))

    def gens(self) -> tuple["Monomial", ...]:
        return tuple(self.var(name) for name in self.names)

    def one(self) -> "Monomial":
        return Monomial(self, (0,) * len(self.names))

    def monomial(self, exponents: Mapping[str, int]) -> "Monomial":
        exps = [0] * len(self.names)
        for name, e in exponents.items():
            exps[self.index(name)] = e
        return Monomial(self, tuple(exps))

    def subring(self, names: Iterable[str]) -> "Ring":
        """The ring on a subset of the variables, in the original order."""
        wanted = set(names)
        missing = wanted - set(self.names)
        if missing:
            raise KeyError(f"not variables of {self}: {sorted(missing)}")
        return Ring(tuple(n for n in self.names if n in wanted))

    def __str__(self) -> str:
        return "k[" + ",".join(self.names) + "]"


def ring(spec: str | Iterable[str]) -> Ring:
    """Build a ring from ``"x,y,z"`` (commas or whitespace) or a name list."""
    if isinstance(spec, str):
        names = [n for n in spec.replace(",", " ").split() if n]
    else:
        names = list(spec)
    return Ring(tuple(names))


@dataclass(frozen=True)
class Monomial:
    """A power product, stored as one exponent per ring variable."""

    ring: Ring
    exps: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.exps, tuple):
            object.__setattr__(self, "exps", tuple(self.exps))
        if len(self.exps) != len(self.ring):
            raise ValueError(
                f"expected {len(self.ring)} exponents, got {len(self.exps)}"
            )
        if any(e < 0 or not isinstance(e, int) for e in self.exps):
            raise ValueError(f"exponents must be nonnegative integers: {self.exps}")

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def is_constant(self) -> bool:
        return all(e == 0 for e in self.exps)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(n for n, e in zip(self.ring.names, self.exps) if e)

    def exponent(self, name: str) -> int:
        return self.exps[self.ring.index(name)]

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatchError(f"{self} and {other} live in different rings")
        return Monomial(self.ring, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __pow__(self, n: int) -> "Monomial":
        if n < 0:
            raise ValueError("negative power of a monomial")
        return Monomial(self.ring, tuple(e * n for e in self.exps))

    def __str__(self) -> str:
        if self.is_constant:
            return "1"
        parts = []
        for name, e in zip(self.ring.names, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


def _check_same_ring(a, b) -> None:
    if a.ring != b.ring:
        raise RingMismatchError(f"{a} and {b} live in different rings")


def divides(m: Monomial, n: Monomial) -> bool:
    """True when every exponent of ``m`` is at most the one in ``n``."""
    _check_same_ring(m, n)
    return all(a <= b for a, b in zip(m.exps, n.exps))


def lcm(m: Monomial, n: Monomial) -> Monomial:
    _check_same_ring(m, n)
    return Monomial(m.ring, tuple(max(a, b) for a, b in zip(m.exps, n.exps)))


def gcd(m: Monomial, n: Monomial) -> Monomial:
    _check_same_ring(m, n)
    return Monomial(m.ring, tuple(min(a, b) for a, b in zip(m.exps, n.exps)))


def _gen_sort_key(m: Monomial) -> tuple[int, ...]:
    return m.exps


@dataclass(frozen=True)
class MonomialIdeal:
    """A proper nonzero monomial ideal, held by its minimal generating set.

    The constructor insists on a minimal set (no generator divides another,
    none is constant); use :func:`minimalize` to build from arbitrary
    monomials.  Generators are kept in a canonical order, descending
    lexicographic on exponent vectors, so equal ideals compare equal.  The
    library's own results skip this O(n^2) check: they come from
    :func:`_ideal_of`, whose callers hold minimal generators by construction.
    """

    ring: Ring
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        gens = tuple(dict.fromkeys(self.gens))
        if not gens:
            raise ValueError("no generators; use ZERO_IDEAL for the zero ideal")
        for g in gens:
            if g.ring != self.ring:
                raise RingMismatchError(f"generator {g} is not in {self.ring}")
            if g.is_constant:
                raise ValueError("constant generator; the unit ideal is unsupported")
        for a, b in itertools.combinations(gens, 2):
            if divides(a, b) or divides(b, a):
                raise ValueError(f"generating set is not minimal: {a} vs {b}")
        object.__setattr__(
            self, "gens", tuple(sorted(gens, key=_gen_sort_key, reverse=True))
        )

    def __contains__(self, m: Monomial) -> bool:
        _check_same_ring(m, self)
        exps = m.exps
        return any(all(a <= b for a, b in zip(g.exps, exps)) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(g in self for g in other.gens)

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    def max_exponents(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the generators."""
        return tuple(max(g.exps[i] for g in self.gens) for i in range(len(self.ring)))

    def generator_lcm(self) -> Monomial:
        return Monomial(self.ring, self.max_exponents())

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return ideal_sum(self, other)

    def __and__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return intersect(self, other)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def minimalize(
    gens: Iterable[Monomial], ambient: Ring | None = None
) -> MonomialIdeal | ZeroIdeal:
    """Minimal generating set of the ideal generated by ``gens``.

    Drops every monomial divisible by another one.  Rejects constant
    generators (the unit ideal is unsupported).  An empty input denotes the
    zero ideal, so ``ZERO_IDEAL`` comes back; in that case ``ambient`` must
    be supplied.
    """
    pool = list(gens)
    if ambient is None:
        if not pool:
            raise ValueError("cannot infer the ring of an empty generating set")
        ambient = pool[0].ring
    for g in pool:
        if g.ring != ambient:
            raise RingMismatchError(f"generator {g} is not in {ambient}")
        if g.is_constant:
            raise ValueError("constant generator; the unit ideal is unsupported")
    kept = _minimal_exps(g.exps for g in pool)
    if not kept:
        return ZERO_IDEAL
    # An antichain of distinct vectors, nonzero as constants were rejected.
    return _ideal_of(ambient, kept)


def _ideal_of(ambient: Ring, vectors: Iterable[tuple[int, ...]]) -> MonomialIdeal:
    """The ideal on exponent vectors that are already a minimal generating set.

    Trusted internal constructor: the vectors must be distinct, nonzero,
    pairwise incomparable tuples of nonnegative ints, one entry per variable
    of ``ambient``, and at least one.  None of that is checked.  They are
    sorted into the canonical order, so the result equals the public
    constructor's on the same generators.
    """
    gens = []
    for v in sorted(vectors, reverse=True):
        # Fill the frozen dataclasses' fields directly, skipping validation.
        m = object.__new__(Monomial)
        fields = m.__dict__
        fields["ring"] = ambient
        fields["exps"] = v
        gens.append(m)
    ideal = object.__new__(MonomialIdeal)
    ideal.__dict__.update(ring=ambient, gens=tuple(gens))
    return ideal


def _minimal_exps(vectors: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The exponent vectors that no other one divides, by ascending degree."""
    kept: list[tuple[int, ...]] = []
    for v in sorted(set(vectors), key=lambda e: (sum(e), e)):
        if not any(all(a <= b for a, b in zip(k, v)) for k in kept):
            kept.append(v)
    return kept


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The ideal generated by both generating sets, reminimalized."""
    _check_same_ring(a, b)
    result = minimalize(a.gens + b.gens, a.ring)
    assert isinstance(result, MonomialIdeal)
    return result


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection, generated by the pairwise lcms of the generators."""
    return intersect_all((a, b))


def intersect_all(ideals: Iterable[MonomialIdeal]) -> MonomialIdeal:
    """Intersection of the ideals, folded on exponent vectors.

    Each step intersects the running generators with the next ideal J, whose
    generators are the lcms lcm(g, h).  A running generator g that J already
    contains is itself such an lcm, and every other lcm(g, h) is its
    multiple, so g is kept as it is.  No lcm(g', h) of another generator g'
    divides a kept g, since g' would divide g, so only the lcms of the
    other generators are minimalized and then filtered against the kept ones.
    """
    it = iter(ideals)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("empty intersection is the unit ideal; not representable")
    acc = [g.exps for g in first.gens]
    for j in it:
        _check_same_ring(first, j)
        others = [h.exps for h in j.gens]
        kept: list[tuple[int, ...]] = []
        lcms = []
        for g in acc:
            if any(all(a <= b for a, b in zip(h, g)) for h in others):
                kept.append(g)
            else:
                lcms.extend(tuple(map(max, g, h)) for h in others)
        acc = kept + [
            v
            for v in _minimal_exps(lcms)
            if not any(all(a <= b for a, b in zip(k, v)) for k in kept)
        ]
    # Minimal at every step; lcms of nonconstant generators are nonconstant.
    return _ideal_of(first.ring, acc)


@dataclass(frozen=True)
class Prime:
    """A monomial prime: the ideal generated by a subset of the variables."""

    ring: Ring
    variables: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.variables, tuple):
            object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("a monomial prime needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"repeated variables: {self.variables}")
        ordered = tuple(sorted(self.variables, key=self.ring.index))
        object.__setattr__(self, "variables", ordered)

    @property
    def height(self) -> int:
        return len(self.variables)

    def indices(self) -> tuple[int, ...]:
        return tuple(self.ring.index(n) for n in self.variables)

    def as_ideal(self) -> MonomialIdeal:
        n = len(self.ring)
        # Distinct variables: pairwise coprime unit vectors.
        return _ideal_of(
            self.ring, [(0,) * i + (1,) + (0,) * (n - i - 1) for i in self.indices()]
        )

    def contains_monomial(self, m: Monomial) -> bool:
        _check_same_ring(m, self)
        return any(m.exps[self.ring.index(n)] > 0 for n in self.variables)

    def contains_ideal(self, ideal: MonomialIdeal) -> bool:
        return all(self.contains_monomial(g) for g in ideal.gens)

    def __le__(self, other: "Prime") -> bool:
        return set(self.variables) <= set(other.variables)

    def __str__(self) -> str:
        return "(" + ", ".join(self.variables) + ")"


def prime(ambient: Ring, variables: Iterable[str]) -> Prime:
    return Prime(ambient, tuple(variables))


def sort_primes(primes: Iterable[Prime]) -> tuple[Prime, ...]:
    """Canonical order: by the index tuple of the variables."""
    return tuple(sorted(primes, key=lambda p: p.indices()))


def localize(ideal: MonomialIdeal, at: Prime) -> MonomialIdeal | UnitIdeal:
    """Image of the ideal in the localization at a monomial prime.

    Variables outside the prime become units, so they are deleted from every
    generator; the result lives in the ring on the prime's variables.  A
    generator supported entirely outside the prime turns into a unit, which
    collapses the whole ideal: that case returns ``UNIT_IDEAL``.
    """
    _check_same_ring(ideal, at)
    sub = ideal.ring.subring(at.variables)
    keep = [ideal.ring.index(n) for n in sub.names]
    images = []
    for g in ideal.gens:
        exps = tuple(g.exps[i] for i in keep)
        if not any(exps):
            return UNIT_IDEAL
        images.append(Monomial(sub, exps))
    result = minimalize(images, sub)
    assert isinstance(result, MonomialIdeal)
    return result


def colon(ideal: MonomialIdeal, u: Monomial) -> MonomialIdeal | UnitIdeal:
    """The colon ideal of the ideal by a single monomial.

    Generated by g / gcd(g, u) over the generators g.  When ``u`` lies in the
    ideal some quotient is constant and the colon is the whole ring, reported
    as ``UNIT_IDEAL``.
    """
    _check_same_ring(ideal, u)
    quotients = []
    for g in ideal.gens:
        exps = tuple(max(a - b, 0) for a, b in zip(g.exps, u.exps))
        if not any(exps):
            return UNIT_IDEAL
        quotients.append(Monomial(ideal.ring, exps))
    result = minimalize(quotients, ideal.ring)
    assert isinstance(result, MonomialIdeal)
    return result


def coprime_independence_number(ideal: MonomialIdeal) -> int:
    """Largest number of pairwise coprime minimal generators."""
    return _max_disjoint(_support_masks(ideal))


def _support_masks(ideal: MonomialIdeal) -> list[int]:
    """One bitmask of variable positions per generator, in generator order."""
    return [sum(1 << i for i, e in enumerate(g.exps) if e) for g in ideal.gens]


def _max_disjoint(masks: list[int]) -> int:
    """Largest number of pairwise disjoint bitmasks, by depth-first search."""
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


def change_ring(m: Monomial, new_ring: Ring) -> Monomial:
    """Re-express a monomial in another ring containing the same names."""
    exps = [0] * len(new_ring)
    for name, e in zip(m.ring.names, m.exps):
        if e:
            exps[new_ring.index(name)] = e
    return Monomial(new_ring, tuple(exps))


def change_ring_ideal(ideal: MonomialIdeal, new_ring: Ring) -> MonomialIdeal:
    # Moving exponents to other positions keeps divisibility both ways, so
    # the minimal generators stay minimal.
    return _ideal_of(new_ring, [change_ring(g, new_ring).exps for g in ideal.gens])
