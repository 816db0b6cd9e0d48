import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polartrees.structure
from polartrees import (
    UNIT_IDEAL,
    ZERO_IDEAL,
    Monomial,
    MonomialIdeal,
    PolarRing,
    Ring,
    RingMismatchError,
    alexander_dual_ideal,
    associated_primes,
    change_ring_ideal,
    check_joint_removal,
    colon,
    coprime_independence_number,
    divides,
    facet_complex,
    facet_ideal,
    gcd,
    height,
    ideal_sum,
    intersect,
    intersect_all,
    irreducible_decomposition,
    lcm,
    localize,
    minimalize,
    nonface_ideal,
    parse_ideal,
    polarize_ideal,
    polarize_ideal_in,
    prime,
    ring,
    squarefree_component,
)
from polartrees.sampling import random_ideal, random_ring

from oracles import (
    contained_by_membership,
    equal_by_membership,
    exponent_ideal,
    lcm_intersection,
)

R2 = ring("x1 x2")
R3 = ring("x1 x2 x3")


def m(template, ambient=R2):
    (gen,) = parse_ideal(template, list(ambient.names)).gens
    return gen


class TestDivides:
    def test_divisor_of_multiple(self):
        assert divides(m("x1"), m("x1*x2"))

    def test_exponent_too_big(self):
        assert not divides(m("x1^2"), m("x1*x2^2"))

    def test_componentwise(self):
        assert divides(m("x1*x2"), m("x1^2*x2^3"))

    def test_exhaustive_small_box(self):
        # oracle: componentwise comparison over a full box of pairs
        from itertools import product

        for a in product(range(3), repeat=2):
            for b in product(range(3), repeat=2):
                ma = R2.monomial(dict(zip(R2.names, a)))
                mb = R2.monomial(dict(zip(R2.names, b)))
                assert divides(ma, mb) == all(x <= y for x, y in zip(a, b))

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            divides(m("x1"), m("x1", R3))


class TestLcmGcd:
    def test_componentwise_max(self):
        assert lcm(m("x1^2"), m("x1*x2")) == m("x1^2*x2")

    def test_one_is_identity(self):
        one = R2.one()
        assert lcm(m("x1^2*x2"), one) == m("x1^2*x2")

    def test_three_variables(self):
        assert lcm(m("x1*x2^3", R3), m("x1^2*x3", R3)) == m("x1^2*x2^3*x3", R3)

    def test_gcd(self):
        assert gcd(m("x1^2*x2"), m("x1*x2^3")) == m("x1*x2")


class TestMinimalize:
    def test_absorbs_multiple(self):
        assert minimalize([m("x1"), m("x1*x2")]) == parse_ideal("x1", ["x1", "x2"])

    def test_already_minimal(self):
        gens = [m("x1^2"), m("x1*x2"), m("x2^3")]
        assert minimalize(gens) == parse_ideal("x1^2, x1*x2, x2^3")

    def test_pairwise_divisibility(self):
        gens = [m("x1*x2", R3), m("x2*x3", R3), m("x1*x2*x3", R3)]
        assert minimalize(gens) == parse_ideal("x1*x2, x2*x3", ["x1", "x2", "x3"])

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            minimalize([R2.one(), m("x1")])

    def test_empty_is_zero(self):
        assert minimalize([], R2) is ZERO_IDEAL


class TestSumIntersect:
    def test_sum_of_principals(self):
        a = parse_ideal("x1", ["x1", "x2"])
        b = parse_ideal("x2", ["x1", "x2"])
        assert ideal_sum(a, b) == parse_ideal("x1, x2")

    def test_sum_idempotent(self):
        a = parse_ideal("x1^2, x1*x2")
        assert ideal_sum(a, a) == a
        assert a + a == a

    def test_sum_keeps_incomparable_generators(self):
        a = parse_ideal("x1^2", ["x1", "x2"])
        b = parse_ideal("x1*x2", ["x1", "x2"])
        assert a + b == parse_ideal("x1^2, x1*x2")

    def test_intersection_of_coprime_principals(self):
        a = parse_ideal("x1", ["x1", "x2"])
        b = parse_ideal("x2", ["x1", "x2"])
        assert intersect(a, b) == parse_ideal("x1*x2")

    def test_intersection_splits_the_running_example(self):
        a = parse_ideal("x1, x2^3")
        b = parse_ideal("x1^2, x2", ["x1", "x2"])
        assert intersect(a, b) == parse_ideal("x1^2, x1*x2, x2^3")

    def test_intersection_idempotent(self):
        a = parse_ideal("x1^2, x1*x2, x2^3")
        assert (a & a) == a

    def test_containment_properties_random(self):
        rng = random.Random(1301)
        extra = random.Random(1302)
        for _ in range(60):
            ambient = random_ring(rng)
            a = random_ideal(rng, ambient, max_generators=4)
            b = random_ideal(rng, ambient, max_generators=4)
            meet = intersect(a, b)
            join = ideal_sum(a, b)
            assert contained_by_membership(meet, a)
            assert contained_by_membership(meet, b)
            assert contained_by_membership(a, join)
            assert contained_by_membership(b, join)
            assert equal_by_membership(meet, meet)
            more = [random_ideal(extra, ambient, max_generators=4)
                    for _ in range(extra.randint(0, 2))]
            ideals = [a, b] + more
            assert intersect_all(ideals).gens == lcm_intersection(ideals).gens


class TestLocalize:
    def test_divides_out_other_variables(self):
        ideal = parse_ideal("x1^3, x1^2*x2")
        assert localize(ideal, prime(ideal.ring, ["x1"])) == parse_ideal("x1^2")

    def test_full_prime_is_identity(self):
        ideal = parse_ideal("x1^2, x1*x2, x2^3")
        assert localize(ideal, prime(ideal.ring, ideal.ring.names)) == ideal

    def test_shared_variable_survives(self):
        # both generators restrict to x2, so the image is the proper ideal (x2)
        ideal = parse_ideal("x1*x2, x2*x3")
        image = localize(ideal, prime(ideal.ring, ["x2"]))
        assert image is not UNIT_IDEAL
        assert [str(g) for g in image.gens] == ["x2"]

    def test_generator_outside_the_prime_collapses(self):
        ideal = parse_ideal("x1*x2, x2*x3")
        assert localize(ideal, prime(ideal.ring, ["x1"])) is UNIT_IDEAL


class TestColon:
    def test_by_a_generator_factor(self):
        ideal = parse_ideal("x1^2, x1*x2")
        assert colon(ideal, m("x1")) == parse_ideal("x1, x2")

    def test_by_one(self):
        ideal = parse_ideal("x1^2, x1*x2")
        assert colon(ideal, ideal.ring.one()) == ideal

    def test_principal(self):
        ideal = parse_ideal("x1*x2", ["x1", "x2"])
        assert colon(ideal, m("x1")) == parse_ideal("x2", ["x1", "x2"])

    def test_unit_when_u_in_ideal(self):
        ideal = parse_ideal("x1^2, x1*x2")
        assert colon(ideal, m("x1^2*x2")) is UNIT_IDEAL


class TestHeightAndCoprimeBound:
    def test_worked_example(self):
        assert height(parse_ideal("x1^3, x1^2*x2*x3, x3^2, x2^3*x3")) == 2

    def test_minimal_prime_of_smaller_height_wins(self):
        assert height(parse_ideal("x1^2, x1*x2^2")) == 1

    def test_principal(self):
        assert height(parse_ideal("x1^2*x2^3")) == 1

    def test_coprime_bound_worked_example(self):
        ideal = parse_ideal("x1^3, x1^2*x2*x3, x3^2, x2^3*x3")
        assert coprime_independence_number(ideal) == 2

    def test_coprime_bound_single_generator(self):
        assert coprime_independence_number(parse_ideal("x1^4")) == 1

    def test_coprime_bound_all_coprime(self):
        assert coprime_independence_number(parse_ideal("x1, x2, x3")) == 3


class TestEquality:
    def test_reflexive(self):
        a = parse_ideal("x1^2, x1*x2, x2^3")
        assert a == parse_ideal("x1^2, x1*x2, x2^3")

    def test_equals_intersection_of_its_components(self):
        a = parse_ideal("x1^2, x1*x2, x2^3")
        left = parse_ideal("x1, x2^3")
        right = parse_ideal("x1^2, x2", ["x1", "x2"])
        assert intersect(left, right) == a

    def test_distinct_powers_differ(self):
        assert parse_ideal("x1", ["x1"]) != parse_ideal("x1^2", ["x1"])


class TestConstruction:
    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            MonomialIdeal(R2, (m("x1"), m("x1*x2")))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MonomialIdeal(R2, ())

    def test_membership(self):
        ideal = parse_ideal("x1^2, x1*x2")
        assert m("x1^2*x2^2") in ideal
        assert m("x2^4") not in ideal

    def test_membership_checks_the_ring(self):
        with pytest.raises(RingMismatchError):
            m("x1", R3) in parse_ideal("x1^2, x1*x2")


def trusted_results(ideal: MonomialIdeal, other: MonomialIdeal) -> list:
    """One result of every library path that builds an ideal from exponent
    tuples without the public constructor's checks."""
    polar = polarize_ideal(ideal)
    complex_ = facet_complex(polar)
    out = [
        minimalize(ideal.gens + tuple(g * g for g in ideal.gens)),
        intersect_all([ideal, other, ideal]),
        polar,
        polarize_ideal_in(ideal, PolarRing.spanning(ideal, other)),
        facet_ideal(complex_),
        nonface_ideal(complex_),
        alexander_dual_ideal(polar),
        change_ring_ideal(ideal, Ring(ideal.ring.names[::-1] + ("y",))),
    ]
    out += [p.as_ideal() for p in associated_primes(ideal)]
    out += [c.as_ideal() for c in irreducible_decomposition(ideal)]
    out += [squarefree_component(polar, d) for d in range(1, min(len(polar.ring), 3) + 1)]
    # The ideals without one joint generator reach only ``height``.
    with mock.patch.object(
        polartrees.structure, "height", wraps=polartrees.structure.height
    ) as spy:
        check_joint_removal(ideal)
    out += [call.args[0] for call in spy.call_args_list]
    return [r for r in out if isinstance(r, MonomialIdeal)]


def assert_as_if_checked(r: MonomialIdeal) -> None:
    """The public constructors accept the result and keep its generators."""
    rebuilt = MonomialIdeal(r.ring, tuple(Monomial(r.ring, g.exps) for g in r.gens))
    assert rebuilt == r and rebuilt.gens == r.gens, r


class TestTrustedConstruction:
    def test_seeded_results_pass_the_public_checks(self):
        rng = random.Random(2909)
        for _ in range(150):
            ambient = random_ring(rng)
            ideal = random_ideal(rng, ambient, max_generators=5)
            other = random_ideal(rng, ambient, max_generators=5)
            for r in trusted_results(ideal, other):
                assert_as_if_checked(r)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any),
                    min_size=1,
                    max_size=4,
                ),
                min_size=2,
                max_size=4,
            )
        )
    )
    def test_property_intersections_and_results(self, families):
        ideals = [exponent_ideal(vectors) for vectors in families]
        assert intersect_all(ideals).gens == lcm_intersection(ideals).gens
        for r in trusted_results(ideals[0], ideals[1]):
            assert_as_if_checked(r)
