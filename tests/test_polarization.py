import random

import pytest

from polartrees import (
    IrreducibleComponent,
    MonomialIdeal,
    PolarRing,
    Prime,
    associated_prime_correspondence,
    associated_primes,
    depolarize_ideal,
    depolarize_prime,
    divides,
    height,
    ideal_sum,
    intersect,
    intersect_all,
    irreducible_decomposition,
    parse_ideal,
    polar_decomposition,
    polar_decomposition_of_component,
    polar_decomposition_of_power,
    polarization_sequence,
    polarize_ideal,
    polarize_ideal_in,
    polarize_monomial,
    polarize_prime,
    prime,
    ring,
    sort_primes,
)
from polartrees.sampling import random_ideal, random_monomial, random_ring

from oracles import (
    pairwise_polar_decomposition,
    power_ideal,
    primes_cut_out_ideal,
    seeded_ideal,
    sequence_substitution,
)


def strs(items):
    return [str(x) for x in items]


class TestPolarizeMonomial:
    def test_square_spreads_over_two_slots(self):
        ideal = parse_ideal("x1^2, x2", ["x1", "x2"])
        polar_ring = PolarRing.spanning(ideal)
        image = polarize_monomial(ideal.ring.var("x1") ** 2, polar_ring)
        assert str(image) == "x[1,1]*x[1,2]"

    def test_squarefree_lands_in_slot_one(self):
        ideal = parse_ideal("x1*x2")
        polar_ring = PolarRing.spanning(ideal)
        image = polarize_monomial(ideal.ring.var("x1") * ideal.ring.var("x2"), polar_ring)
        assert str(image) == "x[1,1]*x[2,1]"

    def test_cube(self):
        ideal = parse_ideal("x1, x2^3", ["x1", "x2"])
        polar_ring = PolarRing.spanning(ideal)
        image = polarize_monomial(ideal.ring.var("x2") ** 3, polar_ring)
        assert str(image) == "x[2,1]*x[2,2]*x[2,3]"

    def test_not_enough_slots(self):
        ideal = parse_ideal("x1*x2")
        polar_ring = PolarRing.spanning(ideal)
        with pytest.raises(ValueError):
            polarize_monomial(ideal.ring.var("x1") ** 2, polar_ring)


class TestPolarizeIdeal:
    def test_running_example(self):
        polar = polarize_ideal(parse_ideal("x1^2, x1*x2, x2^3"))
        assert strs(polar.gens) == [
            "x[1,1]*x[1,2]",
            "x[1,1]*x[2,1]",
            "x[2,1]*x[2,2]*x[2,3]",
        ]
        assert list(polar.ring.names) == [
            "x[1,1]",
            "x[1,2]",
            "x[2,1]",
            "x[2,2]",
            "x[2,3]",
        ]

    def test_squarefree_ideal_keeps_its_shape(self):
        polar = polarize_ideal(parse_ideal("x*y, y*z"))
        assert strs(polar.gens) == ["x[1,1]*x[2,1]", "x[2,1]*x[3,1]"]
        assert polar.ring.slots == (1, 1, 1)

    def test_second_worked_example(self):
        polar = polarize_ideal(parse_ideal("x1^3, x1^2*x2, x2^3"))
        assert strs(polar.gens) == [
            "x[1,1]*x[1,2]*x[1,3]",
            "x[1,1]*x[1,2]*x[2,1]",
            "x[2,1]*x[2,2]*x[2,3]",
        ]


class TestPolarizationSequence:
    def test_running_example(self):
        polar = polarize_ideal(parse_ideal("x1^2, x1*x2, x2^3"))
        assert polarization_sequence(polar.ring) == (
            ("x[1,1]", "x[1,2]"),
            ("x[2,1]", "x[2,2]"),
            ("x[2,1]", "x[2,3]"),
        )

    def test_squarefree_gives_empty_sequence(self):
        polar = polarize_ideal(parse_ideal("x*y, y*z"))
        assert polarization_sequence(polar.ring) == ()

    def test_single_variable_three_slots(self):
        polar_ring = PolarRing.from_slots(ring("x1"), (3,))
        assert polarization_sequence(polar_ring) == (
            ("x[1,1]", "x[1,2]"),
            ("x[1,1]", "x[1,3]"),
        )


class TestDepolarize:
    def test_round_trip_on_running_example(self):
        ideal = parse_ideal("x1^2, x1*x2, x2^3")
        assert depolarize_ideal(polarize_ideal(ideal)) == ideal

    def test_slot_one_ideal_renames_back(self):
        ideal = parse_ideal("x*y, y*z")
        assert depolarize_ideal(polarize_ideal(ideal)) == ideal

    def test_gap_slots_still_count(self):
        polar_ring = PolarRing.from_slots(ring("x1 x2"), (2, 1))
        gen = polar_ring.monomial({"x[1,2]": 1, "x[2,1]": 1})
        ideal = MonomialIdeal(polar_ring, (gen,))
        assert depolarize_ideal(ideal) == parse_ideal("x1*x2")

    def test_matches_pairwise_substitution_oracle(self):
        rng = random.Random(311)
        for _ in range(40):
            ideal = random_ideal(rng, random_ring(rng))
            polar = polarize_ideal(ideal)
            assert depolarize_ideal(polar) == ideal
            assert sequence_substitution(polar) == ideal


class TestComponentDecomposition:
    def test_square_times_variable(self):
        component = IrreducibleComponent(ring("x1 x2"), (2, 1))
        primes = polar_decomposition_of_component(component)
        assert strs(primes) == ["(x[1,1], x[2,1])", "(x[1,2], x[2,1])"]
        polar = polarize_ideal(component.as_ideal())
        assert primes_cut_out_ideal(primes, polar)

    def test_single_variable(self):
        component = IrreducibleComponent(ring("x1"), (1,))
        assert strs(polar_decomposition_of_component(component)) == ["(x[1,1])"]

    def test_variable_and_cube(self):
        component = IrreducibleComponent(ring("x1 x2"), (1, 3))
        assert strs(polar_decomposition_of_component(component)) == [
            "(x[1,1], x[2,1])",
            "(x[1,1], x[2,2])",
            "(x[1,1], x[2,3])",
        ]

    def test_brute_force_sweep(self):
        import itertools

        base = ring("x1 x2 x3")
        for exps in itertools.product(range(0, 4), repeat=3):
            if not any(exps):
                continue
            component = IrreducibleComponent(base, exps)
            primes = polar_decomposition_of_component(component)
            assert primes_cut_out_ideal(primes, polarize_ideal(component.as_ideal()))


class TestPowerDecomposition:
    def test_two_variables_squared(self):
        base = ring("x1 x2")
        primes = polar_decomposition_of_power(base, ("x1", "x2"), 2)
        assert strs(primes) == [
            "(x[1,1], x[2,1])",
            "(x[1,1], x[2,2])",
            "(x[1,2], x[2,1])",
        ]
        polar = polarize_ideal(power_ideal(base, ("x1", "x2"), 2))
        assert primes_cut_out_ideal(primes, polar)

    def test_single_variable_power(self):
        base = ring("x1")
        primes = polar_decomposition_of_power(base, ("x1",), 3)
        assert strs(primes) == ["(x[1,1])", "(x[1,2])", "(x[1,3])"]
        polar = polarize_ideal(power_ideal(base, ("x1",), 3))
        assert primes_cut_out_ideal(primes, polar)

    def test_first_power_is_the_prime_itself(self):
        base = ring("x1 x2 x3")
        primes = polar_decomposition_of_power(base, ("x1", "x2", "x3"), 1)
        assert strs(primes) == ["(x[1,1], x[2,1], x[3,1])"]

    def test_irredundant(self):
        base = ring("x1 x2 x3")
        for variables in (("x1", "x2"), ("x1", "x2", "x3")):
            for m in (2, 3):
                primes = polar_decomposition_of_power(base, variables, m)
                polar = polarize_ideal(power_ideal(base, variables, m))
                assert primes_cut_out_ideal(primes, polar)
                for skip in range(len(primes)):
                    rest = [p for i, p in enumerate(primes) if i != skip]
                    assert not primes_cut_out_ideal(rest, polar)


class TestGeneralPolarDecomposition:
    def test_running_example(self):
        primes = polar_decomposition(parse_ideal("x1^2, x1*x2, x2^3"))
        assert strs(primes) == [
            "(x[1,1], x[2,1])",
            "(x[1,1], x[2,2])",
            "(x[1,1], x[2,3])",
            "(x[1,2], x[2,1])",
        ]

    def test_squarefree_is_minimal_primes_in_slot_one(self):
        ideal = parse_ideal("x*y, y*z")
        primes = polar_decomposition(ideal)
        assert strs(primes) == ["(x[1,1], x[3,1])", "(x[2,1])"]

    def test_embedded_component_prunes(self):
        primes = polar_decomposition(parse_ideal("x1^2, x1*x2"))
        assert strs(primes) == ["(x[1,1])", "(x[1,2], x[2,1])"]

    def test_intersection_and_irredundancy_random(self):
        rng = random.Random(501)
        for _ in range(30):
            ideal = random_ideal(rng, random_ring(rng, 4), max_generators=4, max_degree=3)
            primes = polar_decomposition(ideal)
            polar = polarize_ideal(ideal)
            assert primes_cut_out_ideal(primes, polar)
            for skip in range(len(primes)):
                rest = [p for i, p in enumerate(primes) if i != skip]
                if rest:
                    assert not primes_cut_out_ideal(rest, polar)


    def test_matches_pairwise_prune(self):
        fixed = ("x1^2, x1*x2, x2^3", "x1^2, x1*x2", "x1^3*x2, x2^3*x3, x3^3*x4, x4^3")
        ideals = [parse_ideal(text) for text in fixed]
        rng = random.Random(502)
        ideals += [seeded_ideal(rng, max_variables=4) for _ in range(400)]
        for ideal in ideals:
            expected = pairwise_polar_decomposition(ideal)
            assert polar_decomposition(ideal) == expected, ideal


class TestPrimeTransfer:
    def test_polarize_prime(self):
        ideal = parse_ideal("x1*x3, x2", ["x1", "x2", "x3"])
        polar_ring = PolarRing.spanning(ideal)
        p = prime(ideal.ring, ["x1", "x3"])
        assert str(polarize_prime(p, polar_ring)) == "(x[1,1], x[3,1])"

    def test_polarize_principal_prime(self):
        ideal = parse_ideal("x1^2, x1*x2^2")
        polar_ring = PolarRing.spanning(ideal)
        p = prime(ideal.ring, ["x1"])
        assert str(polarize_prime(p, polar_ring)) == "(x[1,1])"

    def test_polarize_full_prime(self):
        ideal = parse_ideal("x1^2, x1*x2^2")
        polar_ring = PolarRing.spanning(ideal)
        p = prime(ideal.ring, ideal.ring.names)
        assert str(polarize_prime(p, polar_ring)) == "(x[1,1], x[2,1])"

    def test_polarized_minimal_prime_contains_polarization(self):
        ideal = parse_ideal("x1^2, x1*x2^2")
        polar = polarize_ideal(ideal)
        for p in sort_primes(associated_primes(ideal)):
            image = polarize_prime(p, polar.ring)
            assert image.contains_ideal(polar)

    def test_depolarize_prime(self):
        polar_ring = PolarRing.from_slots(ring("x1 x2"), (2, 1))
        q = Prime(polar_ring, ("x[1,2]", "x[2,1]"))
        assert str(depolarize_prime(q)) == "(x1, x2)"

    def test_depolarize_rejects_two_slots_of_one_variable(self):
        polar_ring = PolarRing.from_slots(ring("x1"), (2,))
        q = Prime(polar_ring, ("x[1,1]", "x[1,2]"))
        with pytest.raises(ValueError):
            depolarize_prime(q)

    def test_minimal_height_transfers(self):
        ideal = parse_ideal("x1^2, x1*x2^2")
        polar = polarize_ideal(ideal)
        polar_min = sort_primes(
            p
            for p in associated_primes(polar)
            if p.height == height(polar)
        )
        downstairs = {depolarize_prime(q) for q in polar_min}
        assert all(p.height == height(ideal) for p in downstairs)


class TestBasicIdentities:
    def test_divisibility_equivalence(self):
        rng = random.Random(777)
        for _ in range(60):
            ambient = random_ring(rng)
            a = random_monomial(rng, ambient)
            b = random_monomial(rng, ambient)
            pa = MonomialIdeal(ambient, (a,))
            pb = MonomialIdeal(ambient, (b,))
            joint = PolarRing.spanning(pa, pb)
            assert divides(a, b) == divides(
                polarize_monomial(a, joint), polarize_monomial(b, joint)
            )

    def test_sum_and_intersection_commute_with_polarization(self):
        rng = random.Random(778)
        for _ in range(40):
            ambient = random_ring(rng)
            a = random_ideal(rng, ambient, max_generators=4)
            b = random_ideal(rng, ambient, max_generators=4)
            joint = PolarRing.spanning(a, b)
            assert polarize_ideal_in(ideal_sum(a, b), joint) == ideal_sum(
                polarize_ideal_in(a, joint), polarize_ideal_in(b, joint)
            )
            assert polarize_ideal_in(intersect(a, b), joint) == intersect(
                polarize_ideal_in(a, joint), polarize_ideal_in(b, joint)
            )

    def test_height_is_preserved(self):
        rng = random.Random(779)
        for _ in range(25):
            ideal = random_ideal(rng, random_ring(rng, 4), max_generators=4, max_degree=3)
            assert height(ideal) == height(polarize_ideal(ideal))

    def test_general_decomposition_cuts_out_the_polarization(self):
        rng = random.Random(780)
        for _ in range(25):
            ideal = random_ideal(rng, random_ring(rng, 4), max_generators=3, max_degree=3)
            assert primes_cut_out_ideal(polar_decomposition(ideal), polarize_ideal(ideal))


class TestCorrespondence:
    def test_running_example(self):
        report = associated_prime_correspondence(parse_ideal("x1^2, x1*x2, x2^3"))
        assert report.passed
        assert strs(report.base_primes) == ["(x1, x2)"]
        assert len(report.polar_primes) == 4
        assert report.stratum_counts == ((2, 1, 4),)

    def test_squarefree_is_one_to_one(self):
        report = associated_prime_correspondence(parse_ideal("x*y, y*z"))
        assert report.passed
        assert len(report.base_primes) == len(report.polar_primes)

    def test_embedded_prime_example(self):
        report = associated_prime_correspondence(parse_ideal("x1^2, x1*x2"))
        assert report.passed
        assert strs(report.base_primes) == ["(x1)", "(x1, x2)"]
        assert strs(report.polar_primes) == ["(x[1,1])", "(x[1,2], x[2,1])"]

    def test_full_downward_closure_on_running_example(self):
        report = associated_prime_correspondence(parse_ideal("x1^2, x1*x2, x2^3"))
        polar = set(strs(report.polar_primes))
        assert {"(x[1,1], x[2,1])", "(x[1,1], x[2,2])"} <= polar
        assert "(x[1,1], x[2,3])" in polar
        below = {str(q): set(strs(under)) for q, under in report.below}
        assert below["(x[1,1], x[2,3])"] == {
            "(x[1,1], x[2,1])",
            "(x[1,1], x[2,2])",
        }

    def test_lowered_prime_may_contain_a_smaller_associated_prime(self):
        # (x[1,2], x[2,1]) is associated but its lowering (x[1,1], x[2,1])
        # is not: it strictly contains the associated prime (x[1,1]).  The
        # saturation verdict therefore checks containment over the
        # polarization, which still holds, and the report stays green.
        report = associated_prime_correspondence(parse_ideal("x1^2, x1*x2"))
        assert report.passed
        assert strs(report.polar_primes) == ["(x[1,1])", "(x[1,2], x[2,1])"]
        assert report.below == ()

    def test_random_instances_pass(self):
        rng = random.Random(781)
        for _ in range(30):
            ideal = random_ideal(rng, random_ring(rng, 4), max_generators=4, max_degree=3)
            assert associated_prime_correspondence(ideal).passed


class TestIntersectionOfGeneralDecomposition:
    def test_exact_intersection_small(self):
        ideal = parse_ideal("x1^2, x1*x2, x2^3")
        primes = polar_decomposition(ideal)
        assert intersect_all(p.as_ideal() for p in primes) == polarize_ideal(ideal)

    def test_components_compose(self):
        ideal = parse_ideal("x1^2, x1*x2")
        polar_ring = PolarRing.spanning(ideal)
        collected = []
        for component in irreducible_decomposition(ideal):
            collected.extend(polar_decomposition_of_component(component, polar_ring))
        assert intersect_all(p.as_ideal() for p in set(collected)) == polarize_ideal(ideal)
