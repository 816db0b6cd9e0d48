import random

from hypothesis import given, settings
from hypothesis import strategies as st

from polartrees import (
    associated_primes,
    colon,
    height,
    intersect_all,
    irreducible_decomposition,
    minimal_primes,
    parse_ideal,
    prime,
    quotient_associated_prime_witnesses,
    quotient_associated_primes,
    scm_filtration,
    sort_primes,
)
from polartrees.sampling import random_ideal, random_ring

from oracles import (
    box_witnesses,
    equal_by_membership,
    exponent_ideal,
    seeded_ideal,
    splitting_decomposition,
)


def strs(items):
    return [str(x) for x in items]


def render(witnesses):
    return {str(p): str(u) for p, u in witnesses.items()}


class TestIrreducibleDecomposition:
    def test_running_example(self):
        ideal = parse_ideal("x1^2, x1*x2, x2^3")
        comps = irreducible_decomposition(ideal)
        assert strs(comps) == ["(x1, x2^3)", "(x1^2, x2)"]
        assert intersect_all(c.as_ideal() for c in comps) == ideal

    def test_pure_power_is_its_own_decomposition(self):
        ideal = parse_ideal("x1^3", ["x1"])
        assert strs(irreducible_decomposition(ideal)) == ["(x1^3)"]

    def test_mixed_heights(self):
        ideal = parse_ideal("x1^2, x1*x2")
        comps = irreducible_decomposition(ideal)
        assert strs(comps) == ["(x1)", "(x1^2, x2)"]
        assert equal_by_membership(intersect_all(c.as_ideal() for c in comps), ideal)

    def test_irredundant_on_examples(self):
        for text in ("x1^2, x1*x2, x2^3", "x1^2, x1*x2", "x1*x2, x2*x3, x1*x3"):
            ideal = parse_ideal(text)
            comps = irreducible_decomposition(ideal)
            assert intersect_all(c.as_ideal() for c in comps) == ideal
            for skip in range(len(comps)):
                rest = [c for i, c in enumerate(comps) if i != skip]
                if rest:
                    assert intersect_all(c.as_ideal() for c in rest) != ideal

    def test_random_decompositions_multiply_back(self):
        rng = random.Random(92)
        for _ in range(40):
            ideal = random_ideal(rng, random_ring(rng, 4), max_degree=3)
            comps = irreducible_decomposition(ideal)
            rebuilt = intersect_all(c.as_ideal() for c in comps)
            assert rebuilt == ideal
            assert equal_by_membership(rebuilt, ideal)
            for skip in range(len(comps)):
                rest = [c for i, c in enumerate(comps) if i != skip]
                if rest:
                    assert intersect_all(c.as_ideal() for c in rest) != ideal


def assert_irredundant(ideal, comps):
    assert intersect_all(c.as_ideal() for c in comps) == ideal
    for skip in range(len(comps)):
        rest = [c for i, c in enumerate(comps) if i != skip]
        if rest:
            assert intersect_all(c.as_ideal() for c in rest) != ideal


class TestAgainstSplitting:
    """Sequential refinement against the generator-splitting oracle."""

    def test_fixed_cases(self):
        for text in ("x1^2, x1*x2, x2^3", "x1^2, x1*x2"):
            ideal = parse_ideal(text)
            assert irreducible_decomposition(ideal) == splitting_decomposition(ideal)

    def test_seeded_cross_check(self):
        rng = random.Random(2005)
        sizes = set()
        for k in range(3000):
            ideal = seeded_ideal(rng)
            comps = irreducible_decomposition(ideal)
            assert comps == splitting_decomposition(ideal), ideal
            rebuilt = intersect_all(c.as_ideal() for c in comps)
            assert rebuilt == ideal
            # the box sweep costs up to 6^6 points, so every twentieth ideal
            if k % 20 == 0:
                assert equal_by_membership(rebuilt, ideal)
            sizes.add(len(comps))
        # embedded and many-component decompositions must both occur
        assert max(sizes) >= 20

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any),
                min_size=1,
                max_size=7,
            )
        )
    )
    def test_property_matches_oracle_and_is_irredundant(self, vectors):
        ideal = exponent_ideal(vectors)
        comps = irreducible_decomposition(ideal)
        assert comps == splitting_decomposition(ideal)
        assert_irredundant(ideal, comps)


class TestPrimes:
    def test_minimal_primes_drop_embedded(self):
        assert strs(minimal_primes(parse_ideal("x1^2, x1*x2^2"))) == ["(x1)"]

    def test_minimal_primes_of_an_edge(self):
        assert strs(minimal_primes(parse_ideal("x1*x2"))) == ["(x1)", "(x2)"]

    def test_minimal_primes_join(self):
        assert strs(minimal_primes(parse_ideal("x1^2, x1*x2, x2^3"))) == ["(x1, x2)"]

    def test_associated_primes_single(self):
        ass = associated_primes(parse_ideal("x1^2, x1*x2, x2^3"))
        assert strs(sort_primes(ass)) == ["(x1, x2)"]

    def test_associated_primes_embedded(self):
        ass = associated_primes(parse_ideal("x1^2, x1*x2"))
        assert strs(sort_primes(ass)) == ["(x1)", "(x1, x2)"]

    def test_associated_primes_edge(self):
        ass = associated_primes(parse_ideal("x1*x2"))
        assert strs(sort_primes(ass)) == ["(x1)", "(x2)"]

    def test_ass_contains_minimal_and_height_agrees(self):
        rng = random.Random(93)
        for _ in range(40):
            ideal = random_ideal(rng, random_ring(rng, 4), max_degree=3)
            ass = associated_primes(ideal)
            assert set(minimal_primes(ideal)) <= ass
            assert height(ideal) == min(p.height for p in ass)


class TestQuotientAss:
    def test_whole_ring_module(self):
        ideal = parse_ideal("x1^2, x1*x2")
        assert strs(sort_primes(quotient_associated_primes(ideal))) == [
            "(x1)",
            "(x1, x2)",
        ]

    def test_zero_module(self):
        ideal = parse_ideal("x1^2, x1*x2")
        assert quotient_associated_primes(ideal, ideal) == frozenset()

    def test_submodule(self):
        ideal = parse_ideal("x1^2, x1*x2")
        module = parse_ideal("x1", ["x1", "x2"])
        assert strs(sort_primes(quotient_associated_primes(ideal, module))) == [
            "(x1, x2)"
        ]

    def test_witnesses_are_sound(self):
        rng = random.Random(94)
        for _ in range(25):
            ideal = random_ideal(rng, random_ring(rng, 4), max_generators=4, max_degree=3)
            witnesses = quotient_associated_prime_witnesses(ideal)
            for p, u in witnesses.items():
                assert colon(ideal, u) == p.as_ideal()

    def test_two_algorithms_agree(self):
        # exact witnesses, in order, against the box sweep, with the whole
        # ring and every filtration chain term as module
        rng = random.Random(95)
        ideals = [
            random_ideal(rng, random_ring(rng, 4), max_generators=4, max_degree=3)
            for _ in range(25)
        ] + [seeded_ideal(rng, max_variables=5) for _ in range(620)]
        pairs = 0
        for ideal in ideals:
            assert quotient_associated_primes(ideal) == associated_primes(ideal)
            modules = [None, *scm_filtration(ideal).chain]
            for module, expected in zip(modules, box_witnesses(ideal, modules)):
                found = quotient_associated_prime_witnesses(ideal, module)
                assert list(found.items()) == list(expected.items()), (ideal, module)
            pairs += len(modules)
        assert pairs >= 1500

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any),
                    min_size=1,
                    max_size=6,
                ),
                st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n), max_size=3),
            )
        )
    )
    def test_property_matches_the_box_on_any_module(self, vectors):
        gens, extra = vectors
        ideal = exponent_ideal(gens)
        module = exponent_ideal(gens + [v for v in extra if any(v)])
        (expected,) = box_witnesses(ideal, [module])
        found = quotient_associated_prime_witnesses(ideal, module)
        assert list(found.items()) == list(expected.items())

    def test_witnesses_of_long_chains(self):
        # a box sweep visits 31^4 and 13^5 points here
        ideal = parse_ideal("x1^30*x2, x2^30*x3, x3^30*x4, x4^30")
        assert render(quotient_associated_prime_witnesses(ideal)) == {
            "(x1, x2, x3, x4)": "x1^29*x2^29*x3^29*x4^29",
            "(x1, x2, x4)": "x1^29*x2^29*x3^30",
            "(x1, x3, x4)": "x1^29*x2^30*x4^29",
            "(x2, x3, x4)": "x1^30*x3^29*x4^29",
            "(x2, x4)": "x1^30*x3^30",
        }
        ideal = parse_ideal("x1^12*x2, x2^12*x3, x3^12*x4, x4^12*x5, x5^12")
        assert render(quotient_associated_prime_witnesses(ideal)) == {
            "(x1, x2, x3, x4, x5)": "x1^11*x2^11*x3^11*x4^11*x5^11",
            "(x1, x2, x3, x5)": "x1^11*x2^11*x3^11*x4^12",
            "(x1, x2, x4, x5)": "x1^11*x2^11*x3^12*x5^11",
            "(x1, x3, x4, x5)": "x1^11*x2^12*x4^11*x5^11",
            "(x1, x3, x5)": "x1^11*x2^12*x4^12",
            "(x2, x3, x4, x5)": "x1^12*x3^11*x4^11*x5^11",
            "(x2, x3, x5)": "x1^12*x3^11*x4^12",
            "(x2, x4, x5)": "x1^12*x3^12*x5^11",
        }

    def test_colon_witness_for_named_examples(self):
        ideal = parse_ideal("x1^2, x1*x2")
        x2 = ideal.ring.var("x2")
        x1 = ideal.ring.var("x1")
        assert colon(ideal, x2) == prime(ideal.ring, ["x1"]).as_ideal()
        assert colon(ideal, x1) == prime(ideal.ring, ["x1", "x2"]).as_ideal()
