import random

import pytest

from polartrees import (
    UNIT_IDEAL,
    ZERO_IDEAL,
    alexander_dual_complex,
    alexander_dual_ideal,
    complex_on,
    covering_number,
    facet_complex,
    facet_ideal,
    free_vertices,
    height,
    independence_number,
    is_connected,
    is_forest,
    is_leaf,
    is_tree,
    is_unmixed,
    joints,
    minimal_primes,
    minimal_vertex_covers,
    nonface_complex,
    nonface_ideal,
    parse_ideal,
    remove_facet,
)
from polartrees.sampling import (
    random_forest_complex,
    random_ring,
    random_squarefree_ideal,
)

from oracles import brute_minimal_covers, brute_minimal_nonfaces, seeded_complexes

EXAMPLE = parse_ideal("xyz, yu, uvw")


def facet_set(complex_):
    return {tuple(sorted(f)) for f in complex_.facets}


class TestFacetDictionary:
    def test_facets_of_the_example(self):
        complex_ = facet_complex(EXAMPLE)
        assert facet_set(complex_) == {("x", "y", "z"), ("u", "y"), ("u", "v", "w")}

    def test_single_generator_is_a_simplex(self):
        complex_ = facet_complex(parse_ideal("x*y*z"))
        assert facet_set(complex_) == {("x", "y", "z")}

    def test_worked_tree_has_four_facets(self):
        from polartrees import polarize_ideal

        polar = polarize_ideal(parse_ideal("x1^3, x1^2*x2*x3, x3^2, x2^3*x3"))
        complex_ = facet_complex(polar)
        assert complex_.facet_count() == 4
        assert is_tree(complex_)

    def test_round_trips(self):
        assert facet_ideal(facet_complex(EXAMPLE)) == EXAMPLE
        complex_ = facet_complex(EXAMPLE)
        assert facet_complex(facet_ideal(complex_)) == complex_

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            facet_complex(parse_ideal("x^2, x*y"))

    def test_void_and_empty_facet_ideals(self):
        void = complex_on(("x", "y"), ())
        assert facet_ideal(void) is ZERO_IDEAL
        point = complex_on(("x", "y"), (frozenset(),))
        assert facet_ideal(point) is UNIT_IDEAL


class TestNonfaces:
    def test_running_example(self):
        ideal = nonface_ideal(facet_complex(EXAMPLE))
        assert {str(g) for g in ideal.gens} == {
            "x*u",
            "x*v",
            "x*w",
            "y*v",
            "y*w",
            "z*u",
            "z*v",
            "z*w",
        }

    def test_full_simplex_has_no_nonfaces(self):
        complex_ = facet_complex(parse_ideal("x*y*z"))
        assert nonface_ideal(complex_) is ZERO_IDEAL

    def test_two_points(self):
        complex_ = complex_on(("x", "y"), ({"x"}, {"y"}))
        assert str(nonface_ideal(complex_)) == "(x*y)"

    def test_matches_brute_force(self):
        for complex_ in seeded_complexes(random.Random(41), 2000):
            result = nonface_ideal(complex_)
            expected = brute_minimal_nonfaces(complex_)
            got = (
                set()
                if result is ZERO_IDEAL
                else {frozenset(g.support) for g in result.gens}
            )
            assert got == expected

    def test_nonface_complex_simple(self):
        assert facet_set(nonface_complex(parse_ideal("x*y"))) == {("x",), ("y",)}
        assert facet_set(nonface_complex(parse_ideal("x", ["x", "y"]))) == {("y",)}

    def test_nonface_complex_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            nonface_complex(parse_ideal("x^2, x*y"))


class TestAlexanderDual:
    def test_involution_on_nonface_complexes(self):
        rng = random.Random(42)
        for _ in range(25):
            ideal = random_squarefree_ideal(rng, random_ring(rng), max_generators=4)
            complex_ = nonface_complex(ideal)
            assert alexander_dual_complex(alexander_dual_complex(complex_)) == complex_

    def test_two_point_duality(self):
        two_points = nonface_complex(parse_ideal("x*y"))
        dual = alexander_dual_complex(two_points)
        assert dual.facets == (frozenset(),)

    def test_empty_facet_duality(self):
        point = nonface_complex(parse_ideal("x, y"))
        assert point.facets == (frozenset(),)
        dual = alexander_dual_complex(point)
        assert facet_set(dual) == {("x",), ("y",)}

    def test_dual_ideal_examples(self):
        assert str(alexander_dual_ideal(parse_ideal("x*y"))) == "(x, y)"
        assert str(alexander_dual_ideal(parse_ideal("x, y"))) == "(x*y)"

    def test_dual_ideal_is_an_involution(self):
        rng = random.Random(43)
        for _ in range(25):
            ideal = random_squarefree_ideal(rng, random_ring(rng), max_generators=4)
            dual = alexander_dual_ideal(ideal)
            assert dual == nonface_ideal(
                alexander_dual_complex(nonface_complex(ideal))
            )
            assert alexander_dual_ideal(dual) == ideal


class TestCovers:
    def test_running_example_covers(self):
        covers = minimal_vertex_covers(facet_complex(EXAMPLE))
        assert [tuple(sorted(c)) for c in covers] == [
            ("u", "x"),
            ("u", "y"),
            ("v", "y"),
            ("w", "y"),
            ("u", "z"),
        ]
        assert covering_number(facet_complex(EXAMPLE)) == 2
        assert is_unmixed(facet_complex(EXAMPLE))

    def test_single_facet_covers_are_singletons(self):
        complex_ = facet_complex(parse_ideal("x*y*z"))
        assert {tuple(sorted(c)) for c in minimal_vertex_covers(complex_)} == {
            ("x",),
            ("y",),
            ("z",),
        }

    def test_triangle_covers(self):
        complex_ = facet_complex(parse_ideal("xy, yz, zx"))
        assert {tuple(sorted(c)) for c in minimal_vertex_covers(complex_)} == {
            ("x", "y"),
            ("y", "z"),
            ("x", "z"),
        }

    def test_matches_brute_force(self):
        for complex_ in seeded_complexes(random.Random(44), 2000):
            if frozenset() in complex_.facets:
                with pytest.raises(ValueError):
                    minimal_vertex_covers(complex_)
                continue
            covers = minimal_vertex_covers(complex_)
            assert set(covers) == brute_minimal_covers(complex_)
            position = {v: i for i, v in enumerate(complex_.vertices)}
            keys = [(len(c), sorted(position[v] for v in c)) for c in covers]
            assert keys == sorted(keys)

    def test_covers_generate_minimal_primes(self):
        rng = random.Random(45)
        for _ in range(25):
            ideal = random_squarefree_ideal(rng, random_ring(rng), max_generators=4)
            complex_ = facet_complex(ideal)
            covers = {frozenset(c) for c in minimal_vertex_covers(complex_)}
            primes = {frozenset(p.variables) for p in minimal_primes(ideal)}
            assert covers == primes
            assert covering_number(complex_) == height(ideal)


class TestIndependence:
    def test_running_example(self):
        assert independence_number(facet_complex(EXAMPLE)) == 2

    def test_single_facet(self):
        assert independence_number(facet_complex(parse_ideal("x*y*z"))) == 1

    def test_disjoint_pair(self):
        complex_ = complex_on(("x", "y", "z"), ({"x", "y"}, {"z"}))
        assert independence_number(complex_) == 2


class TestRemoveFacet:
    def test_drops_one_generator(self):
        complex_ = facet_complex(parse_ideal("xyz, yzu, zuv"))
        smaller = remove_facet(complex_, {"x", "y", "z"})
        assert facet_set(smaller) == {("u", "y", "z"), ("u", "v", "z")}

    def test_removing_the_last_facet_is_void(self):
        complex_ = facet_complex(parse_ideal("x*y"))
        assert remove_facet(complex_, {"x", "y"}).is_void

    def test_remove_then_re_add(self):
        complex_ = facet_complex(EXAMPLE)
        smaller = remove_facet(complex_, {"y", "u"})
        rebuilt = complex_on(complex_.vertices, smaller.facets + (frozenset({"y", "u"}),))
        assert rebuilt == complex_

    def test_rejects_non_facets(self):
        with pytest.raises(ValueError):
            remove_facet(facet_complex(EXAMPLE), {"x", "y"})


class TestLeaves:
    def test_leaf_and_joint(self):
        complex_ = facet_complex(parse_ideal("xyz, yzu, zuv"))
        assert is_leaf(complex_, {"x", "y", "z"})
        assert [tuple(sorted(g)) for g in joints(complex_, {"x", "y", "z"})] == [
            ("u", "y", "z")
        ]

    def test_middle_facet_is_not_a_leaf(self):
        complex_ = facet_complex(parse_ideal("xyz, yzu, zuv"))
        assert not is_leaf(complex_, {"y", "z", "u"})

    def test_lone_facet_is_a_leaf(self):
        complex_ = facet_complex(parse_ideal("x*y*z"))
        assert is_leaf(complex_, {"x", "y", "z"})
        assert joints(complex_, {"x", "y", "z"}) == ()

    def test_free_vertices_of_the_example(self):
        complex_ = facet_complex(EXAMPLE)
        assert free_vertices(complex_, {"x", "y", "z"}) == {"x", "z"}

    def test_free_vertices_single_facet(self):
        complex_ = facet_complex(parse_ideal("x*y*z"))
        assert free_vertices(complex_, {"x", "y", "z"}) == {"x", "y", "z"}

    def test_triangle_has_no_free_vertices(self):
        complex_ = facet_complex(parse_ideal("xy, yz, zx"))
        for facet in complex_.facets:
            assert free_vertices(complex_, facet) == frozenset()


class TestConnectivity:
    def test_example_is_connected(self):
        assert is_connected(facet_complex(EXAMPLE))

    def test_two_points_are_not(self):
        assert not is_connected(complex_on(("x", "y"), ({"x"}, {"y"})))

    def test_single_facet(self):
        assert is_connected(facet_complex(parse_ideal("x*y*z")))


class TestForests:
    def test_example_is_a_tree(self):
        assert is_tree(facet_complex(EXAMPLE))

    def test_triangle_is_not_a_forest(self):
        check = is_forest(facet_complex(parse_ideal("xy, yz, zx")))
        assert not check.is_forest
        assert check.witness is not None
        assert {tuple(sorted(f)) for f in check.witness} == {
            ("x", "y"),
            ("y", "z"),
            ("x", "z"),
        }

    def test_single_simplex_is_a_tree(self):
        assert is_tree(facet_complex(parse_ideal("x*y*z")))

    def test_leafless_core_inside_a_bigger_complex(self):
        # attaching one more facet to a triangle leaves the triangle as witness
        ideal = parse_ideal("xy, yz, zx, zw")
        check = is_forest(facet_complex(ideal))
        assert not check.is_forest
        assert {tuple(sorted(f)) for f in check.witness} == {
            ("x", "y"),
            ("y", "z"),
            ("x", "z"),
        }

    def test_every_leaf_has_a_free_vertex(self):
        rng = random.Random(46)
        for _ in range(20):
            complex_ = random_forest_complex(rng, max_facets=6, max_facet_size=4)
            for facet in complex_.facets:
                if is_leaf(complex_, facet):
                    assert free_vertices(complex_, facet)

    def test_subcollections_of_forests_are_forests(self):
        rng = random.Random(47)
        for _ in range(15):
            complex_ = random_forest_complex(rng, max_facets=6, max_facet_size=4)
            facets = list(complex_.facets)
            for _ in range(5):
                if not facets:
                    break
                k = rng.randint(1, len(facets))
                sub = rng.sample(facets, k)
                subcomplex = complex_on(complex_.vertices, sub)
                assert is_forest(subcomplex)

    def test_forest_cap(self):
        complex_ = facet_complex(EXAMPLE)
        with pytest.raises(ValueError):
            is_forest(complex_, max_facets=2)
