import random

import pytest

from polartrees import (
    CMVerdict,
    ScmVerdict,
    ZERO_IDEAL,
    check_filtration_strata,
    check_joint_removal,
    check_konig,
    check_localization,
    cm_verdict,
    coprime_independence_number,
    height,
    height_strata,
    intersect_all,
    irreducible_decomposition,
    joint_generators,
    parse_ideal,
    prime,
    scm_filtration,
    scm_verdict,
    squarefree_component,
)
from polartrees.sampling import random_forest_ideal

WORKED_TREE = parse_ideal("x1^3, x1^2*x2*x3, x3^2, x2^3*x3")
THREE_STRATA = parse_ideal("x1^3, x1*x2^3, x1^2*x3, x1*x2*x3")


def strs(items):
    return [str(x) for x in items]


class TestHeightStrata:
    def test_two_strata(self):
        strata = height_strata(parse_ideal("x1^2, x1*x2"))
        assert strata.heights() == (1, 2)
        assert strata.height == 1 and strata.max_height == 2
        assert strs(strata.components_up_to(1)) == ["(x1)"]

    def test_unmixed_single_stratum(self):
        strata = height_strata(parse_ideal("x1^2, x1*x2, x2^3"))
        assert strata.heights() == (2,)
        assert strata.height == strata.max_height == 2

    def test_three_strata(self):
        strata = height_strata(THREE_STRATA)
        assert strata.heights() == (1, 2, 3)


class TestFiltration:
    def test_embedded_prime_example(self):
        filtration = scm_filtration(parse_ideal("x1^2, x1*x2"))
        assert strs(filtration.chain) == ["(x1^2, x1*x2)", "(x1)"]

    def test_unmixed_chain_has_length_one(self):
        filtration = scm_filtration(parse_ideal("x1^2, x1*x2, x2^3"))
        assert len(filtration.chain) == 1
        assert filtration.chain[0] == parse_ideal("x1^2, x1*x2, x2^3")

    def test_three_strata_chain(self):
        filtration = scm_filtration(THREE_STRATA)
        assert len(filtration.chain) == 3
        comps = irreducible_decomposition(THREE_STRATA)
        for i, bound in enumerate((3, 2, 1)):
            expected = intersect_all(
                c.as_ideal() for c in comps if c.height <= bound
            )
            assert filtration.chain[i] == expected

    def test_chain_is_strictly_ascending(self):
        for ideal in (THREE_STRATA, parse_ideal("x1^2, x1*x2")):
            chain = scm_filtration(ideal).chain
            for small, large in zip(chain, chain[1:]):
                assert large.contains_ideal(small)
                assert small != large

    def test_skipped_heights_collapse(self):
        # components of heights 1 and 3 only: the sweep from 3 down to 1
        # repeats the same ideal at bound 2, and the repeat is dropped
        from polartrees import intersect

        one = parse_ideal("x1", ["x1", "x2", "x3", "x4"])
        three = parse_ideal("x2, x3, x4", ["x1", "x2", "x3", "x4"])
        ideal = intersect(one, three)
        strata = height_strata(ideal)
        assert strata.heights() == (1, 3)
        assert len(scm_filtration(ideal).chain) == 2


class TestFiltrationReport:
    def test_embedded_prime_example(self):
        report = check_filtration_strata(parse_ideal("x1^2, x1*x2"))
        assert report.passed
        assert report.polarization_is_forest
        first = report.steps[0]
        assert strs(first.submodule_actual) == ["(x1, x2)"]
        second = report.steps[1]
        assert strs(second.quotient_actual) == ["(x1)"]

    def test_unmixed_is_a_single_trivial_step(self):
        report = check_filtration_strata(parse_ideal("x1^2, x1*x2, x2^3"))
        assert report.passed
        assert len(report.steps) == 1

    def test_three_strata_pass(self):
        report = check_filtration_strata(THREE_STRATA)
        assert report.passed
        assert len(report.steps) == 3
        assert report.polarization_is_forest

    def test_random_forest_ideals_pass(self):
        rng = random.Random(601)
        found = 0
        attempts = 0
        while found < 10 and attempts < 300:
            attempts += 1
            ideal = random_forest_ideal(rng, max_facets=5, max_facet_size=3)
            if len(height_strata(ideal).strata) < 2:
                continue
            report = check_filtration_strata(ideal)
            assert report.passed, str(ideal)
            found += 1
        assert found == 10


class TestKonig:
    def test_worked_tree(self):
        report = check_konig(WORKED_TREE)
        assert report.verdict == "pass"
        assert report.height == 2 and report.coprime_bound == 2

    def test_principal(self):
        report = check_konig(parse_ideal("x1^2*x2"))
        assert report.verdict == "pass"
        assert report.height == report.coprime_bound == 1

    def test_triangle_reports_without_asserting(self):
        report = check_konig(parse_ideal("xy, yz, zx"))
        assert report.verdict == "inapplicable"
        assert report.height == 2 and report.coprime_bound == 1
        assert not report.polarization_is_tree

    def test_random_forest_ideals(self):
        rng = random.Random(602)
        for _ in range(15):
            ideal = random_forest_ideal(rng, max_facets=5, max_facet_size=3)
            assert height(ideal) == coprime_independence_number(ideal)
            report = check_konig(ideal)
            assert report.passed


class TestJointRemoval:
    def test_worked_tree_joints(self):
        assert strs(joint_generators(WORKED_TREE)) == ["x1^2*x2*x3", "x2^3*x3"]
        report = check_joint_removal(WORKED_TREE)
        assert report.verdict == "pass"
        assert all(d.height_after == 2 for d in report.drops)

    def test_single_generator_is_inapplicable(self):
        report = check_joint_removal(parse_ideal("x1^2*x2"))
        assert report.verdict == "inapplicable"

    def test_random_forest_ideals(self):
        rng = random.Random(603)
        for _ in range(15):
            ideal = random_forest_ideal(rng, max_facets=5, max_facet_size=3)
            report = check_joint_removal(ideal)
            assert report.verdict in ("pass", "inapplicable")


class TestLocalizationCheck:
    def test_non_commutation_example(self):
        ideal = parse_ideal("x1^3, x1^2*x2")
        (report,) = check_localization(ideal, [prime(ideal.ring, ["x1"])])
        assert report.passed
        assert str(report.localized) == "(x1^2)"
        assert report.polar_of_localization == ("x[1,1]*x[1,2]",)
        assert report.localization_of_polar == ("x[1,1]",)
        assert not report.substitution_commutes

    def test_full_prime_keeps_the_ideal(self):
        ideal = WORKED_TREE
        (report,) = check_localization(ideal, [prime(ideal.ring, ideal.ring.names)])
        assert report.passed
        assert report.tree_hypothesis
        assert strs(report.localized.gens) == strs(ideal.gens)

    def test_worked_tree_at_its_minimal_prime(self):
        (report,) = check_localization(
            WORKED_TREE, [prime(WORKED_TREE.ring, ["x1", "x3"])]
        )
        assert report.passed
        assert str(report.localized) == "(x1^3, x3)"

    def test_rejects_primes_not_containing_the_ideal(self):
        ideal = WORKED_TREE
        with pytest.raises(ValueError):
            check_localization(ideal, [prime(ideal.ring, ["x2"])])


class TestVerdicts:
    def test_unmixed_tree_is_cohen_macaulay(self):
        assert cm_verdict(parse_ideal("x1^2, x1*x2, x2^3")) is CMVerdict.COHEN_MACAULAY

    def test_mixed_tree_is_not(self):
        assert cm_verdict(parse_ideal("x1^2, x1*x2")) is CMVerdict.NOT_COHEN_MACAULAY

    def test_triangle_is_out_of_scope(self):
        assert cm_verdict(parse_ideal("xy, yz, zx")) is CMVerdict.INAPPLICABLE

    def test_path_is_sequentially_cm(self):
        report = scm_verdict(parse_ideal("x1^2, x1*x2"))
        assert report.verdict is ScmVerdict.SEQUENTIALLY_CM
        assert report.note is None

    def test_worked_tree_is_sequentially_cm(self):
        assert scm_verdict(WORKED_TREE).verdict is ScmVerdict.SEQUENTIALLY_CM

    def test_triangle_is_unknown(self):
        assert scm_verdict(parse_ideal("xy, yz, zx")).verdict is ScmVerdict.UNKNOWN

    def test_disconnected_forest_is_flagged(self):
        report = scm_verdict(parse_ideal("x1*x2, x3*x4"))
        assert report.verdict is ScmVerdict.SEQUENTIALLY_CM
        assert report.note == "forest extension"

    def test_cohen_macaulay_means_unmixed_polar_complex(self):
        from polartrees import facet_complex, is_unmixed, polarize_ideal

        rng = random.Random(604)
        checked = 1
        for ideal in [parse_ideal("x1^2, x1*x2, x2^3")]:
            assert cm_verdict(ideal) is CMVerdict.COHEN_MACAULAY
            assert is_unmixed(facet_complex(polarize_ideal(ideal)))
        for _ in range(30):
            ideal = random_forest_ideal(rng, max_facets=5, max_facet_size=3)
            if cm_verdict(ideal) is CMVerdict.COHEN_MACAULAY:
                assert is_unmixed(facet_complex(polarize_ideal(ideal)))
                checked += 1
        assert checked >= 2


class TestSquarefreeComponent:
    def test_degree_two_of_a_mixed_ideal(self):
        ideal = parse_ideal("x*y, z")
        part = squarefree_component(ideal, 2)
        assert str(part) == "(x*y, x*z, y*z)"

    def test_below_every_generator_is_zero(self):
        assert squarefree_component(parse_ideal("x*y, z*u"), 1) is ZERO_IDEAL

    def test_top_degree(self):
        ideal = parse_ideal("x*y")
        assert squarefree_component(ideal, 2) == ideal


class TestForestCap:
    CHECKS = (
        lambda ideal, cap: check_filtration_strata(ideal, max_facets=cap),
        lambda ideal, cap: check_konig(ideal, max_facets=cap),
        lambda ideal, cap: check_localization(
            ideal, [prime(ideal.ring, ideal.ring.names)], max_facets=cap
        ),
        lambda ideal, cap: cm_verdict(ideal, max_facets=cap),
        lambda ideal, cap: scm_verdict(ideal, max_facets=cap),
    )

    @pytest.mark.parametrize(
        "check", CHECKS, ids=("appendix", "konig", "localization", "cm", "scm")
    )
    def test_every_forest_check_honours_the_cap(self, check):
        # the worked tree polarizes to four facets
        with pytest.raises(ValueError, match="4 facets exceed the cap of 3"):
            check(WORKED_TREE, 3)
        check(WORKED_TREE, 4)

    def test_raised_cap_admits_a_long_path(self):
        path = parse_ideal(", ".join(f"x{i}*x{i + 1}" for i in range(1, 23)))
        with pytest.raises(ValueError, match="22 facets exceed the cap of 20"):
            scm_verdict(path)
        assert scm_verdict(path, max_facets=22).verdict is ScmVerdict.SEQUENTIALLY_CM
