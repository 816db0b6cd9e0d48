"""Good-leaf forest recognition against the exhaustive subcollection sweep.

``is_forest`` removes good leaves and searches for a witness only in the
leafless core; ``brute_forest_witness`` scans every subcollection of the
whole complex with its own leaf test.  Verdicts and witnesses must agree
exactly, witness order included.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from polartrees import complex_on, facet_complex, is_forest, parse_ideal
from polartrees.sampling import random_forest_complex
from polartrees.simplicial import _leafless_core

from oracles import brute_forest_witness


def assert_matches_oracle(complex_):
    check = is_forest(complex_)
    expected = brute_forest_witness(complex_)
    assert check.is_forest == (expected is None), complex_
    assert check.witness == expected, complex_
    # forests are decided by good-leaf removal alone, with no sweep
    core = _leafless_core(complex_._masks())
    assert (not core) == check.is_forest, complex_
    return check


def dense_complex(rng):
    """Many overlapping facets on few vertices."""
    n = rng.randint(4, 7)
    vertices = [f"v{i}" for i in range(n)]
    facets = [
        rng.sample(vertices, rng.randint(1, 4))
        for _ in range(rng.randint(2, 12))
    ]
    return complex_on(vertices, facets)


def graph_like_complex(rng):
    """Edges, mostly, around a planted cycle of length up to the facet cap."""
    n = rng.randint(5, 14)
    vertices = [f"v{i}" for i in range(n)]
    length = rng.randint(3, min(n, 12))
    ring = rng.sample(vertices, length)
    facets = [{ring[i], ring[(i + 1) % length]} for i in range(length)]
    target = rng.randint(length, 12)
    while len(facets) < target:
        size = 2 if rng.random() < 0.8 else 3
        facets.append(set(rng.sample(vertices, size)))
    return complex_on(vertices, facets)


def random_graph_complex(rng):
    """Sparse random graphs: forests and cycles of every length arise."""
    n = rng.randint(4, 13)
    vertices = [f"v{i}" for i in range(n)]
    facets = [set(rng.sample(vertices, 2)) for _ in range(rng.randint(2, 12))]
    return complex_on(vertices, facets)


def near_forest(rng):
    """A forest, with one extra random facet half of the time."""
    forest = random_forest_complex(rng, max_facets=11, max_facet_size=4)
    facets = list(forest.facets)
    if rng.random() < 0.5:
        facets.append(rng.sample(forest.vertices, min(3, len(forest.vertices))))
    return complex_on(forest.vertices, facets)


KINDS = (dense_complex, graph_like_complex, random_graph_complex, near_forest)


def test_seeded_cross_check():
    rng = random.Random(2008)
    verdicts = {True: 0, False: 0}
    witness_sizes = set()
    for i in range(3200):
        complex_ = KINDS[i % len(KINDS)](rng)
        assert complex_.facet_count() <= 12
        check = assert_matches_oracle(complex_)
        verdicts[check.is_forest] += 1
        if check.witness is not None:
            witness_sizes.add(len(check.witness))
    # the corpus must exercise both verdicts and long witnesses
    assert min(verdicts.values()) >= 500
    assert max(witness_sizes) >= 7


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(
        st.frozensets(st.integers(0, 7), min_size=1, max_size=4),
        min_size=1,
        max_size=10,
    )
)
def test_property_matches_oracle(facets):
    vertices = [f"v{i}" for i in range(8)]
    complex_ = complex_on(vertices, [{vertices[i] for i in f} for f in facets])
    assert_matches_oracle(complex_)


def test_greedy_leaf_trap():
    # each small facet is a leaf of the whole complex, yet the three of them
    # form a leafless triangle once abcw is set aside
    complex_ = facet_complex(parse_ideal("abx, bcy, acz, abcw"))
    check = is_forest(complex_)
    assert not check.is_forest
    assert set(check.witness) == {
        frozenset("abx"), frozenset("acz"), frozenset("bcy")
    }
    assert_matches_oracle(complex_)


def test_long_cycle_with_pendants():
    cycle = [f"c{i}*c{(i + 1) % 7}" for i in range(7)]
    pendants = ["c0*p1", "c3*p2*p3", "p3*p4", "c5*p5", "c1*p6*p7"]
    complex_ = facet_complex(parse_ideal(", ".join(cycle + pendants)))
    check = is_forest(complex_)
    assert not check.is_forest
    assert len(check.witness) == 7
    assert set(check.witness) == {
        frozenset({f"c{i}", f"c{(i + 1) % 7}"}) for i in range(7)
    }
    assert_matches_oracle(complex_)
