"""Lattice arithmetic on multi-indices and preorderings."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from aglerlab.preorder import (Preordering, classical, classify, leq, maximal_closure,
                               minimal_reduction, parity_split, predecessors,
                               standard_ample, standard_nearly_ample, unit, weight)


def brute_closure(gens):
    """Independent oracle: enumerate the full box under each generator."""
    out = set()
    for g in gens:
        out |= set(itertools.product(*(range(v + 1) for v in g)))
    return out


def brute_maxima(elems):
    elems = set(elems)
    return {a for a in elems if not any(a != b and leq(a, b) for b in elems)}


class TestMaximalClosure:
    def test_single_generator(self):
        p = maximal_closure(Preordering([(1, 1)]))
        assert p.elements == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_classical_generators(self):
        p = maximal_closure(Preordering([(1, 0), (0, 1)]))
        assert p.elements == frozenset({(0, 0), (1, 0), (0, 1)})

    def test_two_overlapping_generators(self):
        # oracle: brute-force enumeration below either generator; the two
        # 4-element boxes overlap in {(0,0,0), (1,0,0)}, leaving 6 tuples
        gens = [(1, 1, 0), (1, 0, 1)]
        expected = brute_closure(gens)
        assert len(expected) == 6
        assert maximal_closure(Preordering(gens)).elements == frozenset(expected)

    def test_idempotent(self):
        p = Preordering([(2, 1), (0, 3)])
        once = maximal_closure(p)
        assert maximal_closure(once).elements == once.elements


class TestMinimalReduction:
    def test_unique_maximum(self):
        p = Preordering([(0, 0), (1, 0), (1, 1)])
        assert minimal_reduction(p).elements == frozenset({(1, 1)})

    def test_antichain_fixed_point(self):
        p = Preordering([(1, 0), (0, 1)])
        assert minimal_reduction(p).elements == frozenset({(1, 0), (0, 1)})

    @given(st.integers(2, 4).flatmap(
        lambda d: st.lists(st.tuples(*([st.integers(0, 3)] * d)),
                           min_size=1, max_size=20)))
    def test_matches_brute_force_and_roundtrips(self, tuples):
        d = len(tuples[0])
        tuples = tuples + [(3,) * d]  # guarantee coordinate coverage
        p = Preordering(tuples)
        red = minimal_reduction(p)
        assert red.elements == frozenset(brute_maxima(p.elements))
        assert red.elements <= p.elements
        assert p.elements <= maximal_closure(p).elements
        assert maximal_closure(red).elements == maximal_closure(p).elements


class TestClassify:
    def test_standard_ample(self):
        c = classify(Preordering([(1, 1, 1)]))
        assert c.kind == "standard-ample"
        assert c.lambda_max == (1, 1, 1)

    def test_standard_nearly_ample_d3(self):
        c = classify(Preordering([(1, 1, 0), (1, 0, 1)]))
        assert c.kind == "standard-nearly-ample"
        assert c.lambda_max == (1, 1, 1)
        assert set((c.lambda1, c.lambda2)) == {(1, 1, 0), (1, 0, 1)}

    def test_unique_d2_nearly_ample(self):
        c = classify(Preordering([(1, 0), (0, 1)]))
        assert c.kind == "standard-nearly-ample"
        assert c.lambda_max == (1, 1)

    def test_plain_ample(self):
        assert classify(Preordering([(2, 1)])).kind == "ample"

    def test_general(self):
        c = classify(Preordering([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert c.kind == "general"
        assert not c.is_ample

    def test_two_maxima_far_apart_are_general(self):
        # join is two steps above one of the maxima
        assert classify(Preordering([(2, 0), (0, 1)])).kind == "general"


class TestParitySplit:
    def test_d2(self):
        even, odd = parity_split((1, 1))
        assert even == [(0, 0), (1, 1)]
        assert odd == [(0, 1), (1, 0)]

    def test_d3_with_gap(self):
        even, odd = parity_split((1, 0, 1))
        assert even == [(0, 0, 0), (1, 0, 1)]
        assert odd == [(0, 0, 1), (1, 0, 0)]

    def test_counts_full_cube(self):
        even, odd = parity_split((1, 1, 1))
        assert len(even) == len(odd) == 4
        assert even[0] == (0, 0, 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            parity_split((0, 0))

    def test_rejects_multiplicities(self):
        with pytest.raises(ValueError):
            parity_split((2, 0))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=6).filter(lambda l: sum(l) > 0))
    def test_partitions_predecessors(self, lam):
        lam = tuple(lam)
        even, odd = parity_split(lam)
        assert len(even) == len(odd) == 2 ** (weight(lam) - 1)
        assert sorted(even + odd) == predecessors(lam)
        assert even == sorted(even) and odd == sorted(odd)


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Preordering([])

    def test_uncovered_coordinate_rejected(self):
        with pytest.raises(ValueError, match="coordinate"):
            Preordering([(1, 0)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Preordering([(1,), (1, 1)])

    def test_constructors(self):
        assert classical(3).elements == {unit(3, 0), unit(3, 1), unit(3, 2)}
        assert standard_ample(2).elements == {(1, 1)}
        assert standard_nearly_ample(3, 0, 1).elements == {(0, 1, 1), (1, 0, 1)}
        with pytest.raises(ValueError):
            standard_nearly_ample(3, 1, 1)


@given(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=8))
def test_closure_monotone(extra):
    base = {(2, 2)}
    p1 = Preordering(base)
    p2 = Preordering(base | extra)
    assert maximal_closure(p1).elements <= maximal_closure(p2).elements
