import random
from itertools import permutations

import numpy as np
import pytest

from rectisolve.errors import GuardExceeded
from rectisolve.generate import gen_instance
from rectisolve.geometry import l1, make_instance

from reference_oracles import (
    distance_matrix,
    l1_mst,
    steiner_exhaustive,
    steiner_oracle,
    tsp_bruteforce,
)


class TestDistanceMatrix:
    def test_properties(self):
        rng = random.Random(1)
        pts = sorted({(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(8)})
        inst = make_instance(pts)
        d = distance_matrix(inst)
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        n = len(inst.points)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j]


class TestTspBruteforce:
    def test_examples(self):
        assert tsp_bruteforce(make_instance([(0, 0), (10, 0), (0, 5), (10, 5)])) == 30
        assert tsp_bruteforce(make_instance([(0, 0), (4, 0)])) == 8
        assert tsp_bruteforce(make_instance([(3, 3)])) == 0

    def test_agrees_with_unreduced_search(self):
        # direction-halving must not change the minimum
        rng = random.Random(6)
        for _ in range(10):
            pts = sorted({(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(5)})
            inst = make_instance(pts)
            d = distance_matrix(inst)
            n = len(inst.points)
            naive = min(
                sum(d[p[i], p[(i + 1) % n]] for i in range(n))
                for p in permutations(range(n))
            )
            assert tsp_bruteforce(inst) == naive

    def test_guard(self):
        pts = [(i, i % 3) for i in range(11)]
        with pytest.raises(GuardExceeded):
            tsp_bruteforce(make_instance(pts))


class TestSteinerOracle:
    def test_examples(self):
        assert steiner_oracle(make_instance([(0, 0), (8, 3)])) == 11
        assert steiner_oracle(make_instance([(0, 0), (4, 0), (2, 3)])) == 7
        assert steiner_oracle(make_instance([(0, 0), (10, 0), (0, 4), (10, 4)])) == 18
        assert steiner_oracle(make_instance([(0, 0), (10, 0), (0, 5), (10, 5)])) == 20

    def test_against_exhaustive_enumeration(self):
        rng = random.Random(17)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 4)
            pts = sorted({(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(n)})
            if len(pts) < 2:
                continue
            inst = make_instance(pts)
            try:
                expected = steiner_exhaustive(inst)
            except GuardExceeded:
                continue
            assert steiner_oracle(inst) == expected
            checked += 1

    def test_mst_bracket(self):
        rng = random.Random(19)
        for _ in range(20):
            inst = gen_instance(6, 3, 30, 12, rng.randint(0, 10**6))
            value = steiner_oracle(inst)
            mst = l1_mst(inst)
            assert value <= mst
            assert 2 * value >= mst

    def test_guards(self):
        assert steiner_oracle(make_instance([(1, 1)])) == 0
        with pytest.raises(GuardExceeded):
            steiner_oracle(make_instance([(i, i % 4) for i in range(11)]))


def test_mst_matches_pairwise_for_two_points():
    inst = make_instance([(0, 0), (7, 5)])
    assert l1_mst(inst) == l1(inst.points[0], inst.points[1]) == 12
