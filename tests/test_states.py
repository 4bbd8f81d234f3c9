import random
from math import comb

import numpy as np
import pytest

from rectisolve import tsp
from rectisolve.errors import GuardExceeded, InputError
from rectisolve.states import (
    EVEN,
    MAX_COUNT_H,
    ODD,
    ZERO,
    count_states,
    enumerate_states,
    pack_states,
    render_row,
    unpack_states,
)
from rectisolve.tables import get_space

from reference_oracles import catalan, super_catalan
from reference_states import (
    CrossingPartition,
    OddCountViolation,
    ParityComponentMismatch,
    SingletonNotEven,
    SteinerFrontierState,
    TspFrontierState,
    canonicalize_steiner,
    canonicalize_tsp,
    encode_state,
    enumerate_tuple_states,
    package_states,
    parity_add,
    render_state,
    sorted_tuple_states,
)

# frozen from the published tables for these sequences
TSP_COUNTS = [2, 6, 24, 112, 568, 3032, 16768, 95200, 551616, 3248704]
SCHROEDER = [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859]
STEINER_COUNTS = [2, 5, 15, 51, 188, 731, 2950, 12235, 51822, 223191, 974427]


def positive_count(h, problem):
    """States whose every row carries a component."""
    comp, _ = unpack_states(enumerate_states(h, problem), h, problem)
    return int((comp != 0).all(axis=1).sum())


def test_parity_add_table():
    assert parity_add(ZERO, 0) == ZERO
    assert parity_add(ZERO, 1) == ODD
    assert parity_add(ZERO, 2) == EVEN
    assert parity_add(ODD, 1) == EVEN
    assert parity_add(ODD, 2) == ODD
    assert parity_add(EVEN, 1) == ODD
    assert parity_add(EVEN, 2) == EVEN
    for p in (ZERO, ODD, EVEN):
        assert parity_add(p, 0) == p
    # the tour kernel's literal table is the same arithmetic
    for m in range(3):
        for p in (ZERO, ODD, EVEN):
            assert tsp._PARITY_AFTER[m][p] == parity_add(p, m)


class TestCanonicalize:
    def test_relabeling(self):
        s = canonicalize_tsp(("E", "E", "E"), (7, 7, 9))
        assert s == TspFrontierState((EVEN, EVEN, EVEN), (1, 1, 2))

    def test_crossing(self):
        with pytest.raises(CrossingPartition):
            canonicalize_tsp(("E", "E", "E", "E"), (1, 2, 1, 2))
        with pytest.raises(CrossingPartition):
            canonicalize_steiner((1, 2, 1, 2))

    def test_odd_count(self):
        with pytest.raises(OddCountViolation):
            canonicalize_tsp(("U", "E"), (1, 1))

    def test_singleton(self):
        with pytest.raises(SingletonNotEven):
            canonicalize_tsp(("U",), (1,))

    def test_parity_component_mismatch(self):
        with pytest.raises(ParityComponentMismatch):
            canonicalize_tsp(("0",), (1,))
        with pytest.raises(ParityComponentMismatch):
            canonicalize_tsp(("E",), (None,))

    def test_steiner_examples(self):
        assert canonicalize_steiner((5, 5, None, 5)) == SteinerFrontierState(
            (1, 1, 0, 1)
        )
        assert canonicalize_steiner((None,) * 3) == SteinerFrontierState((0, 0, 0))

    def test_idempotent_and_bijection_invariant(self):
        rng = random.Random(5)
        for state in package_states(5, "tsp"):
            assert canonicalize_tsp(state.parity, state.comp) == state
            labels = sorted(set(c for c in state.comp if c))
            shuffled = labels[:]
            rng.shuffle(shuffled)
            remap = dict(zip(labels, (s + 10 for s in shuffled)))
            raw = tuple(remap.get(c, None) for c in state.comp)
            assert canonicalize_tsp(state.parity, raw) == state


class TestCounts:
    def test_tsp_table(self):
        assert [count_states(h, "tsp") for h in range(1, 11)] == TSP_COUNTS

    def test_steiner_table(self):
        # binomial transform of the Catalan numbers (A007317)
        assert [count_states(h, "steiner") for h in range(1, 12)] == STEINER_COUNTS

    def test_schroeder_numbers(self):
        assert [super_catalan(k) for k in range(11)] == SCHROEDER
        assert super_catalan(5) == 197
        assert super_catalan(9) == 103049

    def test_catalan_closed_form(self):
        assert catalan(4) == 14
        for k in range(12):
            assert catalan(k) == comb(2 * k, k) // (k + 1)

    def test_big_h_exact_integers(self):
        assert count_states(40, "tsp") > 10**25  # stays exact, no overflow

    def test_count_guard(self):
        assert count_states(MAX_COUNT_H, "tsp") > 2**MAX_COUNT_H
        with pytest.raises(GuardExceeded):
            count_states(MAX_COUNT_H + 1, "steiner")


class TestEnumeration:
    @pytest.mark.parametrize("h", range(1, 7))
    def test_tsp_matches_count(self, h):
        assert len(enumerate_states(h, "tsp")) == count_states(h, "tsp")
        assert positive_count(h, "tsp") == super_catalan(h)

    @pytest.mark.parametrize("h", range(1, 8))
    def test_steiner_matches_count(self, h):
        assert len(enumerate_states(h, "steiner")) == count_states(h, "steiner")
        assert positive_count(h, "steiner") == catalan(h)

    def test_known_members(self):
        tour_states3 = set(package_states(3, "tsp"))
        assert len(tour_states3) == 24
        assert TspFrontierState((EVEN,) * 3, (1, 2, 3)) in tour_states3
        assert TspFrontierState((ODD, ODD, EVEN), (1, 1, 2)) in tour_states3
        tree_states3 = set(package_states(3, "steiner"))
        assert len(tree_states3) == 15
        assert SteinerFrontierState((1, 2, 1)) in tree_states3

    def test_h1_contents(self):
        assert package_states(1, "tsp") == [
            TspFrontierState((ZERO,), (0,)),
            TspFrontierState((EVEN,), (1,)),
        ]
        # one 6-bit field per row, (parity << 4) | label
        assert enumerate_states(1, "tsp").tolist() == [0, (EVEN << 4) | 1]
        # (-,-), (1,-), (-,1), (1,1), (1,2): one 4-bit field per row
        keys = [0, 1, 1 << 4, 1 | 1 << 4, 1 | 2 << 4]
        assert enumerate_states(2, "steiner").tolist() == keys

    def test_all_enumerated_states_are_valid(self):
        for state in package_states(5, "tsp"):
            assert canonicalize_tsp(state.parity, state.comp) == state
        for state in package_states(6, "steiner"):
            assert canonicalize_steiner(state.comp) == state

    def test_guard(self):
        with pytest.raises(InputError):
            enumerate_states(0, "tsp")
        with pytest.raises(GuardExceeded):
            enumerate_states(13, "steiner")


REFERENCE_CASES = [("tsp", h) for h in range(1, 8)] + [
    ("steiner", h) for h in range(1, 10)
]


@pytest.mark.parametrize("problem, h", REFERENCE_CASES)
def test_space_matches_reference_enumerator(problem, h):
    # the package's space against the tuple enumerator in encode_state
    # order: the same states, in the same index order, in the same dtypes
    space = get_space(problem, h)
    want = sorted_tuple_states(h, problem)
    comp = np.array([s.comp for s in want], dtype=np.int8)
    parity = None
    if problem == "tsp":
        parity = np.array([s.parity for s in want], dtype=np.int8)
    assert space.keys.dtype == np.int64
    assert np.array_equal(space.keys, pack_states(comp, parity))
    assert space.comp_mat.dtype == np.int8
    assert np.array_equal(space.comp_mat, comp)
    if parity is None:
        assert space.parity_mat is None
    else:
        assert space.parity_mat.dtype == np.int8
        assert np.array_equal(space.parity_mat, parity)
    assert space.keys[0] == 0  # the all-empty state, where every sweep starts
    assert not comp[0].any()


@pytest.mark.parametrize("h", [8, 9])
def test_tour_space_is_tree_space_with_even_parities(h):
    # past the tuple enumerator's reach: the tour space is pinned down by
    # its tree space and the parity rule, however it is built
    keys = enumerate_states(h, "tsp")
    assert (np.diff(keys) > 0).all()
    comp, parity = unpack_states(keys, h, "tsp")
    assert np.array_equal(parity == ZERO, comp == 0)
    for label in range(1, h + 1):
        assert (((comp == label) & (parity == ODD)).sum(axis=1) % 2 == 0).all()
    # each tree state once per U/E choice of its rows but one per component
    tree_keys, copies = np.unique(pack_states(comp, None), return_counts=True)
    assert np.array_equal(tree_keys, enumerate_states(h, "steiner"))
    tree, _ = unpack_states(tree_keys, h, "steiner")
    free_rows = (tree > 0).sum(axis=1) - tree.max(axis=1)
    assert np.array_equal(copies, 2**free_rows)


class TestStateKey:
    def test_roundtrip_tsp(self):
        for h in range(1, 8):
            keys = enumerate_states(h, "tsp")
            comp, parity = unpack_states(keys, h, "tsp")
            assert comp.dtype == parity.dtype == np.int8
            assert np.array_equal(pack_states(comp, parity), keys)

    def test_roundtrip_steiner(self):
        for h in range(1, 10):
            keys = enumerate_states(h, "steiner")
            assert (np.diff(keys) > 0).all()  # ascending, so no key repeats
            comp, parity = unpack_states(keys, h, "steiner")
            assert parity is None and comp.dtype == np.int8
            assert np.array_equal(pack_states(comp, None), keys)

    def test_injective_tsp(self):
        keys = enumerate_states(6, "tsp")
        assert len(np.unique(keys)) == count_states(6, "tsp")
        ref_keys = {encode_state(s) for s in enumerate_tuple_states(6, "tsp")}
        assert len(ref_keys) == count_states(6, "tsp")


class TestRendering:
    def test_tsp_format(self):
        s = canonicalize_tsp(("E", "E", "0"), (1, 2, None))
        assert render_state(s) == "{(E,E,0),(1,2,-)}"
        assert render_row(s.comp, s.parity) == "{(E,E,0),(1,2,-)}"
        assert render_row((1, 1), (ODD, 7)) == "{(U,7),(1,1)}"

    def test_steiner_format(self):
        s = canonicalize_steiner((1, 1, None))
        assert render_state(s) == "(1,1,-)"
        assert render_row(s.comp) == "(1,1,-)"

    def test_render_row_matches_reference(self):
        for state in package_states(4, "tsp"):
            assert render_row(state.comp, state.parity) == render_state(state)
        for state in package_states(5, "steiner"):
            assert render_row(state.comp) == render_state(state)
