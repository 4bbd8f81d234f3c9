import random
from math import comb

import pytest

from rectisolve.errors import (
    CrossingPartition,
    GuardExceeded,
    OddCountViolation,
    ParityComponentMismatch,
    SingletonNotEven,
)
from rectisolve.states import (
    EVEN,
    ODD,
    ZERO,
    SteinerFrontierState,
    TspFrontierState,
    canonicalize_steiner,
    canonicalize_tsp,
    catalan,
    count_states,
    decode_state,
    encode_state,
    enumerate_states,
    parity_add,
    parse_state,
    render_state,
    super_catalan,
)

from reference_oracles import positive_states

# frozen from the published tables for these sequences
TSP_COUNTS = [2, 6, 24, 112, 568, 3032, 16768, 95200, 551616, 3248704]
SCHROEDER = [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859]
STEINER_COUNTS = [2, 5, 15, 51, 188, 731, 2950, 12235, 51822, 223191, 974427]


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
        for state in sorted(enumerate_states(5, "tsp"), key=encode_state):
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


class TestEnumeration:
    @pytest.mark.parametrize("h", range(1, 7))
    def test_tsp_matches_count(self, h):
        states = enumerate_states(h, "tsp")
        assert len(states) == count_states(h, "tsp")
        assert len(positive_states(states)) == super_catalan(h)

    @pytest.mark.parametrize("h", range(1, 8))
    def test_steiner_matches_count(self, h):
        states = enumerate_states(h, "steiner")
        assert len(states) == count_states(h, "steiner")
        assert len(positive_states(states)) == catalan(h)

    def test_known_members(self):
        tour_states3 = enumerate_states(3, "tsp")
        assert len(tour_states3) == 24
        assert TspFrontierState((EVEN,) * 3, (1, 2, 3)) in tour_states3
        assert TspFrontierState((ODD, ODD, EVEN), (1, 1, 2)) in tour_states3
        tree_states3 = enumerate_states(3, "steiner")
        assert len(tree_states3) == 15
        assert SteinerFrontierState((1, 2, 1)) in tree_states3

    def test_h1_contents(self):
        assert enumerate_states(1, "tsp") == {
            TspFrontierState((ZERO,), (0,)),
            TspFrontierState((EVEN,), (1,)),
        }

    def test_all_enumerated_states_are_valid(self):
        for state in enumerate_states(5, "tsp"):
            assert canonicalize_tsp(state.parity, state.comp) == state
        for state in enumerate_states(6, "steiner"):
            assert canonicalize_steiner(state.comp) == state

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_states(0, "tsp")
        with pytest.raises(GuardExceeded):
            enumerate_states(13, "steiner")


class TestStateKey:
    def test_roundtrip_tsp(self):
        for h in range(1, 8):
            for state in enumerate_states(h, "tsp"):
                assert decode_state(encode_state(state), h, "tsp") == state

    def test_roundtrip_steiner(self):
        for h in range(1, 10):
            seen = set()
            for state in enumerate_states(h, "steiner"):
                key = encode_state(state)
                assert key not in seen
                seen.add(key)
                assert decode_state(key, h, "steiner") == state

    def test_injective_tsp(self):
        keys = {encode_state(s) for s in enumerate_states(6, "tsp")}
        assert len(keys) == count_states(6, "tsp")


class TestRendering:
    def test_tsp_format(self):
        s = canonicalize_tsp(("E", "E", "0"), (1, 2, None))
        assert render_state(s) == "{(E,E,0),(1,2,-)}"
        assert parse_state("{(E,E,0),(1,2,-)}", "tsp") == s

    def test_steiner_format(self):
        s = canonicalize_steiner((1, 1, None))
        assert render_state(s) == "(1,1,-)"
        assert parse_state("(1, 1, -)", "steiner") == s

    def test_roundtrip_everything(self):
        for state in enumerate_states(4, "tsp"):
            assert parse_state(render_state(state), "tsp") == state
