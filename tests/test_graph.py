import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicff.graph import (GeneratorSpec, Topology, ba_edge_count,
                            generate, has_cycle, predecessors, to_edge_list)


class TestFixedGenerators:
    def test_chain_n4(self):
        t = generate(GeneratorSpec("chain", 4))
        assert t.synapses == ((0, 1), (1, 2), (2, 3))

    def test_cycle_n4(self):
        t = generate(GeneratorSpec("cycle", 4))
        assert (3, 0) in t.synapses
        assert len(t.synapses) == 4

    def test_complete_n4(self):
        t = generate(GeneratorSpec("complete", 4))
        assert len(t.synapses) == 12
        assert set(t.synapses) == {(i, j) for i in range(4) for j in range(4)
                                   if i != j}

    def test_chain_acyclic_cycle_and_complete_cyclic(self):
        assert not has_cycle(generate(GeneratorSpec("chain", 5)))
        assert has_cycle(generate(GeneratorSpec("cycle", 3)))
        assert has_cycle(generate(GeneratorSpec("complete", 2)))


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Topology(n, tuple(edges))


def reaches_itself(t: Topology) -> bool:
    """Oracle: Warshall's transitive closure has a true diagonal entry."""
    reach = np.zeros((t.n_neurons, t.n_neurons), dtype=bool)
    for src, dst in t.synapses:
        reach[src, dst] = True
    for k in range(t.n_neurons):
        reach |= reach[:, [k]] & reach[[k], :]
    return bool(reach.diagonal().any())


@given(digraphs())
@settings(max_examples=400, deadline=None)
def test_has_cycle_matches_reachability_oracle(t):
    assert has_cycle(t) == reaches_itself(t)


class TestWS:
    def test_p_zero_is_ring_lattice(self):
        t = generate(GeneratorSpec("ws", 8, ws_k=2, ws_p=0.0))
        # Brute-force lattice: each node linked to its immediate neighbours.
        expected = set()
        for u in range(8):
            v = (u + 1) % 8
            expected |= {(u, v), (v, u)}
        assert set(t.synapses) == expected
        for j in range(8):
            assert len(predecessors(t, j)) == 2
            assert sum(1 for src, _ in t.synapses if src == j) == 2

    def test_rewiring_preserves_edge_count(self):
        for seed in range(5):
            t = generate(GeneratorSpec("ws", 10, ws_k=4, ws_p=0.5, seed=seed))
            assert len(t.synapses) == 10 * 4  # 2 * undirected count

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("ws", 8, ws_k=3))
        with pytest.raises(ValueError):
            generate(GeneratorSpec("ws", 4, ws_k=4))


class TestBA:
    @pytest.mark.parametrize("n,m", [(3, 1), (5, 2), (10, 3), (20, 4)])
    def test_edge_count_matches_brute_force(self, n, m):
        for seed in range(3):
            t = generate(GeneratorSpec("ba", n, ba_m=m, seed=seed))
            undirected = {frozenset(e) for e in t.synapses}
            assert len(undirected) == ba_edge_count(n, m)
            # Every directed pair present both ways.
            assert len(t.synapses) == 2 * len(undirected)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("ba", 4, ba_m=4))
        with pytest.raises(ValueError):
            generate(GeneratorSpec("ba", 4, ba_m=0))


class TestPredecessors:
    def test_complete(self):
        t = generate(GeneratorSpec("complete", 4))
        assert predecessors(t, 2) == [0, 1, 3]

    def test_chain_head(self):
        t = generate(GeneratorSpec("chain", 4))
        assert predecessors(t, 0) == []

    def test_cycle_closure(self):
        t = generate(GeneratorSpec("cycle", 4))
        assert predecessors(t, 0) == [3]

    def test_out_of_range(self):
        t = generate(GeneratorSpec("chain", 3))
        with pytest.raises(ValueError):
            predecessors(t, 3)

    @given(st.sampled_from(["chain", "cycle", "complete", "ws", "ba"]),
           st.integers(4, 10), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_predecessor_concat_enumerates_synapses_once(self, kind, n, seed):
        t = generate(GeneratorSpec(kind, n, seed=seed))
        enumerated = [(i, j) for j in range(n) for i in predecessors(t, j)]
        assert sorted(enumerated) == sorted(t.synapses)


class TestTopologyInvariants:
    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Topology(3, ((0, 0),))

    def test_no_duplicates(self):
        with pytest.raises(ValueError):
            Topology(3, ((0, 1), (0, 1)))

    def test_index_range(self):
        with pytest.raises(ValueError):
            Topology(2, ((0, 2),))

    def test_canonical_sort(self):
        t = Topology(3, ((2, 0), (0, 1), (1, 0)))
        assert t.synapses == ((1, 0), (2, 0), (0, 1))


class TestDeterminismAndSerialization:
    @pytest.mark.parametrize("kind", ["ws", "ba"])
    def test_same_seed_same_bytes(self, kind):
        a = to_edge_list(generate(GeneratorSpec(kind, 12, seed=7)))
        b = to_edge_list(generate(GeneratorSpec(kind, 12, seed=7)))
        assert a == b

    def test_different_seed_usually_differs(self):
        outs = {to_edge_list(generate(GeneratorSpec("ws", 16, ws_p=0.5,
                                                    seed=s)))
                for s in range(8)}
        assert len(outs) > 1

    def test_edge_list_format(self):
        text = to_edge_list(generate(GeneratorSpec("chain", 3)))
        assert text == "n 3\n0 1\n1 2\n"
