"""ObserverLayer: soundness, scalar/batch agreement, selection, attach,
and its survivor cut and cost on search-heavy traffic."""

import time

import numpy as np
import pytest

import repro
from repro.baselines.base import create_index
from repro.exceptions import ReproError
from repro.graph.generators import crown_graph, random_dag
from repro.perf.observers import ObserverLayer, build_observers
from tests.conftest import all_pairs, reachability_oracle

GRAPHS = [
    random_dag(80, avg_degree=2.0, seed=1),
    random_dag(50, avg_degree=3.5, seed=7),
    crown_graph(6),
]


class TestSoundness:
    """Every observer verdict must agree with exact reachability."""

    @pytest.mark.parametrize("k", [0, 1, 4, 16])
    @pytest.mark.parametrize(
        "graph", GRAPHS, ids=["sparse", "dense", "crown"]
    )
    def test_classify_never_lies(self, graph, k):
        layer = build_observers(graph, k=k)
        oracle = reachability_oracle(graph)
        pairs = all_pairs(graph)
        sources = np.array([u for u, _ in pairs])
        targets = np.array([v for _, v in pairs])
        positive, negative = layer.classify(sources, targets)
        assert not (positive & negative).any(), "masks must be disjoint"
        for (u, v), pos, neg in zip(pairs, positive, negative):
            if u == v:
                continue  # reflexive pairs are the engine's concern
            if pos:
                assert oracle(u, v) is True, f"false positive on {(u, v)}"
            if neg:
                assert oracle(u, v) is False, f"false negative on {(u, v)}"

    @pytest.mark.parametrize("k", [0, 8])
    def test_decide_matches_classify(self, k):
        graph = random_dag(60, avg_degree=2.5, seed=3)
        layer = build_observers(graph, k=k)
        pairs = [(u, v) for u, v in all_pairs(graph) if u != v]
        sources = np.array([u for u, _ in pairs])
        targets = np.array([v for _, v in pairs])
        positive, negative = layer.classify(sources, targets)
        for (u, v), pos, neg in zip(pairs, positive, negative):
            expected = True if pos else False if neg else None
            assert layer.decide(u, v) is expected

    def test_decide_reads_plain_ints_of_the_same_buffers(self):
        # The scalar checks index memoryviews over the numpy fields:
        # Python ints, no copy, and a pickled layer rebuilds them.
        import pickle

        layer = build_observers(random_dag(60, avg_degree=2.5, seed=3), k=4)
        assert type(layer._t1[0]) is int
        for name in ("t1", "t2", "fmax", "bmin"):
            view = getattr(layer, "_" + name)
            assert np.shares_memory(np.asarray(view), getattr(layer, name))
        clone = pickle.loads(pickle.dumps(layer))
        pairs = [(u, v) for u in range(60) for v in range(60) if u != v]
        assert [clone.decide(u, v) for u, v in pairs] == [
            layer.decide(u, v) for u, v in pairs
        ]


class TestSelection:
    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            build_observers(random_dag(10, avg_degree=1.0, seed=0), k=-1)

    def test_k_clamped_to_vertex_count(self):
        graph = random_dag(5, avg_degree=1.0, seed=0)
        layer = build_observers(graph, k=64)
        assert layer.k <= graph.num_vertices
        assert len(set(layer.supports.tolist())) == layer.k

    def test_zero_k_layer_has_no_supports(self):
        graph = random_dag(30, avg_degree=2.0, seed=2)
        layer = build_observers(graph, k=0)
        assert layer.k == 0
        assert layer.fwd_bits.shape == (graph.num_vertices, 0)
        sources = np.arange(graph.num_vertices - 1)
        positive, _ = layer.classify(sources, sources + 1)
        assert not positive.any()

    def test_memory_bytes_counts_every_array(self):
        graph = random_dag(40, avg_degree=2.0, seed=4)
        layer = build_observers(graph, k=8)
        assert layer.memory_bytes() >= 4 * 8 * graph.num_vertices
        assert repr(layer).startswith("<ObserverLayer")


class TestAttach:
    def test_attach_and_property(self):
        graph = random_dag(30, avg_degree=2.0, seed=5)
        index = create_index("feline", graph).build()
        assert index.observers is None
        layer = build_observers(graph, k=4)
        assert index.attach_observers(layer) is layer
        assert index.observers is layer
        assert index.attach_observers(None) is None
        assert index.observers is None

    def test_vertex_count_mismatch_rejected(self):
        index = create_index(
            "feline", random_dag(30, avg_degree=2.0, seed=5)
        ).build()
        layer = build_observers(random_dag(20, avg_degree=2.0, seed=5), k=2)
        with pytest.raises(ReproError):
            index.attach_observers(layer)


class TestMonotonicity:
    """Observers only ever shrink the survivor set."""

    @pytest.mark.parametrize("method", ["feline", "grail", "bfs"])
    def test_searches_never_increase(self, method):
        graph = random_dag(80, avg_degree=2.0, seed=9)
        pairs = all_pairs(graph)
        plain = create_index(method, graph).build()
        plain.query_many(pairs)
        observed = create_index(method, graph).build()
        observed.attach_observers(build_observers(graph, k=8))
        assert observed.query_many(pairs) == plain.query_many(pairs)
        assert observed.stats.searches <= plain.stats.searches

    def test_observers_decide_on_crown_graph(self):
        # Crown graphs defeat FELINE's cuts; supporting vertices still
        # collapse most pairs, which is the whole point of the layer.
        graph = crown_graph(6)
        pairs = all_pairs(graph)
        plain = create_index("feline", graph).build()
        plain.query_many(pairs)
        observed = create_index("feline", graph).build()
        observed.attach_observers(build_observers(graph, k=12))
        observed.query_many(pairs)
        hits = (
            observed.stats.observer_positive
            + observed.stats.observer_negative
        )
        assert hits > 0
        assert observed.stats.searches < plain.stats.searches


class TestFacade:
    def test_observers_knob(self):
        edges = [(0, 1), (1, 2), (2, 3), (4, 3), (3, 0)]
        plain = repro.Reachability(edges)
        observed = repro.Reachability(edges, observers=4)
        pairs = [(u, v) for u in range(5) for v in range(5)]
        assert observed.reachable_many(pairs) == plain.reachable_many(pairs)

    def test_api_build_index_forwards(self):
        oracle = repro.api.build_index(
            [(0, 1), (1, 2)], observers=2
        )
        assert oracle.index.observers is not None
        assert oracle.reachable(0, 2) is True
        assert oracle.reachable(2, 0) is False


class TestRoundTripPersistence:
    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("k", [0, 8])
    def test_save_load_preserves_layer(self, tmp_path, mmap, k):
        from repro.core.persistence import load_index, save_index
        from repro.core.query import FelineIndex

        graph = random_dag(60, avg_degree=2.0, seed=6)
        index = FelineIndex(graph).build()
        index.attach_observers(build_observers(graph, k=k))
        path = tmp_path / "observed.bin"
        save_index(index, path)
        loaded = load_index(graph, path, mmap=mmap)
        assert loaded.observers is not None
        assert loaded.observers.k == index.observers.k
        pairs = all_pairs(graph)
        assert loaded.query_many(pairs) == index.query_many(pairs)
        # The scalar chain reads the mapped pages as plain ints, even
        # where the file leaves them unaligned.
        for tier in ("python", None):
            loaded.set_kernel(tier)
            assert [loaded.query(u, v) for u, v in pairs] == [
                index.query(u, v) for u, v in pairs
            ]
        reloaded = ObserverLayer(
            t1=loaded.observers.t1,
            t2=loaded.observers.t2,
            fmax=loaded.observers.fmax,
            bmin=loaded.observers.bmin,
            supports=loaded.observers.supports,
            fwd_bits=loaded.observers.fwd_bits,
            bwd_bits=loaded.observers.bwd_bits,
        )
        np.testing.assert_array_equal(reloaded.t1, index.observers.t1)

    def test_v1_cannot_carry_observers(self, tmp_path):
        from repro.core.persistence import save_index
        from repro.core.query import FelineIndex
        from repro.exceptions import PersistenceError

        graph = random_dag(20, avg_degree=2.0, seed=6)
        index = FelineIndex(graph).build()
        index.attach_observers(build_observers(graph, k=2))
        with pytest.raises(PersistenceError):
            save_index(index, tmp_path / "v1.bin", version=1)


class TestSearchHeavyContract:
    """On cut survivors, 16 observers decide a real share of the batch
    (O'Reach's claim) and their pre-pass never costs more than the
    searches it saves.  The survivor rates are deterministic; the
    throughput floor is a best-of-rounds timing, legs interleaved."""

    K = 16
    ROUNDS = 5

    def _pair(self, graph, method):
        off = create_index(method, graph).build()
        on = create_index(method, graph).build()
        on.attach_observers(build_observers(graph, k=self.K))
        return off, on

    @pytest.mark.parametrize("method", ["feline", "feline-b"])
    def test_survivor_rate_drops_by_a_tenth(self, search_heavy, method):
        graph, pairs = search_heavy
        off, on = self._pair(graph, method)
        assert on.query_many(pairs) == off.query_many(pairs)
        rate_off = off.stats.searches / len(pairs)
        rate_on = on.stats.searches / len(pairs)
        assert 1 - rate_on / rate_off >= 0.10, (rate_off, rate_on)

    @pytest.mark.parametrize("method", ["feline", "feline-b"])
    def test_throughput_holds_three_tenths(self, search_heavy, method):
        graph, pairs = search_heavy
        legs = self._pair(graph, method)
        best = [float("inf")] * len(legs)
        for _ in range(self.ROUNDS):
            for leg, index in enumerate(legs):
                start = time.perf_counter()
                index.query_many(pairs)
                best[leg] = min(best[leg], time.perf_counter() - start)
        off_s, on_s = best
        assert off_s / on_s >= 0.3, (off_s, on_s)
