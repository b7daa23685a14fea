"""Tests for the batch query engine (repro.engine)."""

from __future__ import annotations

import random

import pytest

from repro.engine import QueryEngine
from repro.engine.kernels import build_kernel
from repro.exceptions import LabelingError
from repro.graphs.digraph import DiGraph
from repro.labeling.registry import available_schemes, build_index
from repro.skeleton.skl import SkeletonLabeler
from repro.workflow.run import RunVertex


def small_dag() -> DiGraph:
    return DiGraph(
        edges=[
            ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
            ("d", "e"), ("c", "f"), ("x", "y"),
        ]
    )


def all_pairs(graph: DiGraph):
    vertices = graph.vertices()
    return [(u, v) for u in vertices for v in vertices]


class TestEngineOverSchemes:
    @pytest.mark.parametrize("scheme", sorted(set(available_schemes()) - {"interval"}))
    def test_batch_matches_single_on_dag(self, scheme):
        graph = small_dag()
        index = build_index(scheme, graph)
        engine = QueryEngine(index)
        pairs = all_pairs(graph)
        expected = [index.reaches(u, v) for u, v in pairs]
        assert engine.reaches_batch(pairs) == expected

    def test_batch_matches_single_on_forest_interval(self):
        forest = DiGraph(edges=[("r", "a"), ("r", "b"), ("a", "c"), ("s", "t")])
        index = build_index("interval", forest)
        engine = QueryEngine(index)
        pairs = all_pairs(forest)
        expected = [index.reaches(u, v) for u, v in pairs]
        assert engine.reaches_batch(pairs) == expected

    def test_batch_matches_single_on_labeled_run(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        vertices = paper_labeled_run.run.vertices()
        pairs = [(u, v) for u in vertices for v in vertices]
        expected = [paper_labeled_run.reaches(u, v) for u, v in pairs]
        assert engine.reaches_batch(pairs) == expected

    @pytest.mark.parametrize("spec_scheme", ["tcm", "bfs", "tree-cover", "chain", "2-hop"])
    def test_batch_matches_single_across_spec_schemes(
        self, synthetic_spec, synthetic_run, spec_scheme, rng
    ):
        labeled = SkeletonLabeler(synthetic_spec, spec_scheme).label_run(synthetic_run.run)
        engine = QueryEngine(labeled)
        vertices = synthetic_run.run.vertices()
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(500)]
        expected = [labeled.reaches(u, v) for u, v in pairs]
        assert engine.reaches_batch(pairs) == expected


class TestKernelDispatch:
    def test_numpy_kernels_selected(self, paper_labeled_run):
        graph = small_dag()
        assert QueryEngine(paper_labeled_run).kernel_name == "numpy-skl"
        assert QueryEngine(build_index("tcm", graph)).kernel_name == "numpy-tcm"
        forest = DiGraph(edges=[("r", "a"), ("r", "b")])
        assert QueryEngine(build_index("interval", forest)).kernel_name == "numpy-interval"
        assert QueryEngine(build_index("chain", graph)).kernel_name == "numpy-chain"
        assert (
            QueryEngine(build_index("tree-cover", graph)).kernel_name
            == "numpy-tree-cover"
        )
        assert QueryEngine(build_index("2-hop", graph)).kernel_name == "numpy-2hop"

    def test_generic_kernel_for_traversal(self):
        graph = small_dag()
        assert QueryEngine(build_index("bfs", graph)).kernel_name == "python-generic"
        assert QueryEngine(build_index("dfs", graph)).kernel_name == "python-generic"

    def test_skeleton_kernel_fallthrough_without_dense_matrix(
        self, paper_labeled_run, monkeypatch
    ):
        # Past DENSE_SPEC_LIMIT no dense spec matrix is built (for any spec
        # scheme, TCM included) and fall-throughs go through the spec index.
        import repro.engine.kernels as kernels

        monkeypatch.setattr(kernels, "DENSE_SPEC_LIMIT", 2)
        engine = QueryEngine(paper_labeled_run)
        assert engine.kernel_name == "numpy-skl"
        assert engine._kernel._matrix is None
        vertices = paper_labeled_run.run.vertices()
        pairs = [(u, v) for u in vertices for v in vertices]
        expected = [paper_labeled_run.reaches(u, v) for u, v in pairs]
        assert engine.reaches_batch(pairs) == expected

    def test_build_kernel_duck_types(self):
        class FakeIndex:
            def label_of(self, vertex):
                return vertex

            def reaches_labels(self, a, b):
                return a <= b

            def reaches(self, a, b):
                return self.reaches_labels(a, b)

        kernel = build_kernel(FakeIndex())
        assert kernel.name == "python-generic"
        assert kernel.batch([(1, 2), (3, 1)]) == [True, False]


class TestBatchSemantics:
    def test_empty_batch(self, paper_labeled_run):
        assert QueryEngine(paper_labeled_run).reaches_batch([]) == []

    def test_duplicate_pairs_answered_consistently(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        a = RunVertex("a", 1)
        h = RunVertex("h", 1)
        answers = engine.reaches_batch([(a, h), (a, h), (h, a), (a, h)])
        assert answers == [True, True, False, True]

    def test_unknown_vertex_raises_labeling_error(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        ghost = RunVertex("ghost", 1)
        real = RunVertex("a", 1)
        with pytest.raises(LabelingError):
            engine.reaches_batch([(real, ghost)])
        with pytest.raises(LabelingError):
            engine.reaches(ghost, real)

    def test_reaches_pairs_zips(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        sources = [RunVertex("a", 1), RunVertex("h", 1)]
        targets = [RunVertex("h", 1), RunVertex("a", 1)]
        assert engine.reaches_pairs(sources, targets) == [True, False]

    def test_generator_input_accepted(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        vertices = paper_labeled_run.run.vertices()
        generator = ((u, v) for u in vertices[:4] for v in vertices[:4])
        expected = [
            paper_labeled_run.reaches(u, v) for u in vertices[:4] for v in vertices[:4]
        ]
        assert engine.reaches_batch(generator) == expected


class TestHotPairCache:
    def test_point_queries_hit_cache(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        a, h = RunVertex("a", 1), RunVertex("h", 1)
        assert engine.reaches(a, h) is True
        assert engine.reaches(a, h) is True
        assert engine.stats.queries == 2
        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_hit_rate == 0.5

    def test_cache_bounded_by_capacity(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run, cache_size=4)
        vertices = paper_labeled_run.run.vertices()
        rng = random.Random(3)
        for _ in range(50):
            engine.reaches(rng.choice(vertices), rng.choice(vertices))
        assert len(engine._pair_cache) <= 4

    def test_cache_disabled(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run, cache_size=0)
        a, h = RunVertex("a", 1), RunVertex("h", 1)
        assert engine.reaches(a, h) is True
        assert engine.reaches(a, h) is True
        assert engine.stats.cache_hits == 0
        assert len(engine._pair_cache) == 0

    def test_negative_cache_size_rejected(self, paper_labeled_run):
        with pytest.raises(ValueError):
            QueryEngine(paper_labeled_run, cache_size=-1)

    def test_unstable_spec_index_is_never_snapshotted(self):
        # A bfs-backed spec index answers from the live specification graph;
        # that instability must propagate through SkeletonLabeledRun so the
        # engine neither pair-caches nor freezes spec reachability.
        from conftest import make_paper_run, make_paper_specification

        spec = make_paper_specification()
        run = make_paper_run(spec)
        labeled = SkeletonLabeler(spec, "bfs").label_run(run)
        assert labeled.stable_labels is False
        engine = QueryEngine(labeled)
        assert engine.cache_size == 0
        vertices = run.vertices()
        pairs = [(u, v) for u in vertices for v in vertices]
        assert engine.reaches_batch(pairs) == [
            labeled.reaches(u, v) for u, v in pairs
        ]
        assert engine._kernel._matrix is None
        # after a spec mutation, batch and per-pair must still agree
        spec.graph.add_edge("c", "d")
        assert engine.reaches_batch(pairs) == [
            labeled.reaches(u, v) for u, v in pairs
        ]

    def test_unstable_index_labels_not_cached_across_batches(self):
        # An index that declares stable_labels = False (e.g. OnlineRun, whose
        # coordinates shift as copies arrive) must be re-resolved every batch.
        class MutableLabelIndex:
            stable_labels = False

            def __init__(self):
                self.labels = {"a": 1, "b": 2}

            def label_of(self, vertex):
                return self.labels[vertex]

            def reaches_labels(self, first, second):
                return first <= second

            def reaches(self, source, target):
                return self.reaches_labels(self.label_of(source), self.label_of(target))

        index = MutableLabelIndex()
        engine = QueryEngine(index)
        assert engine.cache_size == 0
        assert engine.reaches_batch([("b", "a")]) == [False]
        index.labels["b"] = 0  # labels shifted, like an online re-encoding
        assert engine.reaches_batch([("b", "a")]) == [True]
        assert engine.reaches("b", "a") is True

    def test_online_run_declares_unstable_labels(self):
        from repro.skeleton.online import OnlineRun

        assert OnlineRun.stable_labels is False

    def test_kernel_is_compiled_lazily(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        assert engine._compiled_kernel is None
        engine.reaches(RunVertex("a", 1), RunVertex("h", 1))  # point path only
        assert engine._compiled_kernel is None
        engine.reaches_batch([(RunVertex("a", 1), RunVertex("h", 1))])
        assert engine._compiled_kernel is not None

    def test_live_traversal_indexes_are_never_memoized(self):
        # Traversal schemes answer from the live graph (stable_labels is
        # False), so the engine must keep point and batch queries in
        # agreement across graph mutations by not caching their answers.
        graph = DiGraph(edges=[("a", "b"), ("c", "d")])
        index = build_index("bfs", graph)
        engine = QueryEngine(index)
        assert engine.cache_size == 0
        assert engine.reaches("b", "c") is False
        assert engine.reaches_batch([("b", "c")]) == [False]
        graph.add_edge("b", "c")
        assert engine.reaches("b", "c") is True
        assert engine.reaches_batch([("b", "c")]) == [True]

    def test_clear_cache_and_stats_reset(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        a, h = RunVertex("a", 1), RunVertex("h", 1)
        engine.reaches(a, h)
        engine.reaches_batch([(a, h)])
        assert engine.stats.queries == 2
        assert engine.stats.batches == 1
        engine.clear_cache()
        assert len(engine._pair_cache) == 0
        engine.stats.reset()
        assert engine.stats.queries == 0
        assert engine.stats.cache_hit_rate == 0.0

    def test_lru_evicts_least_recently_used(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run, cache_size=2)
        vertices = paper_labeled_run.run.vertices()
        first, second, third = vertices[0], vertices[1], vertices[2]
        engine.reaches(first, second)   # cache: (f, s)
        engine.reaches(second, third)   # cache: (f, s), (s, t)
        engine.reaches(first, second)   # touch (f, s) -> (s, t) is now LRU
        engine.reaches(third, first)    # evicts (s, t)
        # the cache is keyed on handle pairs
        first, second, third = map(engine.intern, (first, second, third))
        assert (first, second) in engine._pair_cache
        assert (second, third) not in engine._pair_cache
