"""Self-time and span-tree arithmetic, and how traced units are recorded."""

from __future__ import annotations

import sys
import types

import pytest

from repro.core.pipeline import StudyConfig, run_study
from repro.obs.trace import Span as ProgramSpan
from repro.obs.trace import Tracer
from repro.store import StudyStore
from repro.topology.generator import InternetConfig

from perfbench.layers import COLD_LEG, HOOKS, LAYERS, WARM_LEG, layer_metrics
from perfbench.tracing import SETUP_UNIT, Hook, Span, SpanRecorder, self_times, totals_by_name


def _span(span_id, name, start, end, parent=None, unit=1, **attrs):
    return Span(span_id, name, float(start), float(end), parent, unit, attrs)


class TestSelfTime:
    def test_nested_store_get_over_rehydrate(self):
        """StudyStore.get -> run_study -> topology: each level keeps only its own time."""
        spans = [
            _span(1, "warm", 0, 10),
            _span(2, "store.get", 1, 4, parent=1),
            _span(3, "sweep.rehydrate", 1.5, 3.5, parent=2),
            _span(4, "topology.generate", 2, 3, parent=3),
        ]
        assert self_times(spans) == pytest.approx({1: 7.0, 2: 1.0, 3: 1.0, 4: 1.0})
        # Self times of a tree add up to the root's duration.
        assert sum(self_times(spans).values()) == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        spans = [_span(1, "p", 0, 10), _span(2, "a", 1, 5, parent=1), _span(3, "b", 3, 7, parent=1)]
        assert self_times(spans)[1] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [_span(1, "p", 0, 10), _span(2, "a", 8, 12, parent=1)]
        assert self_times(spans)[1] == pytest.approx(8.0)

    def test_grandchildren_do_not_reduce_the_grandparent_twice(self):
        spans = [
            _span(1, "p", 0, 10),
            _span(2, "c", 2, 8, parent=1),
            _span(3, "g", 3, 7, parent=2),
        ]
        assert self_times(spans) == pytest.approx({1: 4.0, 2: 2.0, 3: 4.0})

    def test_totals_by_name_counts_recursion_once(self):
        spans = [
            _span(1, "store.get", 0, 10),
            _span(2, "store.get", 2, 6, parent=1),
            _span(3, "store.get", 20, 21),
        ]
        totals = totals_by_name(spans)["store.get"]
        assert totals.calls == 3
        assert totals.self_s == pytest.approx(6.0 + 4.0 + 1.0)
        assert totals.total_s == pytest.approx(10.0 + 1.0)


def _ticking_tracer() -> Tracer:
    ticks = iter(range(1000))
    return Tracer(clock=lambda: float(next(ticks)))


class TestRecorder:
    def test_program_spans_are_named_by_layer(self):
        tracer = _ticking_tracer()
        with tracer.span(WARM_LEG):
            with tracer.span("sweep"):
                with tracer.span("store.get"):
                    with tracer.span("study", rehydrated=True):
                        with tracer.span("topology"):
                            pass
                        with tracer.span("population"):
                            pass
                with tracer.span("study", rehydrated=False):
                    with tracer.span("clustering.fanout", workers=2, n_shards=1):
                        worker = ProgramSpan(tracer, "clustering.shard", {"worker": "pid-1"})
                        worker.children = [ProgramSpan(tracer, "cluster.isp", {}) for _ in range(3)]
                        tracer.adopt([worker])
        with tracer.span("study", rehydrated=False):
            pass
        recorder = SpanRecorder([], LAYERS)
        recorder.adopt(tracer.roots, unit=2)
        by_id = {span.span_id: span for span in recorder.spans}
        tree = [
            (span.name, by_id[span.parent].name if span.parent else None) for span in recorder.spans
        ]
        assert tree == [
            (WARM_LEG, None),
            ("sweep.run", WARM_LEG),
            ("store.get", "sweep.run"),
            ("sweep.rehydrate", "store.get"),
            ("topology.generate", "sweep.rehydrate"),
            # An unmapped stage belongs to its parent's layer.
            ("sweep.rehydrate", "sweep.rehydrate"),
            ("sweep.cell", "sweep.run"),
            # The worker's spans are left out; its cells are counted.
            ("clustering.fanout", "sweep.cell"),
            ("study.run", None),
        ]
        assert recorder.counts[(2, "clustering.cells")] == 3
        assert recorder.spans[0].duration == pytest.approx(tracer.roots[0].duration_s)

    def test_unit_wraps_hooks_and_restores_them(self, monkeypatch):
        module = types.ModuleType("perfbench_fake_program")

        class Store:
            def get(self, key):
                return module.compute(key) if key else None

        module.Store = Store
        module.compute = lambda key: key * 2
        monkeypatch.setitem(sys.modules, module.__name__, module)
        hooks = [
            Hook(f"{module.__name__}:Store.get", "store.get"),
            Hook(f"{module.__name__}:compute", "store.key"),
        ]
        original_get = Store.get
        recorder = SpanRecorder(hooks, LAYERS)
        with recorder.unit(3):
            assert Store().get(21) == 42
            assert Store().get(0) is None
        assert Store.get is original_get
        assert Store().get(1) == 2  # restored: no more spans
        assert [(span.name, span.parent) for span in recorder.spans] == [
            ("store.get", None),
            ("store.key", recorder.spans[0].span_id),
            ("store.get", None),
        ]
        assert all(span.unit == 3 for span in recorder.spans)

    def test_hooks_are_restored_when_the_unit_raises(self, monkeypatch):
        module = types.ModuleType("perfbench_fake_program")
        module.compute = lambda: 1
        original = module.compute
        monkeypatch.setitem(sys.modules, module.__name__, module)
        recorder = SpanRecorder([Hook(f"{module.__name__}:compute", "store.key")], LAYERS)
        with pytest.raises(ValueError):
            with recorder.unit(1):
                module.compute()
                raise ValueError("boom")
        assert module.compute is original
        assert [span.name for span in recorder.spans] == ["store.key"]

    def test_traced_study_put_records_one_key_span_and_its_bytes(self, tmp_path):
        study = run_study(
            StudyConfig(
                internet=InternetConfig(seed=3, n_access_isps=60, n_ixps=22),
                n_vantage_points=32,
                seed=3,
            )
        )
        store = StudyStore(tmp_path / "store")
        recorder = SpanRecorder(HOOKS, LAYERS)
        with recorder.unit(1):
            store.put(study)
        assert [span.name for span in recorder.spans] == ["store.put", "store.key"]
        put, key = recorder.spans
        assert key.parent == put.span_id
        assert recorder.counts[(1, "store.bytes_written")] == store.stats().total_bytes > 0


class TestLayerMetrics:
    def test_setup_once_units_averaged_and_fanouts(self):
        spans = [
            _span(1, "setup", 0, 1, unit=SETUP_UNIT),
            _span(2, "timeline.substrate", 0, 1, parent=1, unit=SETUP_UNIT),
            # unit 2: cold leg 10 s, mlab 6 s (campaign 1 s self + fan-out 5 s), clustering 2 s
            _span(10, COLD_LEG, 10, 20, unit=2),
            _span(11, "mlab.campaign", 10, 16, parent=10, unit=2),
            _span(12, "mlab.fanout", 11, 16, parent=11, unit=2, span="campaign.fanout", workers=2, n_shards=4),
            _span(13, "mlab.filters", 16, 16, parent=10, unit=2, rss_delta_kb=2048.0),
            _span(14, "clustering.fanout", 16, 18, parent=10, unit=2, span="clustering.fanout", workers=2, n_shards=2),
            _span(15, WARM_LEG, 20, 22, unit=2),
            # unit 4: cold leg 10 s, mlab 2 s, clustering 6 s
            _span(20, COLD_LEG, 30, 40, unit=4),
            _span(21, "mlab.campaign", 30, 32, parent=20, unit=4),
            _span(22, "clustering.fanout", 32, 38, parent=20, unit=4, span="clustering.fanout", workers=2, n_shards=2),
            # a nested fan-out is not a top-level one
            _span(23, "mlab.fanout", 32, 33, parent=22, unit=4, span="campaign.fanout", workers=1, n_shards=9),
        ]
        counts = {(SETUP_UNIT, "store.misses"): 2.0, (2, "store.hits"): 4.0, (4, "store.hits"): 2.0}
        flights = [
            (2, "campaign", 0.5, 4.0),
            (2, "clustering", 0.1, 3.0),
            (4, "clustering", 0.2, 5.0),
            (4, "campaign", 9.0, 9.0),  # nested in unit 4: ignored
        ]
        metrics = layer_metrics(spans, counts, flights, n_units=2)
        assert metrics["timeline.substrate_s"] == pytest.approx(1.0)
        assert metrics["mlab.campaign_s"] == pytest.approx((1.0 + 2.0) / 2)
        assert metrics["mlab.fanout_s"] == pytest.approx((5.0 + 1.0) / 2)
        assert metrics["clustering.fanout_s"] == pytest.approx((2.0 + 5.0) / 2)
        assert metrics["store.hits"] == pytest.approx(3.0)
        assert metrics["store.misses"] == pytest.approx(2.0)
        assert metrics["store.hit_ratio"] == pytest.approx(0.6)
        assert metrics["mlab.filters_rss_mb"] == pytest.approx(2.0)
        assert metrics["parallel.fanouts"] == pytest.approx(3 / 2)
        assert metrics["parallel.shards"] == pytest.approx((4 + 2 + 2) / 2)
        assert metrics["parallel.queue_wait_s"] == pytest.approx((0.5 + 0.1 + 0.2) / 2)
        assert metrics["parallel.exec_s"] == pytest.approx((4.0 + 3.0 + 5.0) / 2)
        assert metrics["parallel.efficiency"] == pytest.approx(12.0 / (2 * 5 + 2 * 2 + 2 * 6))
        assert metrics["mlab.share_of_wall"] == pytest.approx((6.0 + 3.0) / 20)
        assert metrics["clustering.share_of_wall"] == pytest.approx((2.0 + 5.0) / 20)
