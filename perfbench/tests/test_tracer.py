"""Self-time arithmetic and wrapper restoration of the benchmark tracer."""

from __future__ import annotations

import sys
import types

import pytest

from perfbench.tracer import Span, Tracer, inclusive_times, self_times


def _span(name, start, end, parent=-1):
    span = Span(name, start, parent, call=1)
    span.end = end
    return span


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("outer", 0.0, 10.0),
        _span("child", 1.0, 4.0, parent=0),
        _span("grandchild", 2.0, 3.0, parent=1),
        _span("child", 6.0, 7.0, parent=0),
    ]
    own = self_times(spans)
    assert own["outer"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own["child"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert own["grandchild"] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span("outer", 0.0, 10.0),
        _span("a", 2.0, 6.0, parent=0),
        _span("b", 4.0, 8.0, parent=0),
        _span("c", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    assert self_times(spans)["outer"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_inclusive_time_does_not_double_count_recursion():
    spans = [
        _span("compile", 0.0, 5.0),
        _span("compile", 1.0, 3.0, parent=0),
        _span("other", 3.0, 4.0, parent=0),
        _span("compile", 3.2, 3.5, parent=2),
    ]
    assert inclusive_times(spans) == pytest.approx({"compile": 5.0, "other": 1.0})


def test_tracer_records_parented_spans_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.call = 7
    tracer.timed("outer", lambda: tracer.timed("inner", lambda: None))
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.parent, inner.call) == ("outer", -1, 0, 7)
    assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)
    assert self_times(tracer.spans) == {"outer": 2.0, "inner": 1.0}


@pytest.fixture
def fake_layer(monkeypatch):
    """A layer module plus a module that imported its function by name."""
    layer = types.ModuleType("perfbench.tests.fake_layer")

    def work(x):
        return x * 2

    class Store:
        def merge(self, rows):
            return sum(1 for _ in rows)

    layer.work = work
    layer.Store = Store
    user = types.ModuleType("perfbench.tests.fake_user")
    user.work = work
    monkeypatch.setitem(sys.modules, layer.__name__, layer)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    return layer, user


def test_wrappers_cover_imported_names_and_are_restored(fake_layer):
    layer, user = fake_layer
    work, merge = layer.work, layer.Store.__dict__["merge"]
    tracer = Tracer()
    tracer.wrap("perfbench.tests.fake_layer:work", "layer.work", count="work_calls")
    tracer.wrap("perfbench.tests.fake_layer:Store.merge", "layer.merge")
    with tracer:
        assert layer.work is not work and user.work is layer.work
        assert user.work(3) == 6
        assert layer.Store().merge([1, 2, 3]) == 3
    assert layer.work is work and user.work is work
    assert layer.Store.__dict__["merge"] is merge
    assert [span.name for span in tracer.spans] == ["layer.work", "layer.merge"]
    assert tracer.counters["work_calls"] == 1


def test_wrappers_are_restored_when_the_block_raises(fake_layer):
    layer, user = fake_layer
    work = layer.work
    tracer = Tracer()
    tracer.wrap("perfbench.tests.fake_layer:work", "layer.work")
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert layer.work is work and user.work is work


def test_missing_target_is_reported_not_raised(fake_layer):
    tracer = Tracer()
    tracer.wrap("perfbench.tests.fake_layer:renamed", "layer.gone")
    with tracer:
        pass
    assert tracer.missing == ["perfbench.tests.fake_layer:renamed"]


def test_counter_ignores_reentrant_calls(fake_layer):
    layer, _ = fake_layer

    def recurse(n):
        return 0 if n == 0 else 1 + layer.work(n - 1)

    layer.work = recurse
    tracer = Tracer()
    tracer.wrap("perfbench.tests.fake_layer:work", count="outer_calls")
    with tracer:
        assert layer.work(3) == 3
    assert tracer.counters["outer_calls"] == 1


def test_library_layer_wrappers_leave_every_module_untouched():
    from perfbench.layers import install_layers

    def snapshot():
        return {
            (name, key): value
            for name, module in list(sys.modules.items())
            if name.startswith("repro")
            for key, value in list(vars(module).items())
        }

    from repro.relations.krelation import KRelation

    tracer = Tracer()
    install_layers(tracer)
    with tracer:
        pass  # the first entry imports every layer module
    before = snapshot()
    merge_delta = vars(KRelation)["merge_delta"]
    with tracer:
        assert tracer.missing == []
        assert snapshot() != before
        assert vars(KRelation)["merge_delta"] is not merge_delta
    assert vars(KRelation)["merge_delta"] is merge_delta
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
