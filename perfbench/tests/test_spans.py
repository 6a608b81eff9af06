"""Self-time arithmetic of the span recorder."""

import types

import pytest

import spans


def _span(name, start, end, parent, iteration=1):
    return [name, start, end, parent, iteration]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("root", 0.0, 10.0, -1),
        _span("runner", 1.0, 7.0, 0),
        _span("engine", 2.0, 5.0, 1),
        _span("validation", 5.5, 6.5, 1),
        _span("model", 8.0, 9.0, 0),
    ]
    self_s = spans.self_times(recorded)
    assert self_s == pytest.approx({"root": 3.0, "runner": 2.0, "engine": 3.0,
                                    "validation": 1.0, "model": 1.0})
    assert sum(self_s.values()) == pytest.approx(spans.root_total(recorded))


def test_overlapping_children_are_counted_once_and_clipped():
    recorded = [
        _span("root", 0.0, 4.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("a", 2.0, 5.0, 0),
    ]
    self_s = spans.self_times(recorded)
    assert self_s["root"] == pytest.approx(1.0)


def test_same_layer_nesting_sums_per_layer():
    recorded = [
        _span("runner", 0.0, 6.0, -1),
        _span("runner", 1.0, 4.0, 0),
        _span("engine", 2.0, 3.0, 1),
    ]
    assert spans.self_times(recorded) == pytest.approx({"runner": 5.0, "engine": 1.0})


def test_wrapped_calls_nest_and_uninstall_restores():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original_outer, original_inner = module.outer, module.inner
    tracer = spans.Tracer()
    tracer.wrap(module, "inner", "layer.inner", count=lambda a, k, r: {"calls": 1})
    tracer.wrap(module, "outer", "layer.outer")
    with tracer.span("root"):
        assert module.outer(1) == 4
    tracer.uninstall()
    assert module.outer is original_outer and module.inner is original_inner
    names = [(name, parent) for name, _s, _e, parent, _it in tracer.spans]
    assert names == [("root", -1), ("layer.outer", 0), ("layer.inner", 1)]
    assert tracer.counts["calls"] == 1
    total = sum(spans.self_times(tracer.spans).values())
    assert total == pytest.approx(spans.root_total(tracer.spans))
