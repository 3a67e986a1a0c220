import tracing
from repro.obs.trace import validate_chrome_trace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _replay(steps):
    """Recorder after ``steps``: ``(time, span name)`` opens a span,
    ``(time, None)`` closes the innermost one."""
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock=clock)
    for t, name in steps:
        clock.now = t
        if name is None:
            rec.end()
        else:
            rec.begin(name)
    return rec


def test_self_time_of_nested_and_sibling_spans():
    rec = _replay(
        [
            (0, "root"),
            (1, "a"),
            (2, "b"),
            (4, None),  # b under a: 2
            (5, None),  # a: 4, of which b covers 2
            (6, "b"),
            (7, None),  # b under root, sibling of a: 1
            (10, None),  # root: 10, its children cover 4 + 1
        ]
    )
    assert dict(rec.inclusive) == {"root": 10, "a": 4, "b": 3}
    assert dict(rec.self_time) == {"root": 5, "a": 2, "b": 3}
    assert dict(rec.calls) == {"root": 1, "a": 1, "b": 2}


def test_recursive_span_counts_inclusive_time_once():
    rec = _replay([(0, "f"), (1, "f"), (3, None), (4, None)])
    assert rec.inclusive["f"] == 4
    assert rec.self_time["f"] == 4
    assert rec.calls["f"] == 1


def test_unattributed_fraction_is_round_self_time_over_round_wall():
    rec = _replay(
        [(0, tracing.ROUND_SPAN), (1, "kernel.replay"), (10, None), (10, None)]
    )
    metrics = tracing.layer_metrics(rec)
    assert metrics["bench.unattributed_frac"] == 0.1
    assert metrics["kernel.replay.self_s"] == 9


def test_chrome_export_validates_and_caps_spans_per_name():
    rec = tracing.SpanRecorder(keep_per_name=3)
    with rec.span(tracing.ROUND_SPAN):
        for _ in range(5):
            with rec.span("ftl.write_request"):
                pass
    doc = rec.to_chrome("bench.test")
    assert validate_chrome_trace(doc) == ["bench.test"]
    assert sum(e["name"] == "ftl.write_request" for e in doc["traceEvents"]) == 3
    assert doc["otherData"]["dropped_spans"] == {"ftl.write_request": 2}
    assert rec.calls["ftl.write_request"] == 5


def test_every_site_is_patched_and_then_restored():
    originals = [tracing._resolve(site)[2] for site in tracing.SITES]
    with tracing.Instrumentation(tracing.SpanRecorder()) as inst:
        assert inst.missing == []
        patched = [tracing._resolve(site)[2] for site in tracing.SITES]
        assert all(p is not o for p, o in zip(patched, originals))
    restored = [tracing._resolve(site)[2] for site in tracing.SITES]
    assert all(r is o for r, o in zip(restored, originals))
