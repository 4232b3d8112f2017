"""Span recording: nesting, batch ids, self time per layer."""

import json

from perfbench.spans import SpanRecorder, layer_table, load_spans


def _traced(recorder):
    """A root call on a batch, with two nested layer calls."""

    def child(rows):
        return rows

    def root(batch):
        child_a(batch)
        child_b(batch)
        return batch

    child_a = recorder.wrap("a", child, lambda a, k, r: (len(r), 1.0, 0.0))
    child_b = recorder.wrap("b", child, lambda a, k, r: (len(r), 0.0, -1.0))
    return recorder.wrap("root", root, lambda a, k, r: (len(r), 0.0, 0.0),
                         batch=lambda a, k: 7)


def test_disabled_recorder_records_nothing():
    recorder = SpanRecorder()
    assert _traced(recorder)([1, 2, 3]) == [1, 2, 3]
    assert recorder.spans() == []


def test_nested_spans_inherit_the_batch_and_tables_skip_marked_spans(tmp_path):
    recorder = SpanRecorder()
    recorder.enabled = True
    _traced(recorder)([1, 2, 3])
    (spans,) = recorder.spans()
    by_name = {s[0]: s for s in spans}
    assert by_name["a"][3] == by_name["b"][3] == spans.index(by_name["root"])
    assert {s[4] for s in spans} == {7}  # one batch id for the whole tree

    path = tmp_path / "spans.json"
    recorder.dump(str(path))
    assert json.loads(path.read_text())["threads"]
    table = layer_table(load_spans([str(path)]))
    assert set(table) == {"root", "a"}  # "b" marked itself skipped
    root = table["root"]
    assert root["calls"] == 1 and root["rows"] == 3
    assert 0.0 <= root["self_s"] <= root["total_s"]
    assert table["a"]["value"] == 1.0


def test_time_filter_and_toggle():
    recorder = SpanRecorder()
    recorder.toggle()
    _traced(recorder)([1])
    recorder.toggle()
    _traced(recorder)([1])
    (spans,) = recorder.spans()
    assert len(spans) == 3
    assert layer_table([spans], t_from=spans[0][2] + 1.0) == {}
