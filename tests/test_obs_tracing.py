"""Unit tests for repro.obs.tracing: nesting, exceptions, no-op mode,
and the cross-process wire format (to_dict/from_dict/shift)."""

import time

import pytest

from repro.obs.tracing import (
    Span,
    Tracer,
    clear_spans,
    clock_offset,
    current_trace_id,
    detached_span,
    disable_tracing,
    enable_tracing,
    finished_spans,
    get_tracer,
    new_trace_id,
    span,
    trace_scope,
    tracing_enabled,
)


@pytest.fixture()
def traced():
    """Enable the global tracer for one test, restoring the default off."""
    enable_tracing()
    clear_spans()
    yield get_tracer()
    disable_tracing()
    clear_spans()


class TestSpanTree:
    def test_nesting_builds_a_tree(self, traced):
        with span("root") as root:
            with span("child.a"):
                with span("grandchild"):
                    pass
            with span("child.b"):
                pass
        assert [c.name for c in root.children] == ["child.a", "child.b"]
        assert root.children[0].children[0].name == "grandchild"
        assert [s.name for s in root.walk()] == [
            "root", "child.a", "grandchild", "child.b",
        ]

    def test_root_collected_when_finished(self, traced):
        with span("outer"):
            with span("inner"):
                pass
        roots = finished_spans()
        assert [r.name for r in roots] == ["outer"]
        assert roots[0].duration_s is not None
        assert roots[0].duration_s >= roots[0].children[0].duration_s

    def test_attributes_at_open_and_via_set(self, traced):
        with span("s", beam=10) as s:
            s.set(model_calls=3)
        assert s.attributes == {"beam": 10, "model_calls": 3}

    def test_detached_spans_of_interleaved_generators(self, traced):
        """Two generators suspended inside their detached spans, resumed
        in turn: each span joins the span open when its block ends, what
        the bodies open on the stack nests there too, and the stack is
        left as it was."""

        def search(who):
            with detached_span("segment", who=who) as sp:
                yield
                with span("filter"):
                    pass
                yield
                sp.set(done=True)

        with span("root") as root:
            a, b = search("a"), search("b")
            for step in (a, b, a, b):
                next(step)
            for step in (a, b):
                next(step, None)
        names = [c.name for c in root.children]
        assert names == ["filter", "filter", "segment", "segment"]
        assert [c.attributes for c in root.children[2:]] == [
            {"who": "a", "done": True}, {"who": "b", "done": True},
        ]
        for child in root.children:
            assert root.start_s <= child.start_s <= child.end_s <= root.end_s
        assert get_tracer().current() is None

    def test_detached_span_records_the_error(self, traced):
        with pytest.raises(ValueError):
            with detached_span("lonely"):
                raise ValueError("x")
        [root] = finished_spans()
        assert (root.name, root.error) == ("lonely", "ValueError")

    def test_find_descendants_by_name(self, traced):
        with span("root") as root:
            for _ in range(3):
                with span("leaf"):
                    pass
        assert len(root.find("leaf")) == 3

    def test_to_dict_and_render(self, traced):
        with span("root", k="v") as root:
            with span("child"):
                pass
        d = root.to_dict()
        assert d["name"] == "root"
        assert d["attributes"] == {"k": "v"}
        assert d["children"][0]["name"] == "child"
        text = root.render()
        assert "root" in text and "child" in text

    def test_max_roots_bounds_the_buffer(self):
        tracer = Tracer()
        tracer.max_roots = 3
        tracer.enabled = True
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.finished()] == ["s2", "s3", "s4"]


class TestExceptionSafety:
    def test_exception_closes_span_and_reraises(self, traced):
        with pytest.raises(ValueError):
            with span("root"):
                raise ValueError("boom")
        (root,) = finished_spans()
        assert root.error == "ValueError"
        assert root.end_s is not None

    def test_exception_unwinds_inner_spans(self, traced):
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("x")
        (root,) = finished_spans()
        inner = root.children[0]
        assert inner.error == "RuntimeError"
        assert inner.end_s is not None
        assert root.error == "RuntimeError"
        # The stack fully unwound: a new span starts a fresh root.
        with span("fresh"):
            pass
        assert [r.name for r in finished_spans()] == ["outer", "fresh"]


class TestTraceScope:
    def test_new_trace_id_is_short_hex(self):
        trace_id = new_trace_id()
        assert len(trace_id) == 16
        int(trace_id, 16)  # hex-parseable
        assert trace_id != new_trace_id()

    def test_no_scope_means_no_trace_id(self, traced):
        assert current_trace_id() is None
        with span("bare"):
            pass
        (root,) = finished_spans()
        assert root.trace_id is None

    def test_scope_stamps_every_span_in_the_request(self, traced):
        with trace_scope() as trace_id:
            assert current_trace_id() == trace_id
            with span("outer"):
                with span("inner"):
                    pass
        assert current_trace_id() is None
        (root,) = finished_spans()
        assert [s.trace_id for s in root.walk()] == [trace_id, trace_id]

    def test_explicit_id_wins(self, traced):
        with trace_scope("deadbeefdeadbeef"):
            with span("s"):
                pass
        (root,) = finished_spans()
        assert root.trace_id == "deadbeefdeadbeef"

    def test_nested_scope_inherits_by_default(self, traced):
        """streaming.process opens a scope; Kamel.impute joins it rather
        than minting a second id for the same request."""
        with trace_scope() as outer_id:
            with trace_scope() as inner_id:
                assert inner_id == outer_id
                with span("s"):
                    pass
        (root,) = finished_spans()
        assert root.trace_id == outer_id

    def test_scope_restores_on_exception(self, traced):
        with pytest.raises(ValueError):
            with trace_scope():
                raise ValueError("x")
        assert current_trace_id() is None

    def test_scope_works_without_span_collection(self):
        """Trace ids are independent of whether span collection is on:
        logs still get correlated even when tracing is disabled."""
        disable_tracing()
        with trace_scope() as trace_id:
            assert current_trace_id() == trace_id
        assert current_trace_id() is None

    def test_ids_are_thread_local(self, traced):
        import threading

        seen = {}

        def worker():
            seen["worker"] = current_trace_id()
            with trace_scope() as tid:
                seen["worker_scoped"] = tid

        with trace_scope() as main_id:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["worker"] is None, "scope must not leak across threads"
        assert seen["worker_scoped"] != main_id

    def test_to_dict_includes_trace_id(self, traced):
        with trace_scope("0011223344556677"):
            with span("s"):
                pass
        (root,) = finished_spans()
        assert root.to_dict()["trace_id"] == "0011223344556677"


class TestWireFormat:
    """Serialized span trees must survive a queue hop between processes."""

    def _tree(self, traced):
        with trace_scope("feedfacefeedface"):
            with span("root", shard=3) as root:
                with span("child") as child:
                    child.set(n=1)
        return root

    def test_round_trip_preserves_the_tree(self, traced):
        root = self._tree(traced)
        clone = Span.from_dict(root.to_dict())
        assert [s.name for s in clone.walk()] == [s.name for s in root.walk()]
        assert clone.attributes == {"shard": 3}
        assert clone.children[0].attributes == {"n": 1}
        assert clone.trace_id == "feedfacefeedface"
        assert clone.children[0].trace_id == "feedfacefeedface"
        assert clone.start_s == pytest.approx(root.start_s)
        assert clone.end_s == pytest.approx(root.end_s)
        assert clone.duration_s == pytest.approx(root.duration_s)

    def test_round_trip_preserves_error(self, traced):
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("x")
        (root,) = finished_spans()
        assert Span.from_dict(root.to_dict()).error == "ValueError"

    def test_from_dict_tolerates_minimal_payload(self):
        # Old exports carried only names: reconstruct as a finished
        # zero-length span at origin 0 rather than refusing to load.
        clone = Span.from_dict({"name": "bare"})
        assert clone.name == "bare"
        assert clone.children == []
        assert clone.trace_id is None
        assert clone.start_s == 0.0
        assert clone.duration_s == 0.0

    def test_shift_rebases_the_whole_tree(self, traced):
        root = self._tree(traced)
        child_start = root.children[0].start_s
        duration = root.duration_s
        assert root.shift(5.0) is root, "shift chains for rebuild pipelines"
        assert root.children[0].start_s == pytest.approx(child_start + 5.0)
        assert root.duration_s == pytest.approx(duration), (
            "rebasing a tree onto another clock must not change durations"
        )

    def test_clock_offset_maps_perf_counter_to_epoch(self):
        offset = clock_offset()
        assert abs((time.perf_counter() + offset) - time.time()) < 0.1
        # Stable within a process: two reads agree to well under a tick.
        assert clock_offset() == pytest.approx(offset, abs=0.01)


class TestNoopMode:
    def test_disabled_by_default(self):
        assert not tracing_enabled()

    def test_disabled_span_is_a_shared_noop(self):
        disable_tracing()
        a = span("x")
        b = span("y", attr=1)
        assert a is b, "no-op path must not allocate per call"
        with a as s:
            assert s.set(k=1) is s
        assert finished_spans() == []

    def test_disabled_span_records_nothing(self):
        disable_tracing()
        clear_spans()
        with span("invisible"):
            pass
        assert finished_spans() == []
        assert get_tracer().current() is None

    def test_noop_overhead_is_constant_allocation_free(self):
        """The disabled fast path must not build Span objects or touch
        thread-local stacks — only return the shared singleton."""
        disable_tracing()
        import tracemalloc

        tracemalloc.start()
        for _ in range(100):
            with span("hot"):
                pass
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # A real span run allocates Span + dict + list each; the no-op
        # loop should stay within interpreter noise.
        assert peak < 10_000
