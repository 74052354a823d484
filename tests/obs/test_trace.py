"""`repro.obs.trace`: span nesting, thread isolation, and request ids."""

from __future__ import annotations

import threading

from repro import obs


def test_spans_nest_and_time():
    with obs.span("outer", mode="union") as outer:
        assert obs.current_span() is outer
        with obs.span("inner") as inner:
            assert obs.current_span() is inner
        assert obs.current_span() is outer
    assert obs.current_span() is None
    assert outer.children == [inner]
    assert outer.meta == {"mode": "union"}
    assert inner.duration_ms is not None
    assert outer.duration_ms >= inner.duration_ms >= 0.0


def test_child_sum_and_projection():
    with obs.span("root") as root:
        with obs.span("stage"):
            pass
        with obs.span("stage"):
            pass
        with obs.span("other"):
            pass
    stage_total = sum(
        c.duration_ms for c in root.children if c.name == "stage"
    )
    assert root.child_sum("stage") == stage_total
    assert root.child_sum("missing") == 0.0


def test_synthetic_children_are_finished():
    with obs.span("root") as root:
        root.add_child_duration("amortized", 12.5, amortized=True)
    child = root.children[0]
    assert child.duration_ms == 12.5
    assert child.meta == {"amortized": True}
    assert root.child_sum("amortized") == 12.5


def test_child_cap_counts_drops():
    with obs.span("root") as root:
        for index in range(obs.MAX_CHILDREN + 5):
            root.add_child_duration("c", float(index))
    assert len(root.children) == obs.MAX_CHILDREN
    assert root.dropped_children == 5
    assert root.to_dict()["dropped_children"] == 5


def test_to_dict_shape():
    with obs.span("root", k=3) as root:
        with obs.span("leaf"):
            pass
    tree = root.to_dict()
    assert tree["name"] == "root"
    assert tree["meta"] == {"k": 3}
    assert [c["name"] for c in tree["children"]] == ["leaf"]
    assert tree["duration_ms"] > 0.0


def test_threads_get_isolated_traces():
    """A worker thread's spans never attach to another thread's trace."""
    roots: dict[int, obs.Span] = {}
    barrier = threading.Barrier(4)

    def work(thread_index: int) -> None:
        barrier.wait()
        with obs.span("root", thread=thread_index) as root:
            with obs.span("child", thread=thread_index):
                pass
        roots[thread_index] = root

    pool = [
        threading.Thread(target=work, args=(index,)) for index in range(4)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert len(roots) == 4
    for thread_index, root in roots.items():
        assert root.meta == {"thread": thread_index}
        assert [c.name for c in root.children] == ["child"]
        assert root.children[0].meta == {"thread": thread_index}


def test_request_id_binding():
    assert obs.request_id() is None
    with obs.bind_request_id("abc123") as bound:
        assert bound == "abc123"
        assert obs.request_id() == "abc123"
        with obs.bind_request_id("nested"):
            assert obs.request_id() == "nested"
        assert obs.request_id() == "abc123"
    assert obs.request_id() is None


def test_new_request_id_shape():
    first, second = obs.new_request_id(), obs.new_request_id()
    assert first != second
    assert len(first) == 16
    assert all(ch in "0123456789abcdef" for ch in first)

