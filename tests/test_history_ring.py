"""The history monitor's ring: a structurally shared, bounded event log.

``HistoryState`` keeps the newest ``capacity`` events in two cons lists
that successive states share.  These tests pin the ring against a plain
list model, check that equality, hashing, ``repr`` and pickling survive
histories far deeper than the interpreter's recursion limit, and gate the
sharing itself: a push allocates the same bytes whatever the history
length.
"""

import pickle
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitors import HistoryMonitor
from repro.monitors.history import History, HistoryEvent, HistoryState
from repro.syntax.annotations import Label

LABELS = [Label("f"), Label("g"), Label("h")]


def _newest(state):
    """The newest event, read the way replay seek checks read it."""
    if state.back:
        return state.back[0]
    return state.front[-1] if state.front else None


def _fill(monitor, events):
    """A state after ``events`` hooks: ``f`` entered, then exited."""
    state = monitor.initial_state()
    label = LABELS[0]
    for index in range(events):
        if index % 2 == 0:
            state = monitor.pre(label, None, None, state)
        else:
            state = monitor.post(label, None, None, index, state)
    return state


# One hook: (is_pre, label index, result).  A post with nothing open is
# skipped, as the engines never emit one.
hooks = st.lists(
    st.tuples(st.booleans(), st.integers(0, len(LABELS) - 1), st.integers(-5, 5)),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 12), script=hooks)
def test_ring_matches_list_model(capacity, script):
    monitor = HistoryMonitor(capacity)
    state = monitor.initial_state()
    model = []  # every event ever recorded, oldest first
    depth = 0
    for is_pre, which, result in script:
        label = LABELS[which]
        if is_pre:
            model.append(HistoryEvent(len(model), "enter", label.name, depth))
            depth += 1
            state = monitor.pre(label, None, None, state)
        elif depth:
            depth -= 1
            model.append(
                HistoryEvent(len(model), "exit", label.name, depth, str(result))
            )
            state = monitor.post(label, None, None, result, state)
        else:
            continue
        kept = model[-capacity:]
        assert state.events() == kept
        assert state.size == len(kept)
        assert state.dropped == len(model) - len(kept)
        assert state.next_sequence == len(model)
        assert state.depth == depth
        assert _newest(state) == model[-1]
        restored = pickle.loads(pickle.dumps(state))
        assert restored == state and hash(restored) == hash(state)
        assert _newest(restored) == model[-1]
    assert monitor.report(state) == History(model[-capacity:], dropped=state.dropped)


def test_deep_history_compares_hashes_and_pickles():
    events = 100_000
    for capacity in (events + 1, 60_000):  # one whole, one overflowed
        monitor = HistoryMonitor(capacity)
        state = _fill(monitor, events)
        restored = pickle.loads(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
        # Rebuilt cells, split differently: equality walks both rings.
        assert restored.back is not state.back
        assert restored == state and hash(restored) == hash(state)
        assert restored.events() == state.events()
        assert _newest(restored) == _newest(state)
        assert repr(state).startswith("HistoryState(events=[")
        # The restored ring keeps dropping the oldest event as it grows.
        grown = monitor.pre(LABELS[1], None, None, restored)
        assert grown == monitor.pre(LABELS[1], None, None, state)
    assert state.dropped == events - 60_000


def test_states_differing_in_one_field_are_unequal():
    state = _fill(HistoryMonitor(8), 5)
    fields = {name: getattr(state, name) for name in HistoryState.__slots__}
    assert HistoryState(**fields) == state
    for name in ("size", "dropped", "next_sequence", "depth", "capacity"):
        assert HistoryState(**{**fields, name: fields[name] + 1}) != state
    assert _fill(HistoryMonitor(8), 4) != state
    # Same counters, different newest event.
    monitor = HistoryMonitor(8)
    assert monitor.pre(LABELS[1], None, None, state) != monitor.pre(
        LABELS[2], None, None, state
    )


def _push_bytes(monitor, state, pushes=100):
    """Bytes still allocated after ``pushes`` hooks from ``state``."""
    label = LABELS[2]
    kept = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(pushes):
            state = monitor.pre(label, None, None, state)
            kept.append(state)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return after - before


def test_push_allocation_is_independent_of_history_length():
    monitor = HistoryMonitor(1_000_000)
    short = _push_bytes(monitor, _fill(monitor, 100))
    long = _push_bytes(monitor, _fill(monitor, 100_000))
    assert short > 0
    assert long <= 2 * short, (
        f"a push at history length 100,000 kept {long} bytes; "
        f"at length 100 it kept {short}"
    )
