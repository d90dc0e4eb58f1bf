"""Unit tests for the parameter-context selection policies."""

import pytest

import repro.detection.nodes as nodes
from repro.contexts.policies import Context, recency_key, select_initiators
from repro.detection.nodes import InitiatorBuffer
from repro.events.occurrences import EventOccurrence
from repro.serve import serve_events
from repro.sim.serving import ServingWorkload
from tests.conftest import ts


def occ(site, g, local=None):
    return EventOccurrence.primitive("e", ts(site, g, local))


@pytest.fixture
def initiators():
    """Three initiators in arrival order with increasing global times."""
    return [occ("a", 2, 20), occ("b", 5, 50), occ("c", 8, 80)]


class TestUnrestricted:
    def test_all_selected_individually(self, initiators):
        selection = select_initiators(Context.UNRESTRICTED, initiators)
        assert len(selection.groups) == 3
        assert all(len(g) == 1 for g in selection.groups)

    def test_nothing_consumed(self, initiators):
        selection = select_initiators(Context.UNRESTRICTED, initiators)
        assert selection.consumed == ()
        assert selection.discarded == ()


class TestRecent:
    def test_most_recent_selected(self, initiators):
        selection = select_initiators(Context.RECENT, initiators)
        assert selection.groups == ((initiators[2],),)

    def test_stale_discarded_but_recent_kept(self, initiators):
        selection = select_initiators(Context.RECENT, initiators)
        assert set(selection.discarded) == {initiators[0], initiators[1]}
        assert initiators[2] not in selection.consumed

    def test_recency_tie_broken_by_uid(self):
        a, b = occ("a", 5, 50), occ("b", 5, 55)
        selection = select_initiators(Context.RECENT, [a, b])
        assert selection.groups == ((b,),)


class TestChronicle:
    def test_oldest_selected_and_consumed(self, initiators):
        selection = select_initiators(Context.CHRONICLE, initiators)
        assert selection.groups == ((initiators[0],),)
        assert selection.consumed == (initiators[0],)

    def test_others_untouched(self, initiators):
        selection = select_initiators(Context.CHRONICLE, initiators)
        assert selection.discarded == ()


class TestContinuous:
    def test_every_initiator_fires_and_consumed(self, initiators):
        selection = select_initiators(Context.CONTINUOUS, initiators)
        assert len(selection.groups) == 3
        assert set(selection.consumed) == set(initiators)


class TestCumulative:
    def test_single_merged_group(self, initiators):
        selection = select_initiators(Context.CUMULATIVE, initiators)
        assert len(selection.groups) == 1
        assert selection.groups[0] == tuple(initiators)

    def test_all_consumed(self, initiators):
        selection = select_initiators(Context.CUMULATIVE, initiators)
        assert set(selection.consumed) == set(initiators)


class TestEmptyBuffer:
    @pytest.mark.parametrize("context", list(Context))
    def test_empty_selection(self, context):
        selection = select_initiators(context, [])
        assert selection.groups == ()
        assert selection.consumed == ()
        assert selection.discarded == ()


class TestInitiatorBuffer:
    def test_chronicle_buffer_stays_key_ordered(self):
        buffer = InitiatorBuffer(Context.CHRONICLE)
        late = [occ("a", 7, 70), occ("b", 3, 30), occ("c", 9, 90), occ("a", 3, 31)]
        for initiator in late:
            buffer.add(initiator)
        assert [o.timestamp.global_span()[1] for o in buffer] == [3, 3, 7, 9]
        keys = [recency_key(o) for o in buffer]
        assert keys == sorted(keys)

    def test_chronicle_take_is_oldest_eligible(self):
        buffer = InitiatorBuffer(Context.CHRONICLE)
        initiators = [occ("a", 6, 60), occ("b", 2, 20), occ("c", 4, 40)]
        for initiator in initiators:
            buffer.add(initiator)
        for granule in (7, 9, 9, 9):
            terminator = occ("d", granule).timestamp
            eligible = [o for o in initiators if o.timestamp < terminator]
            expected = select_initiators(Context.CHRONICLE, eligible)
            assert buffer.take(terminator) == expected.groups
            initiators = [o for o in initiators if o not in expected.consumed]
            assert list(buffer) == sorted(initiators, key=recency_key)
        assert len(buffer) == 0

    @pytest.mark.parametrize(
        "context", [c for c in Context if c is not Context.CHRONICLE]
    )
    def test_other_contexts_keep_arrival_order(self, context):
        buffer = InitiatorBuffer(context)
        late = [occ("a", 7, 70), occ("b", 3, 30)]
        for initiator in late:
            buffer.add(initiator)
        assert list(buffer) == late


def happens_before_calls_per_cancel(monkeypatch, events: int) -> float:
    """``composite_happens_before`` calls per ``cancel`` of a CHRONICLE run."""
    workload = ServingWorkload.standard(seed=1, events=events)
    calls = 0
    original = nodes.composite_happens_before

    def counting(t1, t2):
        nonlocal calls
        calls += 1
        return original(t1, t2)

    with monkeypatch.context() as patch:
        patch.setattr(nodes, "composite_happens_before", counting)
        serve_events(
            workload.rules,
            workload,
            shards=1,
            context=Context.CHRONICLE,
            timer_ratio=workload.timer_ratio,
            horizon=workload.horizon(),
        )
    cancels = sum(event.event_type == "cancel" for event in workload)
    return calls / cancels


class TestChronicleSelectionCost:
    """CHRONICLE selection cost does not grow with the initiator backlog.

    The standard scenario's ``churn`` rule builds a backlog of about a
    third of the stream; a terminator must take the oldest eligible
    initiator from the head of its buffer, not rescan the backlog.
    Counted calls, not wall time, so the assertion is deterministic.
    """

    def test_happens_before_calls_per_cancel_are_flat(self, monkeypatch):
        small = happens_before_calls_per_cancel(monkeypatch, 1_200)
        large = happens_before_calls_per_cancel(monkeypatch, 4_800)
        assert small <= 4 and large <= 4
        assert large <= small * 1.25
