"""Fast-path kernels ≡ literal paper definitions (Hypothesis).

The hot path dispatches every timestamp comparison through the integer
kernels in :mod:`repro.time.kernels` — memoized ``relation_code``, the
O(n) ``fast_max_set``, and the ``StampSummary`` extrema digest behind
the composite relations.  The literal re-statements of Definitions
4.7–5.4 (quantifier sweeps, O(n²) filters) live in
:mod:`repro.conformance.literal`, shared with the conformance fuzzer's
``kernels`` check; here Hypothesis searches the stamp space for any
divergence.  A failure means an optimisation changed semantics, not
just speed.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conformance.literal import (
    ref_composite_concurrent,
    ref_composite_dominated_by,
    ref_composite_happens_before,
    ref_composite_relation,
    ref_composite_weak_leq,
    ref_concurrent,
    ref_lt,
    ref_max_set,
    ref_weak_leq,
)
from repro.contexts.policies import Context, select_initiators
from repro.detection.checkpoint import restore, snapshot
from repro.detection.detector import Detector
from repro.events.occurrences import EventOccurrence
from repro.time.clocks import ClockEnsemble
from repro.time.composite import (
    CompositeTimestamp,
    composite_concurrent,
    composite_dominated_by,
    composite_happens_before,
    composite_relation,
    composite_weak_leq,
    max_set,
)
from repro.time.kernels import fast_max_set, relation_code
from repro.time.ticks import TimeModel
from repro.time.timestamps import (
    PrimitiveTimestamp,
    concurrent,
    happens_before,
    weak_leq,
)

SITES = ["s1", "s2", "s3", "s4"]
RATIO = 10


# --- strategies ---------------------------------------------------------------


@st.composite
def primitive_stamps(draw, max_global: int = 10):
    site = draw(st.sampled_from(SITES))
    global_time = draw(st.integers(min_value=0, max_value=max_global))
    offset = draw(st.integers(min_value=0, max_value=RATIO - 1))
    return PrimitiveTimestamp(site, global_time, global_time * RATIO + offset)


@st.composite
def stamp_pools(draw, max_size: int = 8):
    return draw(st.lists(primitive_stamps(), min_size=1, max_size=max_size))


@st.composite
def composite_stamps(draw, max_constituents: int = 5):
    pool = draw(
        st.lists(primitive_stamps(), min_size=1, max_size=max_constituents)
    )
    return CompositeTimestamp(max_set(pool))


class TestPrimitiveKernelEquivalence:
    @given(primitive_stamps(), primitive_stamps())
    def test_happens_before_matches_literal(self, a, b):
        assert happens_before(a, b) == ref_lt(a, b)
        assert happens_before(b, a) == ref_lt(b, a)

    @given(primitive_stamps(), primitive_stamps())
    def test_concurrent_matches_literal(self, a, b):
        assert concurrent(a, b) == ref_concurrent(a, b)

    @given(primitive_stamps(), primitive_stamps())
    def test_weak_leq_matches_literal(self, a, b):
        assert weak_leq(a, b) == ref_weak_leq(a, b)

    @given(primitive_stamps(), primitive_stamps())
    def test_relation_code_is_consistent(self, a, b):
        code = relation_code(a, b)
        assert code == -relation_code(b, a)
        assert (code < 0) == ref_lt(a, b)
        assert (code > 0) == ref_lt(b, a)
        assert (code == 0) == ref_concurrent(a, b)

    @given(primitive_stamps(), primitive_stamps())
    def test_memoized_second_call_agrees(self, a, b):
        # The second call answers from the memo; both must agree with
        # the literal definition.
        first = relation_code(a, b)
        assert relation_code(a, b) == first
        assert (first < 0) == ref_lt(a, b)


class TestMaxSetKernelEquivalence:
    @given(stamp_pools())
    def test_fast_max_set_matches_quadratic_filter(self, pool):
        assert fast_max_set(pool) == ref_max_set(pool)

    @given(stamp_pools())
    def test_public_max_set_matches_quadratic_filter(self, pool):
        assert max_set(pool) == ref_max_set(pool)

    @given(stamp_pools())
    def test_max_set_members_pairwise_concurrent(self, pool):
        # Theorem 5.1: a max-set is internally concurrent.
        maxima = max_set(pool)
        assert all(
            ref_concurrent(a, b) for a in maxima for b in maxima if a != b
        )


class TestCompositeKernelEquivalence:
    @given(composite_stamps(), composite_stamps())
    def test_happens_before_matches_literal(self, t1, t2):
        assert composite_happens_before(t1, t2) == ref_composite_happens_before(
            t1, t2
        )

    @given(composite_stamps(), composite_stamps())
    def test_concurrent_matches_literal(self, t1, t2):
        assert composite_concurrent(t1, t2) == ref_composite_concurrent(t1, t2)

    @given(composite_stamps(), composite_stamps())
    def test_weak_leq_matches_literal(self, t1, t2):
        assert composite_weak_leq(t1, t2) == ref_composite_weak_leq(t1, t2)

    @given(composite_stamps(), composite_stamps())
    def test_dominated_by_matches_literal(self, t1, t2):
        assert composite_dominated_by(t1, t2) == ref_composite_dominated_by(
            t1, t2
        )

    @given(composite_stamps(), composite_stamps())
    def test_relation_matches_literal(self, t1, t2):
        assert composite_relation(t1, t2) == ref_composite_relation(t1, t2)

    @given(composite_stamps())
    def test_summary_digest_is_lazy_but_stable(self, t):
        # Repeated relation queries reuse the cached digest; answers must
        # not drift between the first (builds digest) and later calls.
        first = composite_relation(t, t)
        assert composite_relation(t, t) == first

    @given(composite_stamps())
    def test_global_span_cache_matches_members(self, t):
        globals_ = [stamp.global_time for stamp in t.stamps]
        expected = (min(globals_), max(globals_))
        assert t.global_span() == expected
        assert t.global_span() == expected


# --- consuming-context selection ----------------------------------------------
#
# The production nodes keep CHRONICLE initiator buffers sorted by recency
# key and take the first eligible initiator from the head.  The reference
# below is the selection as Snoop states it: arrival-ordered buffers,
# eligibility by the literal ``<_p``, the pick made by
# ``select_initiators``.  It shares no code with the node buffers.

CONSUMING = [c for c in Context if c is not Context.UNRESTRICTED]
CLOCK_SITES = ["s1", "s2", "s3"]


def _ref_before(earlier, later):
    return ref_composite_happens_before(earlier.timestamp, later.timestamp)


def _ref_select(context, buffer, eligible):
    selection = select_initiators(context, eligible)
    doomed = {id(o) for o in selection.consumed + selection.discarded}
    buffer[:] = [o for o in buffer if id(o) not in doomed]
    return selection.groups


def _ref_composite(name, constituents):
    stamps = [s for c in constituents for s in c.timestamp.stamps]
    return EventOccurrence(
        event_type=name,
        timestamp=CompositeTimestamp(ref_max_set(stamps)),
        constituents=tuple(constituents),
    )


class _RefSequence:
    def __init__(self, context):
        self.context, self.firsts = context, []

    def first(self, occurrence):
        self.firsts.append(occurrence)
        return []

    def second(self, occurrence):
        eligible = [f for f in self.firsts if _ref_before(f, occurrence)]
        groups = _ref_select(self.context, self.firsts, eligible)
        return [(*group, occurrence) for group in groups]


class _RefAnd:
    def __init__(self, context):
        self.context, self.left, self.right = context, [], []

    def receive(self, occurrence, left):
        opposite = self.right if left else self.left
        groups = _ref_select(self.context, opposite, list(opposite))
        (self.left if left else self.right).append(occurrence)
        return [
            (occurrence, *group) if left else (*group, occurrence)
            for group in groups
        ]


class _RefNot:
    def __init__(self, context):
        self.context, self.openers, self.negated = context, [], []

    def closer(self, occurrence):
        eligible = [
            o
            for o in self.openers
            if _ref_before(o, occurrence)
            and not any(
                _ref_before(o, n) and _ref_before(n, occurrence)
                for n in self.negated
            )
        ]
        groups = _ref_select(self.context, self.openers, eligible)
        return [(*group, occurrence) for group in groups]


class _RefAperiodicStar:
    def __init__(self, context):
        self.context, self.openers, self.bodies = context, [], []

    def closer(self, occurrence):
        eligible = [o for o in self.openers if _ref_before(o, occurrence)]
        emissions = []
        for group in _ref_select(self.context, self.openers, eligible):
            for opener in group:
                window = [
                    b
                    for b in self.bodies
                    if _ref_before(opener, b) and _ref_before(b, occurrence)
                ]
                emissions.append((opener, *window, occurrence))
        return emissions


def reference_run(expression, context, delivered):
    """Emissions of the literal reference, as constituent tuples, in order."""
    emissions = []
    if expression == "a ; b":
        seq = _RefSequence(context)
        for o in delivered:
            emissions += seq.first(o) if o.event_type == "a" else seq.second(o)
    elif expression == "a and b":
        conj = _RefAnd(context)
        for o in delivered:
            emissions += conj.receive(o, left=o.event_type == "a")
    elif expression == "(a and b) ; c":
        conj, seq = _RefAnd(context), _RefSequence(context)
        for o in delivered:
            if o.event_type == "c":
                emissions += seq.second(o)
                continue
            for pair in conj.receive(o, left=o.event_type == "a"):
                seq.first(_ref_composite("(a and b)", pair))
    elif expression == "not(n)[o, c]":
        neg = _RefNot(context)
        for o in delivered:
            if o.event_type == "c":
                emissions += neg.closer(o)
            else:
                (neg.openers if o.event_type == "o" else neg.negated).append(o)
    else:
        star = _RefAperiodicStar(context)
        for o in delivered:
            if o.event_type == "c":
                emissions += star.closer(o)
            else:
                (star.openers if o.event_type == "o" else star.bodies).append(o)
    return emissions


EXPRESSION_TYPES = {
    "a ; b": "ab",
    "(a and b) ; c": "abc",
    "a and b": "ab",
    "not(n)[o, c]": "noc",
    "A*(o, m, c)": "omc",
}


@st.composite
def drifting_deliveries(draw, types):
    """Out-of-order, multi-site deliveries stamped by drifting clocks.

    Returns ``(event_type, stamp)`` rows in delivery order plus a
    checkpoint cut.  Each event is stamped by its site's clock at its
    true time; a per-event lag then reorders delivery.
    """
    clocks = ClockEnsemble.random(
        TimeModel.example_5_1(),
        CLOCK_SITES,
        random.Random(draw(st.integers(0, 2**16))),
        horizon=Fraction(20),
    )
    count = draw(st.integers(min_value=1, max_value=24))
    t = Fraction(1)
    rows = []
    for _ in range(count):
        t += Fraction(draw(st.integers(min_value=2, max_value=30)), 100)
        site = draw(st.sampled_from(CLOCK_SITES))
        rows.append((draw(st.sampled_from(types)), clocks.stamp(site, t)))
    lags = draw(st.lists(st.integers(0, 6), min_size=count, max_size=count))
    order = sorted(range(count), key=lambda i: (i + lags[i], i))
    cut = draw(st.integers(min_value=0, max_value=count))
    return [rows[i] for i in order], cut


def _leaves(constituents):
    return tuple(
        leaf.parameters["k"] for c in constituents for leaf in c.primitive_leaves()
    )


class TestConsumingSelectionEquivalence:
    """Key-ordered node buffers ≡ the literal ``select_initiators`` pick."""

    def check(self, expression, context, data):
        delivered, cut = data.draw(
            drifting_deliveries(EXPRESSION_TYPES[expression])
        )

        def build():
            detector = Detector()
            detector.register(expression, name="r", context=context)
            return detector

        detector = build()
        fed = []
        produced = []
        for k, (event_type, stamp) in enumerate(delivered):
            if k == cut:
                restored = build()
                restore(restored, snapshot(detector))
                detector = restored
            occurrence = EventOccurrence.primitive(event_type, stamp, {"k": k})
            fed.append(occurrence)
            produced += detector.feed(occurrence)
        expected = reference_run(expression, context, fed)
        assert [_leaves(d.occurrence.constituents) for d in produced] == [
            _leaves(e) for e in expected
        ]
        assert [d.occurrence.timestamp for d in produced] == [
            CompositeTimestamp(
                ref_max_set(s for c in e for s in c.timestamp.stamps)
            )
            for e in expected
        ]

    @pytest.mark.parametrize("expression", list(EXPRESSION_TYPES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_chronicle_matches_literal_selection(self, expression, data):
        self.check(expression, Context.CHRONICLE, data)

    @pytest.mark.parametrize("expression", list(EXPRESSION_TYPES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_other_consuming_contexts_match_literal_selection(
        self, expression, data
    ):
        self.check(expression, data.draw(st.sampled_from(CONSUMING)), data)
