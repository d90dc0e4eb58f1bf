"""Event-consumption policies (parameter contexts) for operator nodes.

Snoop/Sentinel define four parameter contexts in addition to the
unrestricted semantics; they control, when a terminator occurrence
arrives at a binary operator node, *which* buffered initiator occurrences
it combines with and which are consumed:

``UNRESTRICTED``
    Every eligible initiator combines; nothing is consumed.  This is the
    denotational semantics of :mod:`repro.events.semantics` and the mode
    in which the operational detector is validated against the oracle.
``RECENT``
    Only the most recent eligible initiator combines; it is *kept* (it
    stays the most recent until a newer one arrives).  Older initiators
    are discarded.  Suited to sensor-style workloads where the freshest
    reading matters.
``CHRONICLE``
    The oldest eligible initiator combines and is consumed — FIFO
    pairing, suited to transaction-log style correlation.
``CONTINUOUS``
    Every eligible initiator combines with this terminator and all of
    them are consumed — each initiator starts a window closed by the
    first terminator.
``CUMULATIVE``
    All eligible initiators are merged into a single detection and
    consumed together.

"Most recent"/"oldest" are only partially defined under the paper's
partial order; following the Sentinel implementation we order initiators
by (latest global granule, arrival sequence) — a deterministic
linearization consistent with the partial order (if ``T1 < T2`` then
``T1``'s latest granule is at most ``T2``'s).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.events.occurrences import EventOccurrence


class Context(enum.Enum):
    """The Sentinel parameter contexts."""

    UNRESTRICTED = "unrestricted"
    RECENT = "recent"
    CHRONICLE = "chronicle"
    CONTINUOUS = "continuous"
    CUMULATIVE = "cumulative"


@dataclass(frozen=True, slots=True)
class Selection:
    """The outcome of applying a context to an initiator buffer.

    ``groups`` — each inner tuple is one set of initiators participating
    in one detection (singletons except under ``CUMULATIVE``);
    ``consumed`` — the initiators to remove from the buffer;
    ``discarded`` — initiators invalidated without participating (only
    under ``RECENT``, which drops stale initiators).
    """

    groups: tuple[tuple[EventOccurrence, ...], ...]
    consumed: tuple[EventOccurrence, ...]
    discarded: tuple[EventOccurrence, ...]


def recency_key(occurrence: EventOccurrence) -> tuple[int, int]:
    """The (latest global granule, uid) linearization of initiators."""
    return (occurrence.timestamp.global_span()[1], occurrence.uid)


def select_initiators(
    context: Context, eligible: list[EventOccurrence]
) -> Selection:
    """Apply ``context`` to the eligible initiators of one terminator.

    ``eligible`` must be in arrival order; an empty list yields an empty
    selection.

    >>> select_initiators(Context.UNRESTRICTED, []).groups
    ()
    """
    if not eligible:
        return Selection(groups=(), consumed=(), discarded=())
    if len(eligible) == 1:
        # One eligible initiator: every context selects it; they only
        # differ in whether it is consumed from the buffer.
        only = eligible[0]
        if context is Context.UNRESTRICTED or context is Context.RECENT:
            return Selection(groups=((only,),), consumed=(), discarded=())
        return Selection(groups=((only,),), consumed=(only,), discarded=())
    if context is Context.UNRESTRICTED:
        return Selection(
            groups=tuple((initiator,) for initiator in eligible),
            consumed=(),
            discarded=(),
        )
    if context is Context.RECENT:
        most_recent = max(eligible, key=recency_key)
        stale = tuple(o for o in eligible if o is not most_recent)
        return Selection(groups=((most_recent,),), consumed=(), discarded=stale)
    if context is Context.CHRONICLE:
        oldest = min(eligible, key=recency_key)
        return Selection(groups=((oldest,),), consumed=(oldest,), discarded=())
    if context is Context.CONTINUOUS:
        return Selection(
            groups=tuple((initiator,) for initiator in eligible),
            consumed=tuple(eligible),
            discarded=(),
        )
    if context is Context.CUMULATIVE:
        return Selection(
            groups=(tuple(eligible),),
            consumed=tuple(eligible),
            discarded=(),
        )
    raise ValueError(f"unknown context {context!r}")  # pragma: no cover
