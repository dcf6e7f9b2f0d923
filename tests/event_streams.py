"""Canonical form of a serve's event stream, for scheduler-equivalence tests.

The event scheduler emits one ``burst_advanced`` per priced burst; the
reference loop emits one per iteration.  Two streams are equivalent when

(i) with every ``burst_advanced`` removed they are equal record for record
    (``run_finished`` wall seconds excepted: they read the host clock), and
(ii) per shard, their bursts are equal field for field once each run of
     bursts that no admission or retirement on that shard interrupts is
     coalesced into one.

Coalescing the event scheduler's own stream is a no-op, which
:func:`assert_streams_equivalent` checks too.
"""

from repro.telemetry.events import to_record

BURST = "burst_advanced"

#: Burst fields a coalesced run sums; every other field is the first burst's.
_SUMMED = ("iterations", "ticks", "energy_ticks")

#: Events that end a shard's run of bursts.
_RESIDENT_CHANGES = ("request_admitted", "request_retired")


def _comparable(event) -> dict:
    """``event`` as a record, with the host-clock wall seconds zeroed."""
    record = to_record(event)
    if record["kind"] == "run_finished":
        record["wall_seconds"] = 0.0
        record["stats"] = {**record["stats"], "wall_seconds": 0.0}
    return record


def coalesce_bursts(records) -> "dict[int, list[dict]]":
    """Per shard, the stream's bursts with each uninterrupted run merged.

    A run is a shard's consecutive ``burst_advanced`` records that no
    ``request_admitted`` or ``request_retired`` on that shard separates.
    Within a run the ticks must be contiguous and the residents equal.  The
    merged burst sums iterations, ticks and energy ticks and keeps the first
    burst's ``start_tick`` and ``primed``.
    """
    bursts: "dict[int, list[dict]]" = {}
    extendable: "set[int]" = set()
    for record in records:
        kind = record["kind"]
        if kind in _RESIDENT_CHANGES:
            extendable.discard(record["shard"])
        elif kind == BURST:
            shard = record["shard"]
            runs = bursts.setdefault(shard, [])
            if shard in extendable:
                last = runs[-1]
                assert record["start_tick"] == last["start_tick"] + last["ticks"], (
                    f"shard {shard}: burst at tick {record['start_tick']} does not follow "
                    f"the run ending at tick {last['start_tick'] + last['ticks']}"
                )
                assert record["residents"] == last["residents"], (
                    f"shard {shard}: residents changed without an admission or retirement"
                )
                runs[-1] = {**last, **{name: last[name] + record[name] for name in _SUMMED}}
            else:
                runs.append(dict(record))
                extendable.add(shard)
    return bursts


def assert_streams_equivalent(event_events, reference_events) -> None:
    """The event scheduler's stream is the reference stream in canonical form."""
    event_log = [_comparable(event) for event in event_events]
    reference_log = [_comparable(event) for event in reference_events]
    event_rest = [record for record in event_log if record["kind"] != BURST]
    reference_rest = [record for record in reference_log if record["kind"] != BURST]
    assert len(event_rest) == len(reference_rest)
    for position, (event_record, reference_record) in enumerate(
        zip(event_rest, reference_rest)
    ):
        assert event_record == reference_record, f"non-burst record {position}"
    event_bursts: "dict[int, list[dict]]" = {}
    for record in event_log:
        if record["kind"] == BURST:
            event_bursts.setdefault(record["shard"], []).append(record)
    assert coalesce_bursts(event_log) == event_bursts, "event scheduler bursts coalesce"
    assert coalesce_bursts(reference_log) == event_bursts
