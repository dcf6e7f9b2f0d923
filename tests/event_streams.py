"""Scheduler-equivalence helpers: completions, and bursts and event streams in canonical form.

Two serves' completions are equivalent when they are equal field for field,
in order, outputs compared by value (:func:`assert_same_completions`).

The event scheduler keeps one :class:`~repro.serving.continuous.BurstRecord`
per priced burst; the reference loop keeps one per iteration.  Two serves'
records are equivalent when, per shard, they are equal field for field once
each run of records that no admission or retirement interrupts is coalesced
into one (:func:`assert_records_equivalent`).

The event scheduler emits one ``burst_advanced`` per priced burst; the
reference loop emits one per iteration.  Two streams are equivalent when

(i) with every ``burst_advanced`` removed they are equal record for record
    (``run_finished`` wall seconds excepted: they read the host clock), and
(ii) per shard, their bursts are equal field for field once each run of
     bursts that no admission or retirement on that shard interrupts is
     coalesced into one.

Coalescing the event scheduler's own records or stream is a no-op, which
both assertions check too.
"""

from dataclasses import fields, replace

import numpy as np

from repro.serving.continuous import BurstRecord
from repro.serving.request import CompletedRequest
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


def coalesce_records(bursts) -> "dict[int, list[BurstRecord]]":
    """Per shard, a serve's burst records with each uninterrupted run merged.

    A shard's run opens at a record with ``admitted`` ids, or at the record
    after one with ``retired`` ids.  Within a run the ticks must be
    contiguous and the residents the same requests in the same slots.  The
    merged record sums iterations, ticks, energy ticks and each resident's
    rows, keeps the first record's other fields and takes the last one's
    ``retired`` ids.
    """
    runs: "dict[int, list[BurstRecord]]" = {}
    for record in bursts:
        shard_runs = runs.setdefault(record.shard, [])
        if not shard_runs or record.admitted or shard_runs[-1].retired:
            shard_runs.append(record)
            continue
        last = shard_runs[-1]
        assert record.start_tick == last.start_tick + last.ticks, (
            f"shard {record.shard}: burst at tick {record.start_tick} does not follow "
            f"the run ending at tick {last.start_tick + last.ticks}"
        )
        ids = [request_id for request_id, _ in record.resident]
        assert ids == [request_id for request_id, _ in last.resident], (
            f"shard {record.shard}: residents changed without an admission or retirement"
        )
        shard_runs[-1] = replace(
            last,
            iterations=last.iterations + record.iterations,
            ticks=last.ticks + record.ticks,
            energy_ticks=last.energy_ticks + record.energy_ticks,
            resident=tuple(
                (request_id, rows + more)
                for (request_id, rows), (_, more) in zip(last.resident, record.resident)
            ),
            retired=record.retired,
        )
    return runs


def assert_records_equivalent(event_bursts, reference_bursts) -> None:
    """The event scheduler's burst records are the reference's, coalesced."""
    by_shard: "dict[int, list[BurstRecord]]" = {}
    for record in event_bursts:
        by_shard.setdefault(record.shard, []).append(record)
    assert coalesce_records(event_bursts) == by_shard, "event scheduler records coalesce"
    assert coalesce_records(reference_bursts) == by_shard


def assert_streams_equivalent(event_events, reference_events) -> None:
    """The event scheduler's stream is the reference stream in canonical form."""
    event_log = [_comparable(event) for event in event_events]
    reference_log = [_comparable(event) for event in reference_events]
    event_rest = [record for record in event_log if record["kind"] != BURST]
    reference_rest = [record for record in reference_log if record["kind"] != BURST]
    assert len(event_rest) == len(reference_rest)
    for position, (event_record, reference_record) in enumerate(zip(event_rest, reference_rest)):
        assert event_record == reference_record, f"non-burst record {position}"
    event_bursts: "dict[int, list[dict]]" = {}
    for record in event_log:
        if record["kind"] == BURST:
            event_bursts.setdefault(record["shard"], []).append(record)
    assert coalesce_bursts(event_log) == event_bursts, "event scheduler bursts coalesce"
    assert coalesce_bursts(reference_log) == event_bursts


def assert_same_completions(event_completed, reference_completed) -> None:
    """Every :class:`CompletedRequest` field agrees, in order; outputs by value."""
    assert len(event_completed) == len(reference_completed)
    for position, (event_done, reference_done) in enumerate(
        zip(event_completed, reference_completed)
    ):
        for spec in fields(CompletedRequest):
            event_value = getattr(event_done, spec.name)
            reference_value = getattr(reference_done, spec.name)
            if spec.name == "output" and event_value is not None:
                assert np.array_equal(event_value, reference_value), f"completion {position}"
            else:
                assert event_value is reference_value or event_value == reference_value, (
                    f"completion {position}: {spec.name} {event_value!r} != {reference_value!r}"
                )
