"""Schema tests: every event kind serialises losslessly and versioned."""

import pytest

from repro.telemetry.events import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    IterationAdvanced,
    PlanCacheLookup,
    QueueDepth,
    RequestAdmitted,
    RequestArrived,
    RequestDecoded,
    RequestRetired,
    RunFinished,
    RunStarted,
    ShardOccupancy,
    from_record,
    to_record,
)

EXAMPLES = [
    RunStarted(
        backend="analytical",
        num_shards=2,
        max_batch_size=8,
        num_requests=32,
        tick_seconds=1.0 / 300e6,
        power_w=12.5,
        mode="continuous",
        policy="sjf",
        iteration_rows=128,
    ),
    RequestArrived(request_id=7, seq_len=256, head_rows=512, arrival_time=0.125),
    RequestAdmitted(request_id=7, shard=1, admit_time=0.25, residency=3),
    RequestDecoded(
        request_id=7,
        new_tokens=8,
        block_sizes=(1, 2, 4, 1),
        block_times=(0.25, 0.3125, 0.375, 0.4375),
        arrival_time=0.125,
    ),
    RequestRetired(
        request_id=7,
        shard=1,
        batch_id=4,
        batch_size=3,
        device_seconds=0.0625,
        arrival_time=0.125,
        admit_time=0.25,
        finish_time=0.5,
    ),
    IterationAdvanced(
        index=11,
        shard=1,
        start_tick=75_000_000,
        ticks=12345,
        energy_ticks=12345,
        gate_rows=64,
        primed=True,
        num_resident=5,
        occupancy=0.625,
    ),
    ShardOccupancy(shard=0, residents=5, slots=8, occupancy=0.625, time=0.25),
    QueueDepth(depth=12, time=0.25),
    PlanCacheLookup(seq_len=256, hit=True, entries=3),
    RunFinished(wall_seconds=1.5, stats={"backend": "analytical", "num_requests": 32}),
]


class TestRoundTrip:
    @pytest.mark.parametrize("event", EXAMPLES, ids=lambda event: event.kind)
    def test_to_from_record_is_identity(self, event):
        record = to_record(event)
        assert record["v"] == SCHEMA_VERSION
        assert record["kind"] == event.kind
        assert from_record(record) == event

    def test_every_kind_is_registered(self):
        assert {event.kind for event in EXAMPLES} == set(EVENT_TYPES)

    def test_float_fields_round_trip_bit_exactly(self):
        import json

        value = 0.1 + 0.2  # not exactly representable in decimal
        event = QueueDepth(depth=1, time=value)
        restored = from_record(json.loads(json.dumps(to_record(event))))
        assert restored.time == value  # bit-identical, not approx

    def test_decode_tuples_survive_json_as_tuples(self):
        import json

        event = RequestDecoded(
            request_id=1,
            new_tokens=3,
            block_sizes=(1, 2),
            block_times=(0.5, 0.75),
            arrival_time=0.25,
        )
        restored = from_record(json.loads(json.dumps(to_record(event))))
        # JSON lowers tuples to lists; deserialisation must restore them so
        # replayed events compare equal to emitted ones.
        assert restored == event
        assert isinstance(restored.block_sizes, tuple)
        assert isinstance(restored.block_times, tuple)

    def test_integer_ticks_survive_json_as_ints(self):
        import json

        # Ticks past 2**53 would lose bits as floats; JSON keeps them ints.
        event = IterationAdvanced(
            index=0,
            shard=0,
            start_tick=2**60 + 1,
            ticks=3,
            energy_ticks=7,
            gate_rows=1,
            primed=False,
            num_resident=1,
            occupancy=0.5,
        )
        restored = from_record(json.loads(json.dumps(to_record(event))))
        assert restored == event
        assert type(restored.start_tick) is int


class TestValidation:
    def test_wrong_schema_version_rejected(self):
        record = to_record(QueueDepth(depth=1, time=0.0))
        record["v"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            from_record(record)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_pre_tick_schema_rejected_with_a_remedy(self, version):
        # A v3 iteration carried float seconds/cycles/joules; replaying it as
        # ticks would be wrong, so the reader refuses and says what to do.
        record = {
            "v": version,
            "kind": "iteration_advanced",
            "index": 0,
            "shard": 0,
            "start_seconds": 0.0,
            "seconds": 1e-6,
            "cycles": 300,
            "energy_joules": 1e-5,
            "gate_rows": 32,
            "primed": False,
            "num_resident": 1,
            "occupancy": 0.25,
        }
        with pytest.raises(ValueError, match="integer-tick schema.*re-record"):
            from_record(record)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            from_record({"v": SCHEMA_VERSION, "kind": "mystery"})

    @pytest.mark.parametrize(
        "record",
        [
            {"kind": "batch_dispatched", "batch_id": 2, "shard": 0, "size": 4},
            {"kind": "request_cancelled", "request_id": 9, "time": 0.375},
        ],
        ids=lambda record: record["kind"],
    )
    def test_removed_thread_pool_kinds_rejected(self, record):
        # Logs of the retired thread-pool drain engine carried these kinds;
        # they fail loudly instead of replaying into wrong stats.
        assert record["kind"] not in EVENT_TYPES
        with pytest.raises(ValueError, match="unknown event kind"):
            from_record({"v": SCHEMA_VERSION, **record})
