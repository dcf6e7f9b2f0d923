"""EventBus semantics and the JSONL writer/reader pair."""

import json
import threading
import time

import pytest

from repro.telemetry.bus import NULL_BUS, EventBus
from repro.telemetry.events import QueueDepth, RequestArrived, to_record
from repro.telemetry.log import EventLogReader, EventLogWriter


class TestEventBus:
    def test_inactive_until_subscribed(self):
        bus = EventBus()
        assert not bus.active
        bus.subscribe([].append)
        assert bus.active

    def test_emit_delivers_to_subscribed_sink(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(QueueDepth(depth=1, time=0.0))
        assert seen == [QueueDepth(depth=1, time=0.0)]

    def test_unsubscribe_deactivates(self):
        bus = EventBus()
        seen = []
        sink = seen.append
        bus.subscribe(sink)
        bus.unsubscribe(sink)
        assert not bus.active
        bus.emit(QueueDepth(depth=1, time=0.0))
        assert seen == []

    def test_multiple_sinks_receive_in_order(self):
        bus = EventBus()
        first, second = [], []
        bus.subscribe(first.append)
        bus.subscribe(second.append)
        event = QueueDepth(depth=2, time=1.0)
        bus.emit(event)
        assert first == [event] and second == [event]

    def test_non_callable_sink_rejected(self):
        with pytest.raises(TypeError):
            EventBus().subscribe(object())

    def test_null_bus_is_immutable(self):
        assert not NULL_BUS.active
        with pytest.raises(RuntimeError):
            NULL_BUS.subscribe(print)


class TestEventLog:
    def test_writer_reader_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [
            RequestArrived(request_id=index, seq_len=64, head_rows=64, arrival_time=index / 8)
            for index in range(5)
        ]
        with EventLogWriter(path) as writer:
            for event in events:
                writer(event)
            assert writer.events_written == 5
        assert list(EventLogReader(path)) == events

    def test_writer_is_a_bus_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        with EventLogWriter(path) as writer:
            bus.subscribe(writer)
            bus.emit(QueueDepth(depth=3, time=0.5))
        assert list(EventLogReader(path)) == [QueueDepth(depth=3, time=0.5)]

    def test_reader_streams_one_line_at_a_time(self, tmp_path):
        # The first event is yielded before later lines are parsed, so a
        # large log is never held in memory whole.
        path = tmp_path / "events.jsonl"
        first = QueueDepth(depth=1, time=0.0)
        path.write_text(json.dumps(to_record(first)) + "\n\nnot json\n")
        events = iter(EventLogReader(path))
        assert next(events) == first
        with pytest.raises(json.JSONDecodeError):
            next(events)

    def test_concurrent_writes_produce_whole_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLogWriter(path) as writer:
            threads = [
                threading.Thread(
                    target=lambda base: [
                        writer(QueueDepth(depth=base * 100 + step, time=0.0))
                        for step in range(50)
                    ],
                    args=(base,),
                )
                for base in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        events = list(EventLogReader(path))
        assert len(events) == 200
        assert sorted(event.depth for event in events) == sorted(
            base * 100 + step for base in range(4) for step in range(50)
        )

    def test_tail_follows_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = EventLogWriter(path)
        writer(QueueDepth(depth=1, time=0.0))
        reader = EventLogReader(path)
        seen = []

        def consume():
            for event in reader.tail(poll_interval=0.01, stop=lambda: len(seen) >= 2):
                seen.append(event)
                if len(seen) >= 2:
                    break

        thread = threading.Thread(target=consume)
        thread.start()
        writer(QueueDepth(depth=2, time=1.0))
        thread.join(timeout=5)
        writer.close()
        assert not thread.is_alive()
        assert [event.depth for event in seen] == [1, 2]

    def test_tail_of_empty_log_waits_without_yielding(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("")
        polls = []

        def stop():
            polls.append(True)
            return len(polls) >= 3

        seen = list(EventLogReader(path).tail(poll_interval=0.001, stop=stop))
        assert seen == []
        assert len(polls) == 3

    def test_tail_holds_back_partial_line_until_completed(self, tmp_path):
        """A writer crash (or flush) mid-line must not yield a broken record.

        The tail seeks back to the start of any line that does not yet end in
        a newline and re-reads it on the next poll, so the half-written JSON
        is only ever parsed once the line is whole.
        """
        path = tmp_path / "events.jsonl"
        whole = json.dumps(to_record(QueueDepth(depth=1, time=0.0)), separators=(",", ":"))
        fragment = json.dumps(to_record(QueueDepth(depth=2, time=1.0)), separators=(",", ":"))
        cut = len(fragment) // 2
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(whole + "\n" + fragment[:cut])

        reader = EventLogReader(path)
        seen = []

        def consume():
            for event in reader.tail(poll_interval=0.001, stop=lambda: len(seen) >= 2):
                seen.append(event)
                if len(seen) >= 2:
                    break

        thread = threading.Thread(target=consume)
        thread.start()
        # Let the tail reach (and refuse) the partial line, then finish it
        # the way a resumed writer would: the rest of the bytes plus newline.
        time.sleep(0.05)
        assert [event.depth for event in seen] == [1]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(fragment[cut:] + "\n")
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert [event.depth for event in seen] == [1, 2]

    def test_tail_while_writer_appends_concurrently(self, tmp_path):
        """Appends racing the tail are seen exactly once, in order."""
        path = tmp_path / "events.jsonl"
        writer = EventLogWriter(path)
        total = 200
        seen = []

        def consume():
            for event in EventLogReader(path).tail(
                poll_interval=0.001, stop=lambda: len(seen) >= total
            ):
                seen.append(event)
                if len(seen) >= total:
                    break

        thread = threading.Thread(target=consume)
        thread.start()
        for depth in range(total):
            writer(QueueDepth(depth=depth, time=float(depth)))
        thread.join(timeout=10)
        writer.close()
        assert not thread.is_alive()
        assert [event.depth for event in seen] == list(range(total))
