"""``repro-trace``: inspect, replay and watch serving event logs.

Subcommands over the JSONL logs ``repro-serve --events PATH`` writes:

``summarize``
    Event-kind counts plus the streaming metrics snapshot of one run: the
    first run of the log, or the one ``--run-id`` selects.

``replay``
    Reconstruct the run's :class:`~repro.serving.stats.ServingStats` from
    the log alone and print the stats table.  ``--strict`` additionally
    cross-checks every field against the stats the live run recorded in its
    ``run_finished`` event, exiting non-zero on any mismatch — the CI smoke
    job's parity gate.  ``--run-id`` selects one run of a multi-run log
    (``repro-serve --compare`` logs the continuous run as 0 and the drain
    run as 1); without it the first run is replayed.

``watch``
    Live console over a (possibly still growing) log: a textual DataTable
    when the optional dependency is present, a plain-ANSI table otherwise.
    ``--once`` renders the current contents and exits.

.. code-block:: console

    $ repro-serve --mode continuous --requests 64 --events run.jsonl
    $ repro-trace replay run.jsonl --strict
    $ repro-trace watch run.jsonl --once --plain
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.telemetry.aggregate import MetricsAggregator
from repro.telemetry.console import watch
from repro.telemetry.log import EventLogReader
from repro.telemetry.replay import TraceReplayer

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Inspect, replay and watch serving event logs (JSONL).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser("summarize", help="event counts + metrics snapshot")
    summarize.add_argument("path", help="event log to summarise")
    summarize.add_argument("--json", action="store_true", help="emit the snapshot as JSON")
    summarize.add_argument(
        "--run-id", type=int, default=None, help="restrict to one run of a multi-run log"
    )

    replay = commands.add_parser("replay", help="reconstruct ServingStats from the log")
    replay.add_argument("path", help="event log to replay")
    replay.add_argument(
        "--strict",
        action="store_true",
        help="fail unless the reconstruction matches the recorded stats bit for bit",
    )
    replay.add_argument(
        "--run-id", type=int, default=None, help="replay one run of a multi-run log"
    )

    watcher = commands.add_parser("watch", help="live metrics console over a log")
    watcher.add_argument("path", help="event log to tail")
    watcher.add_argument("--interval", type=float, default=0.5, help="refresh seconds")
    watcher.add_argument(
        "--plain", action="store_true", help="force the ANSI renderer (skip textual)"
    )
    watcher.add_argument("--once", action="store_true", help="render the current log once and exit")
    return parser


def _cmd_summarize(args) -> int:
    events = EventLogReader(args.path)
    if args.run_id is not None:
        events = (event for event in events if event.run_id == args.run_id)
    # The aggregator binds to the first run it sees: the selected one.
    aggregator = MetricsAggregator().feed_all(events)
    counts = aggregator.event_counts
    if args.json:
        snapshot = {key: value for key, value in aggregator.snapshot().items() if key != "status"}
        snapshot["event counts"] = dict(sorted(counts.items()))
        print(json.dumps(snapshot, indent=2, default=str))
        return 0
    print(aggregator.to_table(title=f"Event log summary ({args.path})").render())
    print()
    width = max((len(kind) for kind in counts), default=0)
    for kind in sorted(counts):
        print(f"  {kind.ljust(width)}  {counts[kind]}")
    return 0


def _cmd_replay(args) -> int:
    replayer = TraceReplayer(run_id=args.run_id).feed_all(EventLogReader(args.path))
    stats = replayer.stats()
    print(stats.to_table(title=f"Replayed serving stats ({args.path})").render())
    if not args.strict:
        return 0
    mismatches = replayer.mismatches()
    if mismatches:
        print()
        print(f"replay mismatch: {len(mismatches)} field(s) differ from the recorded stats")
        for line in mismatches:
            print(f"  {line}")
        return 1
    print()
    print("replay verified: reconstructed stats are bit-identical to the recorded run")
    return 0


def _cmd_watch(args) -> int:
    return watch(args.path, interval=args.interval, follow=not args.once, plain=args.plain)


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not Path(args.path).exists():
        parser.error(f"event log {args.path!r} does not exist")
    if args.command == "summarize":
        return _cmd_summarize(args)
    if args.command == "replay":
        return _cmd_replay(args)
    return _cmd_watch(args)


if __name__ == "__main__":
    raise SystemExit(main())
