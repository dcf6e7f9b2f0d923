"""Benchmark headline-number artifacts (the ``BENCH_*.json`` trajectory).

Benchmarks call :func:`record_bench` with a named entry of headline numbers;
entries merge into one JSON document per artifact so a single CI run
accumulates every suite's numbers into ``BENCH_serving.json`` /
``BENCH_model.json``, which the workflow uploads — the per-PR perf
trajectory ROADMAP item 5 asked for.  Writes are atomic (tmp + rename) so a
crashed benchmark never leaves a half-written artifact behind.

Artifacts are written only into the directory named by the
:data:`BENCH_ARTIFACT_ENV` environment variable; with it unset nothing is
written, so a plain test run never rewrites a tracked file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["BENCH_ARTIFACT_ENV", "artifact_path", "record_bench"]

#: Environment variable naming the directory artifacts are written into.
BENCH_ARTIFACT_ENV = "BENCH_ARTIFACT_DIR"


def artifact_path(name: str) -> "Path | None":
    """Resolve an artifact file name against the configured directory.

    Returns ``None`` when :data:`BENCH_ARTIFACT_ENV` is unset or empty.
    """
    base = os.environ.get(BENCH_ARTIFACT_ENV, "")
    if not base:
        return None
    directory = Path(base)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


def record_bench(artifact: str, entry: str, payload: "dict[str, object]") -> "Path | None":
    """Merge ``payload`` under ``entry`` into the named JSON artifact.

    Returns the path written, or ``None`` (writing nothing) when no artifact
    directory is configured.  Existing entries of other names are preserved
    (merge-on-write), so independent benchmark modules can contribute to one
    artifact file in any order.
    """
    path = artifact_path(artifact)
    if path is None:
        return None
    document: "dict[str, object]" = {}
    if path.exists():
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            document = {}
    if not isinstance(document, dict):
        document = {}
    document[entry] = payload
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path
