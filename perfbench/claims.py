"""Paper-claims guard: the nine headline numbers must not drift.

``repro.experiments.headline.run()`` recomputes every Section 5 claim from
the models.  The benchmark refuses to report when any recomputed value,
rounded to two decimals, differs from its pinned value below — a serving
speed-up that moved the reproduction is not a speed-up.
"""

from __future__ import annotations

from repro.experiments import headline

__all__ = ["PINNED", "check_paper_claims"]

#: Model value of each ``headline.PAPER_CLAIMS`` entry, to two decimals.
PINNED = {
    "speedup vs BTF-1 @4096": 6.7,
    "speedup vs BTF-2 @4096": 12.2,
    "speedup vs Butterfly @16384 (best case)": 23.83,
    "energy efficiency vs BTF-1 @16384": 11.38,
    "energy efficiency vs BTF-2 @16384": 21.59,
    "energy efficiency vs Butterfly @16384 (abstract)": 11.38,
    "energy efficiency vs GPU @16384 (FP16)": 16.16,
    "energy efficiency vs GPU @16384 (FP32)": 8.25,
    "energy efficiency vs GPU @4096 (FP16)": 6.24,
}


def check_paper_claims() -> "tuple[list[str], list[str]]":
    """Recompute the claims: ``(table lines, drifted claim names)``."""
    _, measured = headline.run()
    lines = [f"{'claim':<50} {'paper':>7} {'model':>7} {'pinned':>7}"]
    drifted = []
    for claim, paper in headline.PAPER_CLAIMS.items():
        model = round(measured[claim], 2)
        pinned = PINNED.get(claim)
        if model != pinned:
            drifted.append(claim)
        lines.append(f"{claim:<50} {paper:>7} {model:>7} {pinned!s:>7}")
    return lines, drifted
