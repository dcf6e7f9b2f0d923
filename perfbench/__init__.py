"""Serving benchmark: three workloads through ``serve_continuous``, two clocks.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/README.md``.
"""
