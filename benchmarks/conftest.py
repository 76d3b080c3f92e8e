"""Shared helpers for the paper-reproduction benchmarks.

Each ``bench_tableN.py`` regenerates one table of the paper; rows are
printed and also written to ``benchmarks/results/`` as text.  pytest
collects only ``test_*.py`` by default, so run them with (``-s`` shows
the tables)::

    PYTHONPATH=src python -m pytest benchmarks -o python_files='bench_*.py' \
        --benchmark-disable -q
"""

import os
from typing import Dict, Iterable, List

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit_table(name: str, headers: List[str],
               rows: Iterable[Dict[str, object]]) -> str:
    """Format, print and persist one reproduced table."""
    rows = list(rows)
    widths = {h: max(len(h), *(len(str(r.get(h, ""))) for r in rows))
              if rows else len(h) for h in headers}
    lines = ["  ".join(h.ljust(widths[h]) for h in headers),
             "  ".join("-" * widths[h] for h in headers)]
    for row in rows:
        lines.append("  ".join(
            str(row.get(h, "")).ljust(widths[h]) for h in headers))
    text = f"== {name} ==\n" + "\n".join(lines) + "\n"
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text)
    return text


def once(benchmark, fn):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
