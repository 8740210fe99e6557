"""Shared helpers for the figure-regeneration benchmarks.

Each ``bench_figNN`` module regenerates the data of one paper figure or
table and prints it (with the paper's reported values for comparison);
``pytest benchmarks/ --benchmark-only`` times the regeneration itself.
"""

from typing import Dict, Iterable, List

from repro.analysis import format_table


def print_figure(title: str, rows: Iterable[Dict], note: str = "") -> None:
    rows = list(rows)
    print()
    print("=" * 78)
    print(title)
    if note:
        print(note)
    print("=" * 78)
    if not rows:
        print("(no rows)")
        return
    keys: List[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    table_rows = [[row.get(k, "") for k in keys] for row in rows]
    print(format_table(keys, table_rows))
