# lint-path: src/repro/core/fixture_num003.py
"""NUM003 fixture: builtin sum() over terms not visibly integral."""

from repro.obs.stats import ordered_sum


def totals(values, pairs, row):
    flat = sum(values)                              # expect[NUM003]
    weighted = sum(x * w for x, w in pairs)         # expect[NUM003]
    mass = sum(row.values())                        # expect[NUM003]
    halves = sum([0.5, 0.25])                       # expect[NUM003]
    return flat, weighted, mass, halves


def counts(rows, values, flags):
    # Visibly integral terms are exempt: they add exactly everywhere.
    n = sum(1 for _ in rows)
    cells = sum(len(row) for row in rows)
    positive = sum(value > 0.0 for value in values)
    mixed = sum(2 * len(row) - 1 if flag else 0
                for row, flag in zip(rows, flags))
    literal = sum([1, 2, -3])
    return n, cells, positive, mixed, literal, ordered_sum(values)
