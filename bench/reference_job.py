"""Fixed reference job that measures the machine, not the program.

    python bench/reference_job.py

A stdlib-only child shaped like a CLI job: it starts the interpreter,
imports argparse, json and fractions, eliminates a fixed sparse matrix over
the rationals and over F_32003 with dict rows, and prints one JSON line.
Its input never changes and it shares no code with curvemoduli, so its wall
time moves only with the machine: the benchmark runs it between jobs and
scales its timings by it (see run.py).
"""

import argparse
import json
from fractions import Fraction

P = 32003


def matrix(n_rows, n_cols, per_row, seed=12345):
    """Deterministic sparse integer rows from a linear congruential stream."""
    state = seed
    rows = []
    for _ in range(n_rows):
        row = {}
        for _ in range(per_row):
            state = (1103515245 * state + 12345) % 2 ** 31
            col = state % n_cols
            state = (1103515245 * state + 12345) % 2 ** 31
            row[col] = state % 19 - 9 or 1
        rows.append(row)
    return rows


def rank(rows, field_p=None):
    pivots = {}
    for src in rows:
        v = {c: (Fraction(x) if field_p is None else x % field_p) for c, x in src.items()}
        while v:
            col = min(v)
            if col not in pivots:
                inv = 1 / v[col] if field_p is None else pow(v[col], -1, field_p)
                pivots[col] = {c: (x * inv if field_p is None else x * inv % field_p)
                               for c, x in v.items()}
                break
            coef = v[col]
            for c, x in pivots[col].items():
                s = v.get(c, 0) - coef * x
                if field_p is not None:
                    s %= field_p
                if s:
                    v[c] = s
                else:
                    v.pop(c, None)
    return len(pivots)


def main():
    argparse.ArgumentParser(description="reference job").parse_args()
    rows = matrix(70, 90, 4)
    print(json.dumps({"rank_qq": rank(rows), "rank_gf": rank(rows, P)}))


if __name__ == "__main__":
    main()
