"""A fixed exact-arithmetic task that measures the host's speed, not polystrat's.

It does the kind of work polystrat's hot paths do (Fraction
elimination and sparse polynomial products in pure Python) but calls
no polystrat code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REPEATS = 20


def _eliminate(n: int, shift: int):
    m = [[Fraction(1, i + j + 1 + shift) for j in range(n)] + [Fraction(i + 1)]
         for i in range(n)]
    for c in range(n):
        row = [x / m[c][c] for x in m[c]]
        m[c] = row
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], row)]
    return m


def _poly_power(k: int):
    p = {(0, 0): Fraction(1)}
    q = {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3), (0, 0): Fraction(1)}
    for _ in range(k):
        out: dict = {}
        for ka, va in p.items():
            for kb, vb in q.items():
                key = (ka[0] + kb[0], ka[1] + kb[1])
                out[key] = out.get(key, 0) + va * vb
        p = out
    return p


def reference_s() -> float:
    """Wall seconds for the fixed task (0.3 to 0.5 s on a shared 2-vCPU VM)."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        for shift in range(3):
            _eliminate(9, shift)
        _poly_power(14)
    return time.perf_counter() - t0
