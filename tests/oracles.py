"""Independent oracles used to cross-check the library.

Everything here is deliberately written with plain loops and without
importing any efkit evaluation code, so a bug in the library cannot hide
in its own tests.
"""

import itertools
import math


def all_assignments(n, lo, hi):
    return itertools.product(range(lo, hi + 1), repeat=n)


def concept_naive(kind, p, x):
    """kind is the constraint kind's string value."""
    n = len(x)
    if kind == "alldiff":
        return all(x[i] != x[j] for i in range(n) for j in range(i + 1, n))
    if kind == "linearsum":
        return sum(x) == p
    if kind == "minimum":
        return all(v >= p for v in x) if x else True
    if kind == "nooverlap":
        return all(
            x[i] + p <= x[j] or x[j] + p <= x[i]
            for i in range(n)
            for j in range(n)
            if i != j
        )
    if kind == "ordered":
        return all(x[i] <= x[j] for i in range(n) for j in range(i + 1, n))
    raise ValueError(kind)


def brute_force_hamming(kind, p, lo, hi, x):
    """Minimum disagreement with any satisfying assignment, by enumeration."""
    best = None
    for candidate in all_assignments(len(x), lo, hi):
        if not concept_naive(kind, p, candidate):
            continue
        dist = sum(1 for a, b in zip(x, candidate) if a != b)
        best = dist if best is None else min(best, dist)
    if best is None:
        raise ValueError("no solution exists")
    return best


def equal_pairs(x):
    """Index pairs i < j with x[i] == x[j]: AllDifferent's primal-graph
    violation count."""
    return sum(1 for i in range(len(x)) for j in range(i + 1, len(x)) if x[i] == x[j])


def duplicate_positions(x):
    """Positions i whose value comes again at some j > i."""
    return sum(1 for i in range(len(x)) if any(x[j] == x[i] for j in range(i + 1, len(x))))


def genome_bits(value):
    """The 31 bits of a genome int as a list, bit position 0 first (the
    most significant bit)."""
    return [int(b) for b in format(value, "031b")]


def straight_line_eval(bits, n, d, p, x, ceiling=None):
    """Naive re-implementation of the 31-operation network, loop by loop.

    Arithmetic is exact unless ceiling is given; then values saturate at
    +-ceiling after the first factor and every product of the multiply
    path, after the Sum aggregation, and at the output.
    """
    assert len(bits) == 31 and len(x) == n

    def sat(value):
        return value if ceiling is None else max(-ceiling, min(ceiling, value))

    vectors = []
    for t in range(18):
        if not bits[t]:
            continue
        v = []
        for i in range(n):
            if t == 0:
                v.append(x[i])
            elif t == 1:
                v.append(sum(1 for j in range(n) if j > i and x[j] == x[i]))
            elif t == 2:
                v.append(sum(1 for j in range(n) if j < i and x[j] == x[i]))
            elif t == 3:
                v.append(sum(1 for j in range(n) if j != i and x[j] == x[i]))
            elif t == 4:
                v.append(sum(1 for j in range(n) if j > i and x[j] < x[i]))
            elif t == 5:
                v.append(sum(1 for j in range(n) if j > i and x[j] > x[i]))
            elif t == 6:
                v.append(sum(1 for j in range(n) if j < i and x[j] < x[i]))
            elif t == 7:
                v.append(sum(1 for j in range(n) if j < i and x[j] > x[i]))
            elif t == 8:
                v.append(max(x[i], x[i + 1]) if i + 1 < n else x[i])
            elif t == 9:
                v.append(min(x[i], x[i + 1]) if i + 1 < n else x[i])
            elif t == 10:
                v.append(max(0, x[i] - x[i + 1]) if i + 1 < n else 0)
            elif t == 11:
                v.append(max(0, x[i - 1] - x[i]) if i > 0 else 0)
            elif t == 12:
                v.append(max(0, p - x[i]))
            elif t == 13:
                v.append(max(0, x[i] - p))
            elif t == 14:
                v.append(sum(1 for j in range(n) if j > i and abs(x[j] - x[i]) < p))
            elif t == 15:
                v.append(sum(1 for j in range(n) if j != i and abs(x[j] - x[i]) < p))
            elif t == 16:
                v.append(1 if x[i] == p else 0)
            elif t == 17:
                v.append(1 if x[i] < p else 0)
        vectors.append(v)

    assert bits[18] + bits[19] == 1
    combined = []
    for i in range(n):
        if bits[18] or len(vectors) == 1:
            combined.append(sum(v[i] for v in vectors))
        else:
            product = sat(vectors[0][i])
            for v in vectors[1:]:
                product = sat(product * v[i])
            combined.append(product)

    assert bits[20] + bits[21] == 1
    if bits[20]:
        y = sat(sum(combined))
    else:
        y = sum(1 for value in combined if value > 0)

    comp = [c for c in range(22, 31) if bits[c]]
    assert len(comp) == 1
    return sat(_compare(comp[0] - 22, y, n, d, p))


def _compare(c, y, n, d, p):
    if c == 0:
        return abs(y)
    if c == 1:
        return abs(y - p)
    if c == 2:
        return math.ceil(abs(y - p) / d)
    if c == 3:
        return abs(y - n)
    if c == 4:
        return abs(y - d)
    if c == 5:
        return max(0, y - p)
    if c == 6:
        return max(0, p - y)
    if c == 7:
        return 1 if y != 0 else 0
    return math.ceil(abs(y) / d)
