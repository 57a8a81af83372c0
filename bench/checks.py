"""Independent checks of every benchmark operation's output.

Expected values come from plain-loop code here and from the straight-line
network in `tests/oracles.py`, never from efkit's own evaluation code.
Files are read with this module's own parsers, so the checks also hold the
file formats to their documented shape. A failed check raises CheckError.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from oracles import straight_line_eval  # noqa: E402

SUBSET_ROWS = 16  # test-space rows re-scored by the straight-line network
NEAREST_ROWS = 200  # sampled-space rows whose nearest-solution cost is recomputed
# Count>0( count_eq_right ): transformation 1, add, Count>0, identity.
CANONICAL_ALLDIFF = "".join("1" if i in (1, 18, 21, 22) else "0" for i in range(31))


class CheckError(Exception):
    """An output disagrees with its independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def holds(kind: str, p: int, x) -> bool:
    if kind == "alldiff":
        return len(set(x)) == len(x)
    if kind == "linearsum":
        return sum(x) == p
    if kind == "minimum":
        return min(x) >= p
    raise CheckError(f"no predicate for kind {kind}")


def closed_form_cost(kind: str, n: int, lo: int, hi: int, p: int, x) -> int:
    """Exact Hamming cost where a closed form exists (alldiff needs d >= n)."""
    if kind == "alldiff":
        return n - len(set(x))
    if kind == "minimum":
        return sum(1 for v in x if v < p)
    if kind == "linearsum":
        gap = p - sum(x)
        rooms = sorted((hi - v if gap > 0 else v - lo for v in x), reverse=True)
        moved = covered = 0
        while covered < abs(gap):
            covered += rooms[moved]
            moved += 1
        return moved
    raise CheckError(f"no closed form for kind {kind}")


def read_space(path):
    """(header fields, rows, labels, costs) of a space file."""
    lines = Path(path).read_text().splitlines()
    require(bool(lines) and lines[0].startswith("# constraint "), f"{path}: no header")
    header = dict(tok.split("=", 1) for tok in lines[0][len("# constraint "):].split())
    rows, labels, costs = [], [], []
    for line in lines[1:]:
        values, label, cost = (part.strip() for part in line.split("|"))
        require(label in ("0", "1"), f"{path}: label {label!r}")
        rows.append(tuple(int(v) for v in values.split()))
        labels.append(label == "1")
        costs.append(None if cost == "-" else int(cost))
    return header, rows, labels, costs


def read_genome(path):
    """(bit string, ctx fields) of a genome file, layer rules checked."""
    lines = Path(path).read_text().splitlines()
    require(lines[0] == "icn-genome v1", f"{path}: bad magic")
    bits = lines[1]
    require(len(bits) == 31 and set(bits) <= {"0", "1"}, f"{path}: bad bit line")
    layers = (bits[0:18].count("1"), bits[18:20].count("1"), bits[20:22].count("1"),
              bits[22:31].count("1"))
    require(layers[0] >= 1 and layers[1:] == (1, 1, 1), f"{path}: invalid genome {bits}")
    require(lines[2].startswith("ctx "), f"{path}: no ctx line")
    ctx = dict(tok.split("=", 1) for tok in lines[2][4:].split())
    return bits, ctx


def parse_eval_output(text: str) -> dict[str, float]:
    """Genome path -> printed normalized mean error of `efkit eval`."""
    scores = {}
    for line in text.splitlines():
        parts = line.split("\t")
        if len(parts) == 3:
            scores[parts[0]] = float(parts[1])
    return scores


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def straight_line_deviation(bits: str, header: dict, rows, costs) -> int:
    n, lo, hi, p = (int(header[key]) for key in ("n", "lo", "hi", "p"))
    genome = [int(b) for b in bits]
    return sum(
        abs(straight_line_eval(genome, n, hi - lo + 1, p, list(x)) - cost)
        for x, cost in zip(rows, costs)
    )


class Verifier:
    """Checks with memoized expectations: every round of a run repeats the
    same inputs, so brute-force and straight-line results are computed once."""

    def __init__(self):
        self._memo: dict[tuple, object] = {}

    def _once(self, key: tuple, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- spaces ------------------------------------------------------------

    def space(self, path, spec) -> None:
        header, rows, labels, costs = read_space(path)
        kind, n, lo, hi, p = spec.kind, spec.n, spec.lo, spec.hi, spec.p
        complete = spec.mode == "complete"
        expected = {"kind": kind, "n": str(n), "lo": str(lo), "hi": str(hi), "p": str(p),
                    "complete": "1" if complete else "0"}
        require(header == expected, f"{path}: header {header} != {expected}")
        require(all(len(x) == n and all(lo <= v <= hi for v in x) for x in rows),
                f"{path}: a row has the wrong width or leaves [{lo}, {hi}]")
        require(all(c is not None for c in costs), f"{path}: unset costs")
        for x, label in zip(rows, labels):
            require(label == holds(kind, p, x), f"{path}: row {x} labelled {label}")
        require(all(c == 0 for c, label in zip(costs, labels) if label),
                f"{path}: a solution has non-zero cost")
        if complete:
            require(rows == list(itertools.product(range(lo, hi + 1), repeat=n)),
                    f"{path}: not the complete space in lexicographic order")
            exact = self._once(("brute force", kind, n, lo, hi, p),
                               lambda: brute_force_costs(kind, n, lo, hi, p))
            require(costs == exact, f"{path}: costs differ from brute force")
            return
        require(sum(labels) == spec.k and len(labels) == 2 * spec.k,
                f"{path}: not {spec.k} solutions and {spec.k} non-solutions")
        if spec.costs == "reference":
            for x, c in zip(rows, costs):
                require(c == closed_form_cost(kind, n, lo, hi, p, x),
                        f"{path}: row {x} cost {c} is not the closed form")
            return
        self._nearest(path, kind, n, rows, labels, costs)

    def _nearest(self, path, kind, n, rows, labels, costs) -> None:
        """Nearest-sampled-solution costs bound the exact cost from above
        and equal the minimum distance to the file's solution rows."""
        if kind == "alldiff":
            for x, c in zip(rows, costs):
                require(c >= n - len(set(x)), f"{path}: row {x} cost {c} below exact cost")
        solutions = np.array([x for x, label in zip(rows, labels) if label])
        non = [i for i, label in enumerate(labels) if not label]
        for i in random.Random(0).sample(non, min(NEAREST_ROWS, len(non))):
            nearest = int((solutions != np.array(rows[i])).sum(axis=1).min())
            require(costs[i] == nearest, f"{path}: row {rows[i]} cost {costs[i]} != {nearest}")

    # -- learning ----------------------------------------------------------

    def learn_run(self, stem: Path, space_path) -> None:
        """A run's best loss is its genome's straight-line deviation plus
        0.9 * bits / 31, and its loss trace never increases."""
        bits, ctx = read_genome(f"{stem}.genome.txt")
        metrics = json.loads(Path(f"{stem}.metrics.json").read_text())
        trace_lines = Path(f"{stem}.trace.csv").read_text().splitlines()
        require(trace_lines[0] == "generation,best_loss", f"{stem}: trace header")
        trace = [float(line.split(",")[1]) for line in trace_lines[1:]]
        require(len(trace) == metrics["generations_run"] + 1, f"{stem}: trace length")
        require(all(b <= a for a, b in zip(trace, trace[1:])), f"{stem}: loss trace rises")
        require(trace[-1] == metrics["best_loss"], f"{stem}: trace ends off the best loss")
        header, rows, _, costs = read_space(space_path)
        require(ctx["n"] == header["n"] and ctx["kind"] == header["kind"], f"{stem}: ctx {ctx}")
        deviation = self._once(("deviation", bits, _digest(space_path)),
                               lambda: straight_line_deviation(bits, header, rows, costs))
        expected = deviation + 0.9 * bits.count("1") / 31
        require(abs(metrics["best_loss"] - expected) <= 1e-9,
                f"{stem}: best_loss {metrics['best_loss']} != {expected}")

    def score(self, genome_path, printed, space_path) -> None:
        """The scoring path agrees with the straight-line network on a seeded
        subset of test rows; the canonical AllDifferent genome scores 0."""
        from efkit import concepts, icn, spaces

        require(printed is not None and math.isfinite(printed) and printed >= 0,
                f"{genome_path}: printed score {printed}")
        bits, _ = read_genome(genome_path)
        header, rows, labels, costs = read_space(space_path)
        n = int(header["n"])
        if bits == CANONICAL_ALLDIFF and header["kind"] == "alldiff":
            require(printed == 0.0, f"{genome_path}: canonical AllDifferent scored {printed}")
        pick = sorted(random.Random(0).sample(range(len(rows)), min(SUBSET_ROWS, len(rows))))
        expected = self._once(
            ("subset score", bits, _digest(space_path)),
            lambda: straight_line_deviation(bits, header, [rows[i] for i in pick],
                                            [costs[i] for i in pick]) / len(pick) / n,
        )
        c = concepts.ConstraintInstance(concepts.parse_kind(header["kind"]), n,
                                        int(header["lo"]), int(header["hi"]), int(header["p"]))
        subset = spaces.LabeledSpace(
            c, np.array([rows[i] for i in pick], dtype=np.int64),
            np.array([labels[i] for i in pick]), np.array([costs[i] for i in pick]), False)
        got = icn.normalized_mean_error(icn.load_genome(genome_path), subset)
        require(abs(got - expected) <= 1e-12,
                f"{genome_path}: subset score {got} != straight-line {expected}")

    # -- Sudoku ------------------------------------------------------------

    def solve(self, outcome) -> None:
        require(outcome.status == "solved", f"solve ended {outcome.status}")
        check_grid(outcome.assignment)

    def same_trajectory(self, feedforward, hardcoded) -> None:
        require(feedforward == hardcoded,
                f"feed-forward (iterations, restarts) {feedforward} != hard-coded {hardcoded}")


def brute_force_costs(kind, n, lo, hi, p) -> list[int]:
    """Exact Hamming cost of every assignment, in lexicographic order, as the
    minimum disagreement with any enumerated solution."""
    space = list(itertools.product(range(lo, hi + 1), repeat=n))
    solutions = [x for x in space if holds(kind, p, x)]
    return [min(sum(a != b for a, b in zip(x, s)) for s in solutions) for x in space]


def check_grid(assignment) -> None:
    """Rows, columns and 3x3 boxes of a 9x9 grid are permutations of 1..9."""
    require(assignment is not None and len(assignment) == 81, "no 81-cell grid")
    units = [[r * 9 + c for c in range(9)] for r in range(9)]
    units += [[r * 9 + c for r in range(9)] for c in range(9)]
    units += [[(br + dr) * 9 + bc + dc for dr in range(3) for dc in range(3)]
              for br in (0, 3, 6) for bc in (0, 3, 6)]
    for unit in units:
        require(sorted(assignment[i] for i in unit) == list(range(1, 10)),
                f"cells {unit} hold {[assignment[i] for i in unit]}")
