"""In-memory spans around calls into efkit's modules, and the per-layer
metrics derived from them.

The tracer patches public functions at the name their caller looks up
(`efkit.spaces.concept_holds_batch`, not only `efkit.concepts`), so no file
under `src/` changes. A wrapped call is recorded only while one of the
benchmark's own stage spans is open; calls made by the output checks run
outside any stage and go unrecorded. Hot callables (one call per loss
evaluation or per solver move) are aggregated into totals instead of
becoming one span each.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import statistics
import time
from contextlib import contextmanager

VARIANTS = ("handcrafted", "icn_hardcoded", "icn_feedforward")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.totals = collections.defaultdict(lambda: [0.0, 0, 0])  # name -> [s, calls, rows]
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, name, describe=None):
        """Record one span per call of owner.attr; describe(args, result)
        returns (span name, attrs) to refine the record."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if describe is not None:
                record["name"], record["attrs"] = describe(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_hot(self, owner, attr, name, rows=None):
        """Aggregate time, calls and (optionally) rows of owner.attr."""
        self._patch(owner, attr, self.counted(getattr(owner, attr), name, rows))

    def counted(self, fn, name, rows=None):
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            entry = totals[name]
            entry[0] += time.perf_counter() - start
            entry[1] += 1
            if rows is not None:
                entry[2] += rows(args)
            return result

        return wrapper

    def unwrap_all(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write every span and total as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, default=str) + "\n")
            for name, (seconds, calls, rows) in sorted(self.totals.items()):
                fh.write(json.dumps({"total": name, "s": seconds, "calls": calls, "rows": rows}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points at the names their callers use."""
    from efkit import concepts, ga, hamming, icn, solver, spaces, util

    def holds_rows(args, result):
        return "concepts.holds_batch", {"rows": len(args[1])}

    def labeling(args, result):
        space, sols = args[0], args[1]
        if sols.exhaustive:
            return "hamming.exhaustive", {}
        queries = int((~space.labels).sum())
        return "hamming.nearest", {"cells": queries * len(sols) * space.constraint.n}

    def file_bytes(path_arg):
        def describe(args, result):
            return "spaces.file_io", {"bytes": os.path.getsize(args[path_arg])}

        return describe

    def nme_rows(args, result):
        return "icn.nme", {"rows": len(args[1])}

    def learn_counts(args, result):
        cfg = args[1]
        return "ga.learn", {
            "generations": result.generations_run,
            "fitness_calls": cfg.population_size * (result.generations_run + 1),
        }

    def solve_counts(args, result):
        return "solver.solve", {"iterations": result.iterations, "restarts": result.restarts}

    # spaces imports concept_holds_batch by name; nothing else calls it.
    tracer.wrap(spaces, "concept_holds_batch", "concepts.holds_batch", holds_rows)
    tracer.wrap(concepts, "reference_costs_batch", "concepts.reference_costs")
    tracer.wrap(spaces, "enumerate_complete", "spaces.enumerate")
    tracer.wrap(spaces, "sample_balanced", "spaces.sample_balanced")
    tracer.wrap(spaces, "sample_balanced_direct", "spaces.sample_direct")
    tracer.wrap(spaces, "save_space", "spaces.file_io", file_bytes(1))
    tracer.wrap(spaces, "load_space", "spaces.file_io", file_bytes(0))
    tracer.wrap(hamming, "label_space_costs", "hamming.label", labeling)
    tracer.wrap_hot(icn.SpaceEvaluator, "loss", "icn.loss")
    tracer.wrap(icn, "normalized_mean_error", "icn.nme", nme_rows)
    tracer.wrap_hot(icn.ErrorFunction, "evaluate_batch", "icn.batch", rows=lambda a: len(a[1]))
    tracer.wrap(ga, "learn", "ga.learn", learn_counts)
    tracer.wrap(solver, "solve", "solver.solve", solve_counts)
    tracer.wrap(util, "sha256_file", "util.manifest")


def wrap_model(tracer: Tracer, model, variant: str) -> None:
    """Time a built Sudoku model's constraint error callables from outside."""
    name = f"solver.error.{variant}"
    for con in model.constraints:
        con.error = tracer.counted(con.error, name)
        if con.error_batch is not None:
            con.error_batch = tracer.counted(con.error_batch, name)


PER_LAYER_UNITS = {
    "concepts.holds_batch_s": "s",
    "concepts.holds_batch_rows": "count",
    "concepts.reference_costs_s": "s",
    "spaces.enumerate_s": "s",
    "spaces.sample_balanced_s": "s",
    "spaces.rows_drawn": "count",
    "spaces.sample_direct_s": "s",
    "spaces.file_io_s": "s",
    "spaces.file_bytes": "bytes",
    "hamming.exhaustive_s": "s",
    "hamming.nearest_s": "s",
    "hamming.nearest_cells": "count",
    "icn.loss_s": "s",
    "icn.loss_evals": "count",
    "icn.loss_us_per_eval": "us",
    "icn.nme_s": "s",
    "icn.nme_rows": "count",
    "icn.batch_s": "s",
    "icn.batch_calls": "count",
    "icn.batch_rows": "count",
    "ga.self_s": "s",
    "ga.generations": "count",
    "ga.fitness_calls": "count",
    "ga.cache_hit_ratio": "ratio",
    **{
        f"solver.{metric}.{v}": unit
        for v in VARIANTS
        for metric, unit in (
            ("iterations", "count"),
            ("restarts", "count"),
            ("us_per_iter", "us"),
            ("error_s", "s"),
            ("error_calls", "count"),
            ("self_us_per_iter", "us"),
        )
    },
    "util.manifest_s": "s",
    "stage.space_s": "s",
    "stage.learn_s": "s",
    "stage.eval_s": "s",
    **{f"stage.solve_ms.{v}": "ms" for v in VARIANTS},
    "trace.overhead_pct": "%",
    "wall.experiment_s": "s",
    "speed.probe_ms": "ms",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, run_figures: dict) -> dict:
    """Per-layer values per traced round, plus the run's own figures (tracing
    overhead, untraced wall time, speed probe). A layer the workload never
    calls reads 0. Rounds repeat the same work, so counts divide exactly."""
    seconds = collections.defaultdict(float)
    counts = collections.Counter()
    solve_ms = collections.defaultdict(list)
    by_id = {record["id"]: record for record in tracer.spans}
    for record in tracer.spans:
        name, attrs = record["name"], record["attrs"]
        duration = record["end"] - record["start"]
        parent = by_id.get(record["parent"])
        if name == "solver.solve":
            name = f"solver.solve.{parent['attrs']['variant']}"
        elif name == "stage.solve":
            solve_ms[attrs["variant"]].append(duration * 1000.0)
        elif name == "concepts.holds_batch" and parent["name"] == "spaces.sample_balanced":
            counts["spaces.rows_drawn"] += attrs["rows"]
        seconds[name] += duration
        for key, value in attrs.items():
            if isinstance(value, int):
                counts[f"{name}.{key}"] += value
    for name, (total_s, calls, rows) in tracer.totals.items():
        seconds[name] += total_s
        counts[f"{name}.calls"] += calls
        counts[f"{name}.rows"] += rows
    s = collections.defaultdict(float, {k: v / rounds for k, v in seconds.items()})
    c = collections.Counter({k: v // rounds for k, v in counts.items()})

    out = {
        "concepts.holds_batch_s": s["concepts.holds_batch"],
        "concepts.holds_batch_rows": c["concepts.holds_batch.rows"],
        "concepts.reference_costs_s": s["concepts.reference_costs"],
        "spaces.enumerate_s": s["spaces.enumerate"],
        "spaces.sample_balanced_s": s["spaces.sample_balanced"],
        "spaces.rows_drawn": c["spaces.rows_drawn"],
        "spaces.sample_direct_s": s["spaces.sample_direct"],
        "spaces.file_io_s": s["spaces.file_io"],
        "spaces.file_bytes": c["spaces.file_io.bytes"],
        "hamming.exhaustive_s": s["hamming.exhaustive"],
        "hamming.nearest_s": s["hamming.nearest"],
        "hamming.nearest_cells": c["hamming.nearest.cells"],
        "icn.loss_s": s["icn.loss"],
        "icn.loss_evals": c["icn.loss.calls"],
        "icn.loss_us_per_eval": _ratio(s["icn.loss"] * 1e6, c["icn.loss.calls"]),
        "icn.nme_s": s["icn.nme"],
        "icn.nme_rows": c["icn.nme.rows"],
        "icn.batch_s": s["icn.batch"],
        "icn.batch_calls": c["icn.batch.calls"],
        "icn.batch_rows": c["icn.batch.rows"],
        "ga.self_s": s["ga.learn"] - s["icn.loss"],
        "ga.generations": c["ga.learn.generations"],
        "ga.fitness_calls": c["ga.learn.fitness_calls"],
        "ga.cache_hit_ratio": (1.0 - _ratio(c["icn.loss.calls"], c["ga.learn.fitness_calls"])
                               if c["ga.learn.fitness_calls"] else 0.0),
        "util.manifest_s": s["util.manifest"],
        "stage.space_s": s["stage.space"],
        "stage.learn_s": s["stage.learn"],
        "stage.eval_s": s["stage.eval"],
    }
    for v in VARIANTS:
        iterations = c[f"solver.solve.{v}.iterations"]
        solve_s, error_s = s[f"solver.solve.{v}"], s[f"solver.error.{v}"]
        out[f"solver.iterations.{v}"] = iterations
        out[f"solver.restarts.{v}"] = c[f"solver.solve.{v}.restarts"]
        out[f"solver.us_per_iter.{v}"] = _ratio(solve_s * 1e6, iterations)
        out[f"solver.error_s.{v}"] = error_s
        out[f"solver.error_calls.{v}"] = c[f"solver.error.{v}.calls"]
        out[f"solver.self_us_per_iter.{v}"] = _ratio((solve_s - error_s) * 1e6, iterations)
        out[f"stage.solve_ms.{v}"] = statistics.median(solve_ms[v]) if solve_ms[v] else 0.0
    out.update(run_figures)
    if set(out) != set(PER_LAYER_UNITS):
        raise AssertionError(f"metric names drifted: {set(out) ^ set(PER_LAYER_UNITS)}")
    return out
