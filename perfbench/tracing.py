"""Span tracing for the traced benchmark run, from outside the program.

Wraps public functions at module-attribute level (the names each caller
looks up), records one span (name, start, end, parent) per call in memory,
and turns the spans of one CLI call into per-module metrics. Nothing in the
package changes; ``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

# (owner, attribute, span name): every call through owner.attribute is a span.
# cli and planner bind simulate by name, so both bindings are wrapped.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_scenario", "scenario_io.load_scenario"),
    ("cli", "write_results", "scenario_io.write_results"),
    ("cli", "simulate", "dynamics.simulate"),
    ("planner", "simulate", "dynamics.simulate"),
    ("cli", "plan_shedding", "planner.plan_shedding"),
    ("planner", "apply_plan", "planner.apply_plan"),
    ("dynamics", "aggregate_trajectory", "metrics.aggregate_trajectory"),
    ("Scenario", "validate", "core_types.validate"),
    ("Scenario", "content_digest", "core_types.content_digest"),
    ("PiecewiseSchedule", "sample", "core_types.sample"),
)

# Per-module metrics of one CLI call: (name, unit).
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("scenario_io.load_s", "s"),
    ("scenario_io.write_s", "s"),
    ("scenario_io.bytes_written", "bytes"),
    ("core_types.validate_calls", "count"),
    ("core_types.validate_s", "s"),
    ("core_types.sample_s", "s"),
    ("core_types.digest_calls", "count"),
    ("core_types.digest_s", "s"),
    ("dynamics.simulate_calls", "count"),
    ("dynamics.self_s", "s"),
    ("dynamics.agent_steps", "count"),
    ("dynamics.kernel_flop_computed", "flop"),
    ("dynamics.kernel_bytes_computed", "bytes"),
    ("metrics.aggregate_calls", "count"),
    ("metrics.aggregate_s", "s"),
    ("planner.self_s", "s"),
    ("planner.apply_plan_calls", "count"),
    ("planner.apply_plan_s", "s"),
    ("trace.overhead_s", "s"),
)
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit != "s")

# Elementwise operations per agent per step besides the contagion product:
# i*d, i*(.), *inv_row, omega2*, target add, target-d, *rate, *dt, +d.
ELEMENTWISE_FLOP_PER_AGENT = 9
# float64 vectors of length N read or written per step besides the matrix:
# d, i, i*d, product, pull, inv_row, deprivation row, target, new d.
VECTOR_PASSES_PER_STEP = 9


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": tracer._stack[-1] if tracer._stack else None}
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                tracer._stack.pop()
            tracer._annotate(span, args, result)
            return result

        return traced

    @staticmethod
    def _annotate(span: dict, args, result) -> None:
        """Deterministic work counts, taken after the span's end stamp."""
        if span["name"] == "dynamics.simulate":
            scenario = args[0]
            weights = scenario.network.base_weights
            span["agents"] = int(scenario.n_agents)
            span["steps"] = int(scenario.params.n_steps)
            span["nonzeros"] = int((weights != 0.0).sum())
        elif span["name"] == "scenario_io.write_results":
            span["bytes"] = sum(os.path.getsize(p) for p in result)

    def install(self, package) -> None:
        owners = {
            "cli": package.cli,
            "planner": package.planner,
            "dynamics": package.dynamics,
            "Scenario": package.core_types.Scenario,
            "PiecewiseSchedule": package.core_types.PiecewiseSchedule,
        }
        for owner_name, attr, span_name in WRAPPED:
            owner = owners[owner_name]
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


def call_metrics(spans: list[dict], root: int) -> dict[str, float]:
    """Per-module metrics of the spans under ``root`` (one cli.main span)."""
    children: dict[int, list[int]] = {}
    inside = [root]
    for index in range(root + 1, len(spans)):
        parent = spans[index]["parent"]
        if parent is None:
            break
        children.setdefault(parent, []).append(index)
        inside.append(index)

    def seconds(i: int) -> float:
        return (spans[i]["end_ns"] - spans[i]["start_ns"]) / 1e9

    def self_seconds(i: int) -> float:
        return seconds(i) - sum(seconds(c) for c in children.get(i, ()))

    def of(name: str) -> list[int]:
        return [i for i in inside if spans[i]["name"] == name]

    sims = [spans[i] for i in of("dynamics.simulate")]
    agent_steps = sum(s["agents"] * s["steps"] for s in sims)
    return {
        "cli.self_s": sum(self_seconds(i) for i in of("cli.main")),
        "scenario_io.load_s": sum(seconds(i) for i in of("scenario_io.load_scenario")),
        "scenario_io.write_s": sum(seconds(i) for i in of("scenario_io.write_results")),
        "scenario_io.bytes_written": sum(spans[i]["bytes"] for i in of("scenario_io.write_results")),
        "core_types.validate_calls": len(of("core_types.validate")),
        "core_types.validate_s": sum(seconds(i) for i in of("core_types.validate")),
        "core_types.sample_s": sum(seconds(i) for i in of("core_types.sample")),
        "core_types.digest_calls": len(of("core_types.content_digest")),
        "core_types.digest_s": sum(seconds(i) for i in of("core_types.content_digest")),
        "dynamics.simulate_calls": len(sims),
        "dynamics.self_s": sum(self_seconds(i) for i in of("dynamics.simulate")),
        "dynamics.agent_steps": agent_steps,
        "dynamics.kernel_flop_computed": sum(
            s["steps"] * (2 * s["nonzeros"] + ELEMENTWISE_FLOP_PER_AGENT * s["agents"]) for s in sims
        ),
        "dynamics.kernel_bytes_computed": sum(
            s["steps"] * 8 * (s["agents"] ** 2 + VECTOR_PASSES_PER_STEP * s["agents"]) for s in sims
        ),
        "metrics.aggregate_calls": len(of("metrics.aggregate_trajectory")),
        "metrics.aggregate_s": sum(seconds(i) for i in of("metrics.aggregate_trajectory")),
        "planner.self_s": sum(self_seconds(i) for i in of("planner.plan_shedding")),
        "planner.apply_plan_calls": len(of("planner.apply_plan")),
        "planner.apply_plan_s": sum(seconds(i) for i in of("planner.apply_plan")),
    }
