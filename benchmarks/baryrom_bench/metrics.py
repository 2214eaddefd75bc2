"""Metric names, units and how each is computed.

End-to-end metrics are measured with tracing off and reported on every
workload. Per-layer metrics come from the traced run; a layer a workload
does not touch reads 0 there. Per-layer values are means per pass: traced
passes for span numbers, untraced passes for the stage wall times, so
that for every stage

    cli.<stage>.self_s + cli.<stage>.layer_s
        = <untraced stage wall> + trace.overhead_s.<stage>

holds exactly.
"""

from __future__ import annotations

import numpy as np

STAGES = ("generate", "offline", "pod", "tables", "online", "landscape")
GREEDY_SIZES = range(2, 8)

END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class PassSummary:
    """Per-name call counts, inclusive and self times of one traced pass."""

    def __init__(self, tracer):
        names, nid, _, dur, self_time = tracer.arrays()
        k = len(names)
        self.calls = dict(zip(names, np.bincount(nid, minlength=k).tolist()))
        self.total = dict(zip(names, np.bincount(nid, weights=dur, minlength=k).tolist()))
        self.own = dict(zip(names, np.bincount(nid, weights=self_time, minlength=k).tolist()))
        self.counts = dict(tracer.counts)

    def n(self, name: str) -> float:
        return float(self.calls.get(name, 0))

    def s(self, name: str) -> float:
        return float(self.total.get(name, 0.0))

    def us(self, name: str) -> float:
        calls = self.n(name)
        return self.s(name) / calls * 1e6 if calls else 0.0

    def c(self, key: str) -> float:
        return float(self.counts.get(key, 0.0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls_us(span: str):
    return [(f"{span}.calls", "count", lambda p: p.n(span)), (f"{span}.us", "us", lambda p: p.us(span))]


def _span_metrics():
    """(name, unit, fn(PassSummary)) for every traced per-layer number."""
    out = [
        ("flow.run_simulation.s", "s", lambda p: p.s("flow.run_simulation")),
        ("flow.steps", "count", lambda p: p.n("flow.solve_pressure")),
        ("flow.step_us", "us",
         lambda p: _ratio(p.s("flow.run_simulation") * 1e6, p.n("flow.solve_pressure"))),
        ("flow.solve_pressure.us", "us", lambda p: p.us("flow.solve_pressure")),
        ("flow.total_velocity.us", "us", lambda p: p.us("flow.total_velocity")),
        ("flow.cfl_timestep.us", "us", lambda p: p.us("flow.cfl_timestep")),
        ("config.parse_config.calls", "count", lambda p: p.n("config.parse_config")),
        ("store.write_chunk.s", "s", lambda p: p.s("store.write_chunk")),
        ("store.consolidate_store.s", "s", lambda p: p.s("store.consolidate_store")),
        ("store.chunk_bytes", "bytes", lambda p: p.c("store.chunk_bytes")),
        ("store.load_store.s", "s", lambda p: p.s("store.load_store")),
        ("store.save_model.s", "s", lambda p: p.s("store.save_model")),
        ("store.model_bytes", "bytes", lambda p: p.c("store.model_bytes")),
        ("store.load_model.s", "s", lambda p: p.s("store.load_model")),
        *_calls_us("transport.snapshot_to_icdf"),
        *_calls_us("transport.icdf_to_density"),
        ("simplexqp.solve_batch.calls", "count", lambda p: p.n("simplexqp.solve_batch")),
        ("simplexqp.solve_batch.s", "s", lambda p: p.s("simplexqp.solve_batch")),
        ("simplexqp.solves", "count", lambda p: p.c("simplexqp.solves")),
        ("simplexqp.iters_max", "count", lambda p: p.c("simplexqp.iters_max")),
        ("simplexqp.iters_mean", "count",
         lambda p: _ratio(p.c("simplexqp.iters_sum"), p.c("simplexqp.solves"))),
        ("simplexqp.unconverged", "count", lambda p: p.c("simplexqp.unconverged")),
        ("simplexqp.converged_ratio", "ratio",
         lambda p: _ratio(p.c("simplexqp.solves") - p.c("simplexqp.unconverged"),
                          p.c("simplexqp.solves"))),
        ("greedy.run.s", "s", lambda p: p.s("greedy.run")),
        ("greedy.sweeps", "count", lambda p: p.n("greedy.greedy_step")),
        *[(f"greedy.sweep_s.n{k}", "s", lambda p, k=k: p.c(f"greedy.sweep_s.n{k}"))
          for k in GREEDY_SIZES],
        ("greedy.cayley_menger_volume.s", "s", lambda p: p.s("greedy.cayley_menger_volume")),
        ("greedy.self_s", "s", lambda p: float(p.own.get("greedy.run", 0.0))),
        *_calls_us("online.profile_from_weights"),
        ("online.fit.s", "s", lambda p: p.s("online.fit")),
        *_calls_us("online.reconstruct"),
        ("online.evaluate_raw.us", "us", lambda p: p.us("online.evaluate_raw")),
        ("pod.compute.calls", "count", lambda p: p.n("pod.compute")),
        ("pod.compute.s", "s", lambda p: p.s("pod.compute")),
        ("pod.relative_l1_errors.s", "s", lambda p: p.s("pod.relative_l1_errors")),
        ("diagnostics.energy_landscape.s", "s", lambda p: p.s("diagnostics.energy_landscape")),
        ("diagnostics.pixels", "count", lambda p: p.c("diagnostics.pixels")),
    ]
    for stage in STAGES:
        span = f"cli.{stage}"
        out.append((f"{span}.self_s", "s", lambda p, span=span: float(p.own.get(span, 0.0))))
        out.append((f"{span}.layer_s", "s",
                    lambda p, span=span: p.s(span) - float(p.own.get(span, 0.0))))
    return out


SPAN_METRICS = _span_metrics()

# the stage wall times and output quality tracked per workload;
# each is defined on one workload only, so they are per-layer numbers
STAGE_TIMES = {
    "generate_s": "s",
    "offline_s": "s",
    "pod_s": "s",
    "tables_s": "s",
    "online_us_per_point": "us",
    "landscape_s": "s",
}
QUALITY = {
    "fail_frac": "ratio",
    "train_w2_max": "km",
    "train_l1_mean": "ratio",
    "query_l1_mean": "ratio",
}
# printed as info only: the sweep's worst distance from the reference flow
INFO = {"flow_gap": "ratio"}
OVERHEAD = {f"trace.overhead_s.{stage}": "s" for stage in STAGES}

PER_LAYER = {
    **{name: unit for name, unit, _ in SPAN_METRICS},
    **OVERHEAD,
    **STAGE_TIMES,
    **QUALITY,
}


def mean_dicts(dicts: list[dict], keys) -> dict:
    return {key: float(np.mean([d.get(key, 0.0) for d in dicts])) if dicts else 0.0 for key in keys}


def layer_values(summaries: list[PassSummary]) -> dict:
    """Mean per traced pass of every span metric."""
    return mean_dicts([{name: fn(p) for name, _, fn in SPAN_METRICS} for p in summaries],
                      [name for name, _, _ in SPAN_METRICS])


def stage_times(walls: dict[str, float], points: int) -> dict:
    """Stage wall times named as in STAGE_TIMES; the online stage is
    reported per evaluated point."""
    out = {f"{stage}_s": walls.get(stage, 0.0) for stage in STAGES if stage != "online"}
    out["online_us_per_point"] = _ratio(walls.get("online", 0.0) * 1e6, points)
    return out
