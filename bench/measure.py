"""Untraced and traced benchmark runs of one workload, and their metrics.

Untraced run (end-to-end metrics), with a running `HostClock`:
  1. set-up (`Workload.build`) SETUP_REPS times; `setup_s` is the import time
     plus the median set-up time;
  2. when the program does not report them (see workloads.py), one
     reference call per unit, outside the timed phase, with a tracer on
     `sim.step` alone that counts its calls and the episodes that ended;
  3. the timed phase: calls to units 0, 1, ..., cycling, until `seconds`
     have passed and every unit ran `workload.repeats` times. A repeated
     unit must reproduce its first digest. No tracer wrapper is installed.

Every time is in the clock's scaled seconds (hostclock.py): other programs
on the machine change its speed by up to two times within seconds, and
scaling by a reference timed throughout the run takes that out. Each
unit's time is the mean of its timed calls, and the work of one pass over
the units over the sum of these times gives the rates. The record keeps
the wall times too.

Traced run (per-layer metrics): one untraced pass over the units, then the
tracer is installed, set-up runs again (so that policies built during set-up
pick up the wrappers), and a traced pass runs. Its spans give the per-layer
numbers, in wall time; the ratio of the two pass times gives
`trace.overhead_frac`.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import tracer as tracing
from hostclock import HostClock
from workloads import CallOutcome

SETUP_REPS = 3

#: (name, unit, better) of each end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("call_s", "s", "lower"),
    ("learner_tps", "1/s", "higher"),
    ("env_steps_per_s", "1/s", "higher"),
    ("episodes_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of each per-layer metric."""
    specs = []
    for name in tracing.SPAN_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    specs += [(f"{module}.self_share", "fraction", "lower") for module in tracing.MODULES]
    specs += [
        ("sim.observe_all.per_step", "calls/step", "lower"),
        ("sim.obstacle_clearance_matrix.per_step", "calls/step", "lower"),
        ("nn.mlp_forward.rows_per_call", "rows/call", "higher"),
        ("population.estimate_edge_weight.cache_hit_ratio", "fraction", "higher"),
        ("trace.overhead_frac", "fraction", "lower"),
    ]
    return specs


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failed: int
    digest: str
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _count(workload, state, unit: int) -> CallOutcome:
    """A reference call that counts `sim.step` calls and ended episodes."""
    tr = tracing.Tracer()
    tr.install(only=("sim.step",))
    try:
        ref = workload.call(state, unit)
    finally:
        tr.uninstall()
    ref.env_steps = tr.summary()["sim.step"]["calls"]
    ref.episodes = tr.counters["sim.step.episodes_ended"]
    return ref


def _safe_call(workload, state, unit: int) -> tuple[CallOutcome | None, float, float]:
    """One call and its start and end times; a call that raises reports None
    and fails its operations."""
    t0 = time.perf_counter()
    try:
        out = workload.call(state, unit)
    except Exception:  # noqa: BLE001 - the benchmark reports the failure and keeps measuring
        traceback.print_exc(file=sys.stderr)
        out = None
    return out, t0, time.perf_counter()


def _tally(calls, references: dict[int, CallOutcome], ops: int) -> tuple[int, int]:
    """(attempted, failed) over (unit, outcome) calls. A call that raised, or
    whose digest differs from its unit's reference, fails every operation."""
    attempted = failed = 0
    for unit, out in calls:
        attempted += ops if out is None else out.ops
        if out is None or out.digest != references[unit].digest:
            failed += ops if out is None else out.ops
        else:
            failed += out.failed
    return attempted, failed


def run_untraced(workload, seed: int, seconds: float, clock: HostClock, import_s: float = 0.0) -> RunResult:
    """`clock` must be running; `import_s` is the scaled import time."""
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = workload.build(seed)
        setup_times.append(clock.scaled(t0, time.perf_counter()))

    references = {}
    if not workload.counts_in_output:
        references = {unit: _count(workload, state, unit) for unit in range(workload.units)}

    calls = []  # every timed (unit, outcome)
    spans = {unit: [] for unit in range(workload.units)}  # (start, end) of completed calls
    start = time.perf_counter()
    while len(calls) < workload.repeats * workload.units or time.perf_counter() - start < seconds:
        unit = len(calls) % workload.units
        out, t0, t1 = _safe_call(workload, state, unit)
        calls.append((unit, out))
        if out is not None:
            references.setdefault(unit, out)
            spans[unit].append((t0, t1))
    if not all(spans.values()):
        raise RuntimeError("a unit has no completed timed call")
    refs = [] if workload.counts_in_output else list(references.items())
    attempted, failed = _tally(refs + calls, references, workload.ops)

    units = [references[u] for u in range(workload.units)]
    scaled = {u: [clock.scaled(t0, t1) for t0, t1 in spans[u]] for u in spans}
    walls = {u: [t1 - t0 for t0, t1 in spans[u]] for u in spans}
    unit_s = [statistics.fmean(scaled[u]) for u in range(workload.units)]
    work_s = sum(unit_s)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "call_s": work_s / workload.units,
        "learner_tps": sum(c.learner_transitions for c in units) / work_s,
        "env_steps_per_s": sum(c.env_steps for c in units) / work_s,
        "episodes_per_s": sum(c.episodes for c in units) / work_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "host_speed": clock.host_speed(),
        "units": [
            {"scaled_s": scaled[u], "wall_s": walls[u], "env_steps": c.env_steps, "episodes": c.episodes}
            for u, c in enumerate(units)
        ],
        "timed_calls": len(calls),
    }
    return RunResult(metrics, attempted, failed, _digest(references), detail)


def _digest(references: dict[int, CallOutcome]) -> str:
    """One digest over the deterministic outputs of every unit."""
    return hashlib.sha256("".join(references[u].digest for u in sorted(references)).encode()).hexdigest()


def run_traced(workload, seed: int, spans_path=None) -> RunResult:
    """One untraced pass over the units, then one traced pass."""
    state = workload.build(seed)
    t0 = time.perf_counter()
    references = {unit: _safe_call(workload, state, unit)[0] for unit in range(workload.units)}
    base_wall = time.perf_counter() - t0
    if any(ref is None for ref in references.values()):
        raise RuntimeError("untraced reference call failed")

    tr = tracing.Tracer()
    tr.install()
    try:
        state = workload.build(seed)
        tr.clear()
        t0 = time.perf_counter()
        traced = [(unit, _safe_call(workload, state, unit)[0]) for unit in range(workload.units)]
        traced_wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    attempted, failed = _tally(list(references.items()) + traced, references, workload.ops)

    summary = tr.summary()
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = summary[name]["calls"]
        metrics[f"{name}.self_s"] = summary[name]["self_s"]
    for module in tracing.MODULES:
        own = sum(summary[n]["self_s"] for n in tracing.SPAN_NAMES if n.startswith(module + "."))
        metrics[f"{module}.self_share"] = own / traced_wall

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = summary["sim.step"]["calls"]
    metrics["sim.observe_all.per_step"] = ratio(summary["sim.observe_all"]["calls"], steps)
    metrics["sim.obstacle_clearance_matrix.per_step"] = ratio(summary["sim.obstacle_clearance_matrix"]["calls"], steps)
    metrics["nn.mlp_forward.rows_per_call"] = ratio(
        tr.counters["nn.mlp_forward.rows"], summary["nn.mlp_forward"]["calls"]
    )
    metrics["population.estimate_edge_weight.cache_hit_ratio"] = ratio(
        tr.counters["population.estimate_edge_weight.cache_hits"], summary["population.estimate_edge_weight"]["calls"]
    )
    metrics["trace.overhead_frac"] = traced_wall / base_wall - 1.0

    if spans_path is not None:
        tr.dump(spans_path)
    detail = {
        "untraced_pass_s": base_wall,
        "traced_pass_s": traced_wall,
        "spans": len(tr),
        "per_call_us": {
            name: {
                "self": 1e6 * s["self_s"] / s["calls"],
                "inclusive": 1e6 * s["inclusive_s"] / s["calls"],
            }
            for name, s in summary.items()
            if s["calls"]
        },
    }
    return RunResult(metrics, attempted, failed, _digest(references), detail)
