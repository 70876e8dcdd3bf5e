"""Tests of the benchmark's tracer and run structure.

Run from the repository root: `python -m pytest bench/tests -q`.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from pursuit_lab import rl, scripted  # noqa: E402

import measure  # noqa: E402
import tracer  # noqa: E402
import hostclock  # noqa: E402
from hostclock import HostClock  # noqa: E402
import workloads  # noqa: E402

SMALL_PPO = rl.PpoConfig(batch=64, minibatch=32, epochs=1)


def current_targets() -> dict:
    """Span name -> the object each target attribute holds right now."""
    return {name: vars(owner)[attr] for name, _, owner, attr in tracer.targets()}


def installed_wrappers() -> list[str]:
    """Span names of tracer wrappers reachable from the package's modules,
    their module-level dicts and their classes."""
    found = []
    for mod in tracer.package_modules():
        for value in list(vars(mod).values()):
            values = list(value.values()) if isinstance(value, dict) else [value]
            if isinstance(value, type) and value.__module__.startswith(tracer.PACKAGE):
                values = list(vars(value).values())
            found += [v.bench_span for v in values if hasattr(v, "bench_span")]
    return found


def small_workloads():
    return [
        workloads.EvalScripted(units=2, episodes=1),
        workloads.TrainNahtGreedy(units=2, updates=1, ppo=SMALL_PPO),
    ]


def run_untraced(workload, seed):
    with HostClock() as clock:
        return measure.run_untraced(workload, seed, seconds=0.01, clock=clock)


def test_host_clock_scales_by_the_reference_time_and_drops_it():
    clock = HostClock()
    clock.starts, clock.durations = [1.0, 2.0, 3.0], [0.1, 0.2, 0.3]
    # [1.5, 3.5] holds the samples at 2 and 3: 2 s of wall time, 0.5 s of it the loop's
    assert clock.scaled(1.5, 3.5) == pytest.approx(1.5 * hostclock.REF_S / 0.25)
    # no sample inside [2.1, 2.9]: the samples at 2 and 3 give the speed
    assert clock.scaled(2.1, 2.9) == pytest.approx(0.8 * hostclock.REF_S / 0.25)
    assert clock.scaled(3.1, 3.2) == pytest.approx(0.1 * hostclock.REF_S / 0.3)


def test_self_time_is_duration_minus_children_and_parents_link():
    ticks = iter(range(0, 10_000, 10))
    tr = tracer.Tracer(clock=lambda: next(ticks))
    leaf = tr.wrap("m.leaf", lambda: None)

    def mid_fn():
        leaf()

    mid = tr.wrap("m.mid", mid_fn)

    def outer_fn():
        mid()
        leaf()

    tr.wrap("m.outer", outer_fn)()
    # clock reads: outer 0, mid 10, leaf 20-30, mid end 40, leaf 50-60, outer end 70
    spans = tr.arrays()
    assert [tr.names[i] for i in spans["name"]] == ["m.outer", "m.mid", "m.leaf", "m.leaf"]
    assert spans["parent"].tolist() == [-1, 0, 1, 0]
    summary = tr.summary()
    assert summary["m.outer"] == {"calls": 1, "self_s": 30e-9, "inclusive_s": 70e-9}
    assert summary["m.mid"] == {"calls": 1, "self_s": 20e-9, "inclusive_s": 30e-9}
    assert summary["m.leaf"] == {"calls": 2, "self_s": 20e-9, "inclusive_s": 20e-9}


def test_install_reaches_aliases_and_registries_and_uninstall_restores():
    originals = current_targets()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert rl.substream.bench_span == "seeding.substream"  # `from .seeding import substream`
        assert scripted.PURSUER_POLICIES["greedy"].bench_span == "scripted.greedy_action"
        assert rl.RolloutCollector.collect.bench_span == "rl.RolloutCollector.collect"
        assert sorted(set(installed_wrappers())) == sorted(tracer.SPAN_NAMES)
    finally:
        tr.uninstall()
    assert installed_wrappers() == []
    assert current_targets() == originals


@pytest.mark.parametrize("workload", small_workloads(), ids=lambda w: w.name)
def test_traced_call_counts_repeat_for_the_same_seed(workload):
    a = measure.run_traced(workload, seed=3)
    b = measure.run_traced(workload, seed=3)
    counts_a = {k: v for k, v in a.metrics.items() if k.endswith(".calls")}
    counts_b = {k: v for k, v in b.metrics.items() if k.endswith(".calls")}
    assert counts_a == counts_b
    assert counts_a["sim.step.calls"] > 0
    assert a.failed == 0 and a.digest == b.digest
    assert [name for name, _, _ in measure.per_layer_specs()] == list(a.metrics)


@pytest.mark.parametrize("workload", small_workloads(), ids=lambda w: w.name)
def test_untraced_run_installs_no_wrappers(workload):
    originals = current_targets()
    seen = []
    real_call = workload.call

    def probe(state, unit):
        seen.append((installed_wrappers(), current_targets() == originals))
        return real_call(state, unit)

    workload.call = probe
    result = run_untraced(workload, seed=5)
    counting = 0 if workload.counts_in_output else workload.units
    assert all(set(wrappers) == {"sim.step"} for wrappers, _ in seen[:counting])  # the reference calls
    timed = seen[counting:]
    assert timed and all(wrappers == [] and same for wrappers, same in timed)
    assert result.failed == 0
    assert [name for name, _, _ in measure.END_TO_END] == list(result.metrics)
    assert all(value > 0 for value in result.metrics.values())


def test_reference_counts_match_the_traced_run():
    workload = workloads.TrainNahtGreedy(units=2, updates=1, ppo=SMALL_PPO)
    untraced = run_untraced(workload, seed=3)
    traced = measure.run_traced(workload, seed=3)
    assert sum(u["env_steps"] for u in untraced.detail["units"]) == traced.metrics["sim.step.calls"]
    assert untraced.digest == traced.digest


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == measure.per_layer_specs()
