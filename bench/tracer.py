"""Span tracer that measures the pursuit_lab layers from outside the package.

`Tracer.install` replaces every target in `TARGETS` by a recording wrapper,
by attribute patching: the module attribute (or class attribute, for
methods), every `from module import name` alias in the other package
modules, and every entry of a module-level registry dict (such as
`scripted.PURSUER_POLICIES`) that holds the target. Objects that copied a
target before `install` (for example a `ScriptedSlotPolicy` built earlier,
which caches its function) keep the original, so install before building
anything that will run under the tracer.

Each call of a wrapped target records one span: name, parent span, start and
end (`time.perf_counter_ns`). Spans are kept in memory in flat arrays and
written out by `dump`. A span's self time is its duration minus the
durations of its direct child spans; the process is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

from pursuit_lab.sim import RUNNING

PACKAGE = "pursuit_lab"

#: (module, attribute path) of every wrapped function, grouped by layer.
TARGETS = (
    ("sim", "reset"),
    ("sim", "step"),
    ("sim", "observe_all"),
    ("sim", "central_observation"),
    ("sim", "pursuer_view"),
    ("sim", "evader_view"),
    ("sim", "detect_captures"),
    ("sim", "detect_collisions"),
    ("sim", "nearest_static_all"),
    ("sim", "obstacle_clearance_matrix"),
    ("scripted", "greedy_action"),
    ("scripted", "vicsek_action"),
    ("scripted", "evader_action"),
    ("nn", "mlp_forward"),
    ("nn", "mlp_backward"),
    ("nn", "adam_step"),
    ("rl", "train_loop"),
    ("rl", "RolloutCollector.collect"),
    ("rl", "ppo_update"),
    ("rl", "compute_gae"),
    ("rl", "NetSlotPolicy.act"),
    ("rl", "evaluate_selfplay_suc"),
    ("teammate", "NahtCollector.collect"),
    ("teammate", "naht_update"),
    ("teammate", "encode"),
    ("teammate", "encode_backward"),
    ("population", "build_learner_subgraph"),
    ("population", "estimate_edge_weight"),
    ("population", "partner_strategy"),
    ("population", "max_step_train"),
    ("evalkit", "run_evaluation"),
    ("evalkit", "play_episode"),
    ("seeding", "substream"),
)

SPAN_NAMES = tuple(f"{module}.{path}" for module, path in TARGETS)
MODULES = tuple(dict.fromkeys(module for module, _ in TARGETS))


def _mlp_rows(args, kwargs) -> int:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return int(np.shape(x)[0]) if np.ndim(x) > 1 else 1


def _edge_cache_hit(args, kwargs) -> int:
    cache = kwargs.get("cache", args[4] if len(args) > 4 else None)
    key = kwargs.get("cache_key", args[5] if len(args) > 5 else None)
    return int(cache is not None and key is not None and key in cache)


def _episode_ended(out) -> int:
    return int(out.terminal != RUNNING)


#: Counters measured where the work happens: span name -> (counter, hook).
#: The hook sees the call's arguments before the call runs.
COUNTERS = {
    "nn.mlp_forward": ("nn.mlp_forward.rows", _mlp_rows),
    "population.estimate_edge_weight": ("population.estimate_edge_weight.cache_hits", _edge_cache_hit),
}

#: Counters of what a call returns: span name -> (counter, hook of the result).
RESULT_COUNTERS = {
    "sim.step": ("sim.step.episodes_ended", _episode_ended),
}


def targets():
    """(span name, home module, owner, attribute) of every target.

    The owner is the home module, or the class for a method.
    """
    for (module, path), name in zip(TARGETS, SPAN_NAMES):
        home = owner = importlib.import_module(f"{PACKAGE}.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        yield name, home, owner, attr


def package_modules() -> list:
    """Every loaded module of the package, after importing the target modules."""
    for module in MODULES:
        importlib.import_module(f"{PACKAGE}.{module}")
    prefix = PACKAGE + "."
    return [m for n, m in sorted(sys.modules.items()) if (n == PACKAGE or n.startswith(prefix)) and m is not None]


class Tracer:
    """Records spans for wrapped callables; see the module docstring."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None, result_hook=None):
        """Recording wrapper around `fn`; spans are filed under `name`.

        `hook` and `result_hook` are (counter, function) pairs: the first
        function gets the call's arguments before the call, the second the
        call's return value; each returns the amount to add to its counter.
        """
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        index = self._index[name]
        names, parents, starts, ends, stack = self._name, self._parent, self._start, self._end, self._stack
        clock = self._clock
        counters = self.counters
        before = after = None
        if hook is not None:
            before, measure_args = hook
            counters.setdefault(before, 0)
        if result_hook is not None:
            after, measure_result = result_hook
            counters.setdefault(after, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                counters[before] += measure_args(args, kwargs)
            sid = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                counters[after] += measure_result(out)
            return out

        wrapper.bench_span = name
        return wrapper

    def clear(self) -> None:
        """Drop recorded spans and zero the counters; wrappers stay installed."""
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        for key in self.counters:
            self.counters[key] = 0

    def __len__(self) -> int:
        return len(self._name)

    # -- patching ----------------------------------------------------------

    def install(self, only=None) -> None:
        """Patch every target in TARGETS, or those whose span name is in
        `only` (see the module docstring)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for name, home, owner, attr in targets():
            if only is not None and name not in only:
                continue
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, COUNTERS.get(name), RESULT_COUNTERS.get(name))
            self._patch(owner, attr, original, wrapper)
            if owner is not home:
                continue  # a method: callers reach it through the class
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        """Restore every patched reference, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as parallel arrays (name index, parent span, start/end ns)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros(len(dur), dtype=np.int64)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_ns = np.bincount(a["name"], weights=dur - child, minlength=k)
        incl_ns = np.bincount(a["name"], weights=dur, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": self_ns[i] / 1e9, "inclusive_s": incl_ns[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def dump(self, path) -> None:
        """Write the spans to an .npz file (see `arrays`, plus `names`)."""
        np.savez(path, names=np.array(self.names), **self.arrays())
