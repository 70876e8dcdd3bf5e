"""The four benchmark workloads.

Each workload has a `build(seed)` step (config load, the policy or population
build, and a warm-up) and a `call(state, unit)` step: one call into the
program. A workload has `units` distinct inputs per seed, and `call` runs
input `unit`. `call` checks what the program returned and reports how many
operations (PPO updates, episodes or generations) it attempted and how many
failed a check.

The program returns how many `sim.step` calls and episodes an evaluation
made (`counts_in_output`), but not how many a training run or a HOLA
generation made; the runner counts those in a reference call per unit.

A workload's time is measured over at least `repeats` timed calls of each
unit. The sizes (units, repeats, updates, episodes, budgets) are constants
of each workload; only `EvalScripted` and `TrainNahtGreedy` take some of
them as arguments, so that tests can run them small.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, replace
from itertools import combinations

from pursuit_lab import config, evalkit, population, rl, teammate

LOSS_FIELDS = ("pi_loss", "v_loss", "entropy", "clip_frac", "approx_kl", "recon_loss")
TERMINALS = ("success", "collision", "timeout")


@dataclass
class CallOutcome:
    ops: int  # operations attempted: PPO updates, episodes or generations
    failed: int  # operations that failed an output check
    learner_transitions: int
    digest: str  # sha256 of the deterministic output text
    env_steps: int | None = None  # sim.step calls, when the output carries them
    episodes: int | None = None  # finished episodes, likewise


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bad_rows(rows) -> int:
    """Metrics rows with a non-finite loss field."""
    return sum(not all(math.isfinite(float(row[k])) for k in LOSS_FIELDS) for row in rows)


class _Training:
    """Unit k is one training of `updates` PPO updates with seed `seed * units + k`.

    With a fixed transition budget, the number and length of episodes
    depend mostly on the randomly initialised policy, so several trainings
    with their own seeds average that over initialisations.
    """

    counts_in_output = False
    repeats: int
    units: int
    updates: int
    ppo = rl.PpoConfig()

    @property
    def ops(self) -> int:  # PPO updates per call
        return self.updates

    def train(self, state: dict, ppo: rl.PpoConfig, seed: int) -> rl.TrainResult:
        raise NotImplementedError

    def warm_up(self, state: dict, seed: int) -> None:
        """One 1-update training: the first PPO update in a process is slow."""
        self.train(state, replace(self.ppo, total_steps=self.ppo.batch), seed)

    def call(self, state: dict, unit: int) -> CallOutcome:
        ppo = replace(self.ppo, total_steps=self.updates * self.ppo.batch)
        result = self.train(state, ppo, state["seed"] * self.units + unit)
        rows = result.metrics
        failed = bad_rows(rows) + max(0, self.updates - len(rows))
        if result.selfplay_suc is not None and not 0.0 <= result.selfplay_suc <= 100.0:
            failed = self.updates
        text = json.dumps({"metrics": rows, "selfplay_suc": result.selfplay_suc}, sort_keys=True)
        return CallOutcome(self.ops, min(failed, self.ops), len(rows) * self.ppo.batch, digest(text))


class TrainSelfplay(_Training):
    """`rl.ippo_selfplay_train` on 4p2e3o, all 4 slots learning, default PpoConfig."""

    name = "train-selfplay"
    units = 4
    repeats = 1
    updates = 3

    def build(self, seed: int) -> dict:
        state = {"env_cfg": config.builtin_env("4p2e3o"), "seed": seed}
        self.warm_up(state, seed)
        return state

    def train(self, state, ppo, seed):
        return rl.ippo_selfplay_train(ppo, state["env_cfg"], seed, out_dir=None)


class TrainNahtGreedy(_Training):
    """`teammate.naht_d_train` on 4p2e3o: 2 learners, teammates drawn from [greedy]."""

    name = "train-naht-greedy"
    repeats = 1

    def __init__(self, units: int = 12, updates: int = 1, ppo: rl.PpoConfig | None = None):
        self.units = units
        self.updates = updates
        self.ppo = ppo or rl.PpoConfig()

    def build(self, seed: int) -> dict:
        env_cfg = config.builtin_env("4p2e3o")
        # the pool of the CLI's `train --teammates` default, "greedy"
        pool = [evalkit.resolve_policy("greedy", env_cfg, deterministic=False)]
        state = {"env_cfg": env_cfg, "pool": pool, "seed": seed}
        self.warm_up(state, seed)
        return state

    def train(self, state, ppo, seed):
        return teammate.naht_d_train(ppo, state["env_cfg"], state["pool"], seed, out_dir=None)


class EvalScripted:
    """`pursuit-lab eval --ckpt greedy --zoo 1 --env 4p3e5o`, single process.

    Unit k evaluates `episodes` episodes with evaluation seed
    `seed * 1000 + k`. No warm-up: evaluation has no lazy set-up.
    Episode lengths vary widely (about 280 +- 140 steps), so a run times
    many units once rather than a few units several times.
    """

    name = "eval-scripted-4p3e5o"
    counts_in_output = True
    repeats = 1

    def __init__(self, units: int = 36, episodes: int = 2):
        self.units = units
        self.episodes = episodes
        self.ops = episodes

    def build(self, seed: int) -> dict:
        env_cfg = config.builtin_env("4p3e5o")
        zoo = evalkit.build_zoo("zoo1", evalkit.ZooAssets())
        return {"env_cfg": env_cfg, "zoo": zoo, "seed": seed}

    def call(self, state: dict, unit: int) -> CallOutcome:
        env_cfg = state["env_cfg"]
        report, records = evalkit.run_evaluation(
            ["greedy"], state["zoo"], env_cfg, n_episodes=self.episodes, seed=state["seed"] * 1000 + unit, jobs=1
        )
        failed = sum(
            r.terminal not in TERMINALS or r.steps < 1 or not math.isfinite(r.episode_return) for r in records
        )
        shares = report.suc + report.col_pct + report.timeout_pct
        if report.n_episodes != self.episodes or len(records) != self.episodes or abs(shares - 100.0) > 1e-9:
            failed = self.episodes
        steps = sum(r.steps for r in records)
        return CallOutcome(
            ops=self.episodes,
            failed=failed,
            learner_transitions=steps * env_cfg.players.num_ctrl,
            digest=digest(report.to_json()),
            env_steps=steps,
            episodes=len(records),
        )


class HolaGeneration:
    """One `population.hola_generation` on 4p2e3o from a freshly built population.

    Unit k is the generation with seed `seed * units + k`. One generation
    takes seconds and each unit must run once more to count its work, so
    there are two units, timed once or twice each. The population is built
    from `POPULATION_SEED`, not from the workload seed, so that the
    population does not add to the spread of a generation's work, which
    the generation seed alone moves between about 6100 and 8700 env steps.
    """

    name = "hola-generation"
    counts_in_output = False
    units = 2
    repeats = 1
    ops = 1
    POPULATION_SEED = 0
    SP_BUDGET = 1024  # transitions per self-play policy of the initial population
    GEN_BUDGET = 1024  # max-step transitions, one PPO update
    ppo = rl.PpoConfig()

    def build(self, seed: int) -> dict:
        env_cfg = config.builtin_env("4p2e3o")
        pop = population.init_population(env_cfg, self.ppo, self.POPULATION_SEED, sp_budget=self.SP_BUDGET)
        return {"env_cfg": env_cfg, "population": pop, "seed": seed}

    def call(self, state: dict, unit: int) -> CallOutcome:
        env_cfg = state["env_cfg"]
        pop = copy.deepcopy(state["population"])  # every call starts from the same population
        seed = state["seed"] * self.units + unit
        grown, report = population.hola_generation(pop, env_cfg, self.ppo, self.GEN_BUDGET, seed)
        m = env_cfg.players.num_unctrl
        probs = [float(p) for p in report.strategy.probs]
        ok = (
            abs(sum(probs) - 1.0) <= 1e-9
            and all(p >= 0.0 for p in probs)
            and set(map(tuple, report.strategy.support)) <= set(combinations(grown.non_learners, m))
            and len(report.edge_weights) == math.comb(len(grown.non_learners), m)
            and all(math.isfinite(w) for w in report.edge_weights.values())
            and bad_rows(report.metrics) == 0
        )
        return CallOutcome(
            ops=1,
            failed=0 if ok else 1,
            learner_transitions=len(report.metrics) * self.ppo.batch,
            digest=digest(report.to_json()),
        )


WORKLOADS = {w.name: w for w in (TrainSelfplay, TrainNahtGreedy, EvalScripted, HolaGeneration)}
