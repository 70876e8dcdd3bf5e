"""Hypergraph population training: preference centrality and the max-min loop.

A population of pursuer strategies interacts through full teams (hyperedges
of N learner slots plus M partner slots). Each generation: snapshot the
trainee into the population, score every learner-connected hyperedge by mean
episode return, derive the preference hypergraph (each node keeps only its
best incident edge), convert preference centrality into a mixed strategy over
partner subsets that up-weights the least-preferred partners, and train the
learners as an approximate best response against partners sampled from it.
The "no-hypergraph" ablation replaces that mixed strategy with the uniform
distribution over partner subsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from . import evalkit, rl, sim
from .config import EnvConfig
from .seeding import substream, substream_seed_int

MIN_STEP_EPSILON = 0.01
EDGE_EPISODES_DEFAULT = 20
#: The node id of the trainee, which fills all N learner slots of every hyperedge.
LEARNER = "learner"


@dataclass(frozen=True)
class Hypergraph:
    """Weighted hypergraph: nodes are strategy ids, edges are member tuples.

    Edge tuples are canonical (sorted, multiplicity preserved); weights map
    each edge tuple to its mean outcome.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, ...], ...]
    weights: dict[tuple[str, ...], float]

    def incident(self, node: str) -> list[tuple[str, ...]]:
        return [e for e in self.edges if node in e]

    def degree(self, node: str) -> int:
        return len(self.incident(node))


@dataclass(frozen=True)
class PreferenceHypergraph:
    """Per node, the single maximum-weight incident hyperedge."""

    nodes: tuple[str, ...]
    outgoing: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class MixedStrategy:
    """Distribution over partner subsets (each a sorted tuple of node ids)."""

    support: tuple[tuple[str, ...], ...]
    probs: np.ndarray

    def sample(self, rng: np.random.Generator) -> tuple[str, ...]:
        return self.support[int(rng.choice(len(self.support), p=self.probs))]


def canonical_edge(members) -> tuple[str, ...]:
    return tuple(sorted(members))


def build_preference_hypergraph(g: Hypergraph) -> PreferenceHypergraph:
    """Keep each node's highest-weight incident edge; lexicographic tie-break."""
    outgoing: dict[str, tuple[str, ...]] = {}
    for node in g.nodes:
        incident = g.incident(node)
        if not incident:
            raise ValueError(f"node {node!r} is isolated (no incident hyperedge)")
        outgoing[node] = min(incident, key=lambda e: (-g.weights[e], e))
    return PreferenceHypergraph(nodes=g.nodes, outgoing=outgoing)


def incoming_degree(pg: PreferenceHypergraph, node: str) -> int:
    """How many *other* nodes' outgoing edges contain this node."""
    return sum(1 for other, edge in pg.outgoing.items() if other != node and node in edge)


def preference_centrality(pg: PreferenceHypergraph, g: Hypergraph, node: str) -> float:
    """Incoming preference degree over plain graph degree."""
    d_g = g.degree(node)
    if d_g == 0:
        raise ValueError(f"node {node!r} has zero degree in the hypergraph")
    return incoming_degree(pg, node) / d_g


def min_step_solve(subsets, centralities: dict[str, float]) -> MixedStrategy:
    """Mixed strategy over partner subsets: probability proportional to the
    reciprocal of the subset's mean member centrality plus
    `MIN_STEP_EPSILON` (worse partners first)."""
    support = tuple(canonical_edge(s) for s in subsets)
    if not support:
        raise ValueError("empty support")
    scores = np.array([np.mean([centralities[m] for m in s]) for s in support])
    raw = 1.0 / (scores + MIN_STEP_EPSILON)
    return MixedStrategy(support=support, probs=raw / raw.sum())


def uniform_strategy(subsets) -> MixedStrategy:
    support = tuple(canonical_edge(s) for s in subsets)
    if not support:
        raise ValueError("empty support")
    return MixedStrategy(support=support, probs=np.full(len(support), 1.0 / len(support)))


# ---------------------------------------------------------------------------
# Population state over executable policies
# ---------------------------------------------------------------------------

@dataclass
class PopulationState:
    """Generation t of the open-ended loop.

    `policies` maps node ids to slot-policy objects (scripted wrappers or
    frozen nets) of the non-learner pool. The trainee `learner_model`
    occupies all N learner slots under the node id `LEARNER`.
    """

    generation: int
    policies: dict[str, object]
    learner_model: rl.ActorCritic

    @property
    def non_learners(self) -> tuple[str, ...]:
        return tuple(sorted(self.policies))


def estimate_edge_weight(edges, env_cfg: EnvConfig, episodes: int, seed: int) -> list[float]:
    """Mean episode return of each full pursuer team over seeded episodes;
    `edges` lists the teams, each filling the pursuer slots in order.

    The episode seeds come from `substream(seed, "edge-weight")` alone, so
    every hyperedge of one call plays the same episode starts: the edges are
    compared on paired episodes. (`hola_train` gives each generation a seed
    of its own, so no generation replays another's starts.) All edges'
    episodes are played side by side (`evalkit.play_episodes`), which resets
    each of the `episodes` distinct seeds once and starts the other edges'
    episodes of that seed from copies, and each weight has the bits of its
    edge scored alone.
    """
    if any(len(edge) != env_cfg.players.num_p for edge in edges):
        raise ValueError("edge policies must fill every pursuer slot")
    rng = substream(seed, "edge-weight")
    seeds = [int(rng.integers(0, 2**63)) for _ in range(episodes)]
    records = evalkit.play_episodes(env_cfg, [(edge, ep_seed) for edge in edges for ep_seed in seeds])
    weights = []
    for k in range(len(edges)):
        total = 0.0
        for record in records[k * episodes : (k + 1) * episodes]:  # in episode order: the bits depend on it
            total += record.episode_return
        weights.append(total / episodes)
    return weights


def build_learner_subgraph(
    pop: PopulationState,
    env_cfg: EnvConfig,
    episodes: int = EDGE_EPISODES_DEFAULT,
    seed: int = 0,
) -> Hypergraph:
    """Hyperedges joining the learner set with every M-combination of
    non-learners, weighted by mean episode return."""
    m = env_cfg.players.num_unctrl
    n = env_cfg.players.num_ctrl
    non_learners = pop.non_learners
    if len(non_learners) < m:
        raise ValueError(f"need at least {m} non-learners, have {len(non_learners)}")
    nodes = tuple(sorted((LEARNER, *non_learners)))
    # the shared trainee repeats, keeping every hyperedge at N + M member slots
    learner_members = (LEARNER,) * n
    learner_policy = rl.NetSlotPolicy(pop.learner_model, deterministic=True)
    combos = list(combinations(non_learners, m))
    edges = tuple(canonical_edge(learner_members + combo) for combo in combos)
    teams = [[learner_policy] * n + [pop.policies[name] for name in combo] for combo in combos]
    weights = estimate_edge_weight(teams, env_cfg, episodes, seed)
    return Hypergraph(nodes=nodes, edges=edges, weights=dict(zip(edges, weights)))


def partner_strategy(
    g: Hypergraph,
    pop: PopulationState,
    env_cfg: EnvConfig,
    uniform: bool = False,
) -> tuple[MixedStrategy, dict[str, float]]:
    """Min-step output: mixed strategy over M-subsets of the non-learner pool."""
    pg = build_preference_hypergraph(g)
    centralities = {node: preference_centrality(pg, g, node) for node in g.nodes}
    subsets = list(combinations(pop.non_learners, env_cfg.players.num_unctrl))
    if uniform:
        return uniform_strategy(subsets), centralities
    return min_step_solve(subsets, centralities), centralities


class MixtureTeammates:
    """Teammate sampler that draws a partner subset from a mixed strategy."""

    def __init__(self, strategy: MixedStrategy, policies: dict[str, object]):
        self.strategy = strategy
        self.policies = policies

    def sample(self, rng: np.random.Generator):
        subset = self.strategy.sample(rng)
        return [self.policies[name] for name in subset]


def max_step_train(
    pop: PopulationState,
    strategy: MixedStrategy,
    ppo_cfg: rl.PpoConfig,
    env_cfg: EnvConfig,
    budget: int,
    seed: int,
) -> rl.TrainResult:
    """Approximate best response: PPO against partners drawn from `strategy`.

    Mutates the trainee in place; returns the training result (its metrics
    and timing rows). A zero budget is a no-op.
    """
    model = pop.learner_model
    if budget <= 0:
        return rl.TrainResult(model)
    teammates = MixtureTeammates(strategy, pop.policies)
    collector = rl.RolloutCollector(env_cfg, model, ppo_cfg, substream(seed, "rollout"), teammates=teammates)
    return rl.train_loop(collector, model, replace(ppo_cfg, total_steps=budget), seed)


@dataclass
class GenerationReport:
    generation: int
    population: tuple[str, ...]
    edge_weights: dict[tuple[str, ...], float]
    centralities: dict[str, float]
    strategy: MixedStrategy
    metrics: list[dict]
    timings: list[dict]  # max-step's `rl.TIMING_FIELDS` rows, kept out of `to_json`

    def to_json(self) -> str:
        doc = {
            "generation": self.generation,
            "population": list(self.population),
            "edge_weights": [
                {"edge": list(edge), "weight": w} for edge, w in sorted(self.edge_weights.items())
            ],
            "preference_centrality": dict(sorted(self.centralities.items())),
            "strategy": {
                "support": [list(s) for s in self.strategy.support],
                "probs": [float(p) for p in self.strategy.probs],
            },
            "n_training_updates": len(self.metrics),
        }
        return json.dumps(doc, indent=2)


def hola_generation(
    pop: PopulationState,
    env_cfg: EnvConfig,
    ppo_cfg: rl.PpoConfig,
    gen_budget: int,
    seed: int,
    episodes_per_edge: int = EDGE_EPISODES_DEFAULT,
    uniform_rho: bool = False,
) -> tuple[PopulationState, GenerationReport]:
    """One open-ended generation: snapshot, re-score, min-step, max-step.

    The edges are scored on the episode starts that `seed` gives (see
    `estimate_edge_weight`), which pairs them within the generation, and
    max-step's seed is `seed` keyed by the generation. `hola_train` passes
    each generation a seed of its own.
    """
    t = pop.generation
    snapshot_id = f"gen{t}_snapshot"
    snapshot = rl.NetSlotPolicy(pop.learner_model.copy(), deterministic=True)
    policies = dict(pop.policies)
    policies[snapshot_id] = snapshot

    grown = PopulationState(generation=t + 1, policies=policies, learner_model=pop.learner_model)
    g = build_learner_subgraph(grown, env_cfg, episodes=episodes_per_edge, seed=seed)
    strategy, centralities = partner_strategy(g, grown, env_cfg, uniform=uniform_rho)
    trained = max_step_train(grown, strategy, ppo_cfg, env_cfg, gen_budget, substream_seed_int(seed, "max-step", t))
    report = GenerationReport(
        generation=t + 1,
        population=tuple(sorted(policies)),
        edge_weights=g.weights,
        centralities=centralities,
        strategy=strategy,
        metrics=trained.metrics,
        timings=trained.timings,
    )
    return grown, report


def init_population(
    env_cfg: EnvConfig,
    ppo_cfg: rl.PpoConfig,
    seed: int,
    sp_budget: int,
) -> PopulationState:
    """Seed population: greedy, vicsek, and two short-trained self-play nets."""
    policies: dict[str, object] = {
        "greedy": rl.ScriptedSlotPolicy("greedy"),
        "vicsek": rl.ScriptedSlotPolicy("vicsek"),
    }
    for i in range(2):
        res = rl.ippo_selfplay_unscored(
            replace(ppo_cfg, total_steps=sp_budget), env_cfg, substream_seed_int(seed, "init-sp", i)
        )
        policies[f"sp_seed{i}"] = rl.NetSlotPolicy(res.model, deterministic=True)
    obs_dim = sim.obs_length(env_cfg)
    learner = rl.init_actor_critic(obs_dim, obs_dim, ppo_cfg, substream(seed, "learner-init"))
    return PopulationState(generation=0, policies=policies, learner_model=learner)


def hola_train(
    ppo_cfg: rl.PpoConfig,
    env_cfg: EnvConfig,
    seed: int,
    generations: int,
    gen_budget: int,
    sp_budget: int,
    episodes_per_edge: int = EDGE_EPISODES_DEFAULT,
    uniform_rho: bool = False,
    out_dir=None,
) -> tuple[rl.ActorCritic, list[GenerationReport]]:
    """Full HOLA loop; `uniform_rho=True` is the no-hypergraph ablation.

    Generation t runs `hola_generation` with its own seed,
    `substream_seed_int(seed, "generation", t)`, so that it scores its edges
    on episode starts of its own. With an `out_dir`, each generation g writes
    `generation_{g:03d}.json`, `metrics_gen{g:03d}.csv` and `timing_gen{g:03d}.csv`
    there through one `rl.RunDir`, and the trainee ends as `final.zip`."""
    if env_cfg.players.num_unctrl < 1:
        raise ValueError("hola_train needs uncontrolled teammate slots (num_unctrl >= 1)")
    pop = init_population(env_cfg, ppo_cfg, seed, sp_budget)
    run = rl.RunDir(out_dir)
    reports = []
    for _ in range(generations):
        pop, report = hola_generation(
            pop,
            env_cfg,
            ppo_cfg,
            gen_budget,
            substream_seed_int(seed, "generation", pop.generation),
            episodes_per_edge=episodes_per_edge,
            uniform_rho=uniform_rho,
        )
        reports.append(report)
        gen = report.generation
        run.text(f"generation_{gen:03d}.json", report.to_json() + "\n")
        run.csv(f"metrics_gen{gen:03d}.csv", rl.METRIC_FIELDS, report.metrics)
        run.csv(f"timing_gen{gen:03d}.csv", rl.TIMING_FIELDS, report.timings)
    if out_dir is not None:
        fields = {"algo": "hola-nog" if uniform_rho else "hola", "seed": seed, "generations": generations}
        max_step_cfg = replace(ppo_cfg, total_steps=gen_budget)  # each generation's max-step
        rl.finish_training(pop.learner_model, run, env_cfg, max_step_cfg, fields, seed)
    return pop.learner_model, reports
