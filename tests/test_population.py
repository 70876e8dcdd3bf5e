from itertools import combinations

import numpy as np
import pytest

from pursuit_lab import population as pop
from pursuit_lab import evalkit, rl, sim
from pursuit_lab.seeding import substream
from conftest import reduced_4p2e3o


def toy_graph(nodes, m_edges, weights):
    edges = tuple(pop.canonical_edge(e) for e in m_edges)
    return pop.Hypergraph(nodes=tuple(nodes), edges=edges, weights={e: w for e, w in zip(edges, weights)})


def full_hypergraph(n_nodes, edge_size, rng):
    """All edge_size-subsets of n nodes with random integer weights."""
    nodes = tuple(str(i) for i in range(1, n_nodes + 1))
    edges = list(combinations(nodes, edge_size))
    weights = [float(w) for w in rng.integers(0, 100, len(edges))]
    return toy_graph(nodes, edges, weights)


# ---------------------------------------------------------------------------
# Appendix-style five-node example: node "2" prefers teammates (3, 4, 5).
# ---------------------------------------------------------------------------

APPENDIX_EDGES = [
    ("1", "2", "3", "4"),
    ("1", "2", "3", "5"),
    ("1", "2", "4", "5"),
    ("2", "3", "4", "5"),
    ("1", "3", "4", "5"),
]
APPENDIX_WEIGHTS = [30.0, 12.0, 7.0, 45.0, 25.0]


def test_five_node_example_outgoing_edge():
    g = toy_graph("12345", APPENDIX_EDGES, APPENDIX_WEIGHTS)
    pg = pop.build_preference_hypergraph(g)
    assert pg.outgoing["2"] == ("2", "3", "4", "5")
    assert g.weights[pg.outgoing["2"]] == 45.0


def test_preference_edge_is_max_weight_incident():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = full_hypergraph(int(rng.integers(4, 7)), 3, rng)
        pg = pop.build_preference_hypergraph(g)
        for node in g.nodes:
            best = max(g.weights[e] for e in g.incident(node))
            assert g.weights[pg.outgoing[node]] == best
            assert node in pg.outgoing[node]


def test_single_edge_graph_everyone_points_to_it():
    g = toy_graph("abc", [("a", "b", "c")], [3.0])
    pg = pop.build_preference_hypergraph(g)
    assert all(pg.outgoing[n] == ("a", "b", "c") for n in "abc")


def test_tie_breaks_lexicographic_and_deterministic():
    g = toy_graph("abcd", [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d")], [5.0, 5.0, 1.0])
    pg1 = pop.build_preference_hypergraph(g)
    pg2 = pop.build_preference_hypergraph(g)
    assert pg1.outgoing["a"] == ("a", "b", "c")  # lexicographically smaller of the ties
    assert pg1.outgoing == pg2.outgoing


def test_isolated_node_rejected():
    g = pop.Hypergraph(nodes=("a", "b", "c"), edges=(("a", "b"),), weights={("a", "b"): 1.0})
    with pytest.raises(ValueError):
        pop.build_preference_hypergraph(g)


def test_centrality_extremes():
    # star-preference: every other node's outgoing edge contains "hub"
    edges = [("hub", "a", "b"), ("hub", "a", "c"), ("hub", "b", "c"), ("a", "b", "c")]
    weights = [10.0, 9.0, 8.0, 1.0]
    g = toy_graph(("hub", "a", "b", "c"), edges, weights)
    pg = pop.build_preference_hypergraph(g)
    assert pop.incoming_degree(pg, "hub") == 3
    assert pop.preference_centrality(pg, g, "hub") == pytest.approx(3 / g.degree("hub"))
    # node never preferred by others
    edges2 = [("a", "b", "c"), ("a", "b", "d"), ("c", "d", "a")]
    g2 = toy_graph("abcd", edges2, [9.0, 8.0, 1.0])
    pg2 = pop.build_preference_hypergraph(g2)
    assert pop.preference_centrality(pg2, g2, "d") >= 0.0
    lonely = toy_graph("abcd", [("a", "b", "c"), ("a", "b", "d")], [9.0, 1.0])
    pg3 = pop.build_preference_hypergraph(lonely)
    assert pop.incoming_degree(pg3, "d") == 0
    assert pop.preference_centrality(pg3, lonely, "d") == 0.0


def brute_force_centralities(g):
    """Direct re-derivation with plain loops (independent oracle)."""
    out = {}
    outgoing = {}
    for node in g.nodes:
        best_w, best_e = None, None
        for e in g.edges:
            if node not in e:
                continue
            w = g.weights[e]
            if best_w is None or w > best_w or (w == best_w and e < best_e):
                best_w, best_e = w, e
        outgoing[node] = best_e
    for node in g.nodes:
        incoming = sum(1 for other in g.nodes if other != node and node in outgoing[other])
        degree = sum(1 for e in g.edges if node in e)
        out[node] = incoming / degree
    return out, outgoing


def test_centrality_matches_brute_force_all_toys():
    rng = np.random.default_rng(7)
    for n_nodes in range(4, 8):
        for edge_size in (2, 3, 4):
            if edge_size > n_nodes:
                continue
            for _ in range(10):
                g = full_hypergraph(n_nodes, edge_size, rng)
                expected, outgoing = brute_force_centralities(g)
                pg = pop.build_preference_hypergraph(g)
                assert pg.outgoing == outgoing
                for node in g.nodes:
                    assert pop.preference_centrality(pg, g, node) == expected[node]


def test_min_step_arithmetic_fixture():
    strategy = pop.min_step_solve([("a",), ("b",)], {"a": 0.0, "b": 1.0})
    expected_worse = (1 / 0.01) / (1 / 0.01 + 1 / 1.01)
    p = dict(zip(strategy.support, strategy.probs))
    assert p[("a",)] == pytest.approx(expected_worse, abs=1e-6)
    assert p[("a",)] == pytest.approx(0.9902, abs=1e-4)
    assert strategy.probs.sum() == pytest.approx(1.0)


def test_min_step_symmetry_and_monotonicity():
    strategy = pop.min_step_solve([("a",), ("b",)], {"a": 0.5, "b": 0.5})
    np.testing.assert_allclose(strategy.probs, [0.5, 0.5])

    rng = np.random.default_rng(1)
    for _ in range(30):
        names = [f"n{i}" for i in range(6)]
        cents = {n: float(rng.uniform(0, 2)) for n in names}
        subsets = list(combinations(names, 2))
        strategy = pop.min_step_solve(subsets, cents)
        assert strategy.probs.sum() == pytest.approx(1.0, abs=1e-9)
        scores = [np.mean([cents[m] for m in s]) for s in strategy.support]
        order = np.argsort(scores)
        probs_sorted = strategy.probs[order]
        assert np.all(np.diff(probs_sorted) <= 1e-12)  # lower score -> higher prob


def test_min_step_matches_exhaustive_on_toys():
    rng = np.random.default_rng(11)
    for n_nodes in (5, 6, 7):
        for m in (1, 2, 3):
            g = full_hypergraph(n_nodes, min(n_nodes - 1, m + 2), rng)
            cents, _ = brute_force_centralities(g)
            non_learners = g.nodes[1:]
            subsets = list(combinations(non_learners, m))
            strategy = pop.min_step_solve(subsets, cents)
            raw = np.array([1.0 / (np.mean([cents[x] for x in s]) + 0.01) for s in subsets])
            np.testing.assert_allclose(strategy.probs, raw / raw.sum(), atol=1e-12)


def test_uniform_strategy():
    s = pop.uniform_strategy([("a",), ("b",), ("c",)])
    np.testing.assert_allclose(s.probs, [1 / 3] * 3)


def test_mixed_strategy_sampling_statistics():
    strategy = pop.MixedStrategy(support=(("a",), ("b",), ("c",)), probs=np.array([0.6, 0.3, 0.1]))
    rng = substream(0, "sample")
    counts = {s: 0 for s in strategy.support}
    n = 10_000
    for _ in range(n):
        counts[strategy.sample(rng)] += 1
    for s, p in zip(strategy.support, strategy.probs):
        assert abs(counts[s] / n - p) < 0.02


def sum_centrality(pg, g, nodes):
    return sum(pop.preference_centrality(pg, g, n) for n in nodes)


def is_preference_optimal(g, candidate):
    """Exhaustive check that `candidate` maximizes summed preference centrality
    over all same-size node subsets."""
    pg = pop.build_preference_hypergraph(g)
    target = sum_centrality(pg, g, candidate)
    return all(target >= sum_centrality(pg, g, subset) - 1e-12 for subset in combinations(g.nodes, len(candidate)))


def test_preference_optimal_check():
    g = toy_graph("12345", APPENDIX_EDGES, APPENDIX_WEIGHTS)
    pg = pop.build_preference_hypergraph(g)
    cents = {n: pop.preference_centrality(pg, g, n) for n in g.nodes}
    best = max(combinations(g.nodes, 2), key=lambda s: sum(cents[x] for x in s))
    assert is_preference_optimal(g, best)
    worst = min(combinations(g.nodes, 2), key=lambda s: sum(cents[x] for x in s))
    if sum(cents[x] for x in worst) < sum(cents[x] for x in best):
        assert not is_preference_optimal(g, worst)


# ---------------------------------------------------------------------------
# Simulation-backed pieces (small budgets)
# ---------------------------------------------------------------------------

def small_population(env, seed=0):
    cfg = rl.PpoConfig(batch=128, minibatch=64, epochs=1)
    obs_dim = sim.obs_length(env)
    learner = rl.init_actor_critic(obs_dim, obs_dim, cfg, substream(seed, "learner"))
    policies = {
        "greedy": rl.ScriptedSlotPolicy("greedy"),
        "vicsek": rl.ScriptedSlotPolicy("vicsek"),
        "random": rl.RandomSlotPolicy(),
    }
    return pop.PopulationState(generation=0, policies=policies, learner_model=learner), cfg


def test_edge_weight_single_episode_is_deterministic():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    policies = [rl.ScriptedSlotPolicy("greedy")] * 4
    [w1] = pop.estimate_edge_weight([policies], env, episodes=1, seed=5)
    assert pop.estimate_edge_weight([policies], env, episodes=1, seed=5) == [w1]
    # oracle: play the same single episode directly
    episode_seed = int(substream(5, "edge-weight").integers(0, 2**63))
    assert evalkit.play_episode(env, policies, episode_seed).episode_return == w1


def test_greedy_team_beats_random_team():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    greedy_team = [rl.ScriptedSlotPolicy("greedy")] * 4
    random_team = [rl.RandomSlotPolicy() for _ in range(4)]
    w_greedy, w_random = pop.estimate_edge_weight([greedy_team, random_team], env, episodes=10, seed=3)
    assert w_greedy > w_random


def test_edges_scored_together_keep_the_bits_of_each_scored_alone():
    # all edges' episodes play side by side, each weight summing its own
    # edge's returns in episode order
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    state, _cfg = small_population(env)
    learner = rl.NetSlotPolicy(state.learner_model)
    partners = [[state.policies[a], state.policies[b]] for a, b in combinations(state.non_learners, 2)]
    teams = [[learner, learner] + pair for pair in partners] + [[rl.ScriptedSlotPolicy("greedy")] * 4]
    together = pop.estimate_edge_weight(teams, env, episodes=4, seed=7)
    rng = substream(7, "edge-weight")
    seeds = [int(rng.integers(0, 2**63)) for _ in range(4)]
    alone = []
    for team in teams:
        total = 0.0
        for seed in seeds:
            total += evalkit.play_episode(env, team, seed).episode_return
        alone.append(total / 4)
    assert [w.hex() for w in together] == [w.hex() for w in alone]
    assert pop.estimate_edge_weight([], env, episodes=4, seed=7) == []
    with pytest.raises(ValueError):
        pop.estimate_edge_weight(teams + [teams[0][:3]], env, episodes=4, seed=7)


def test_build_learner_subgraph_edge_counts():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    state, _cfg = small_population(env)
    g = pop.build_learner_subgraph(state, env, episodes=1, seed=0)
    assert len(g.edges) == 3  # C(3, 2) combinations of {greedy, vicsek, random}
    for edge in g.edges:
        assert len(edge) == 4  # num_ctrl learner slots + num_unctrl partners
        assert edge.count("learner") == 2

    # |non-learners| == M -> exactly one hyperedge
    state.policies = {"greedy": state.policies["greedy"], "vicsek": state.policies["vicsek"]}
    g = pop.build_learner_subgraph(state, env, episodes=1, seed=0)
    assert len(g.edges) == 1

    state.policies = {"greedy": state.policies["greedy"]}
    with pytest.raises(ValueError):
        pop.build_learner_subgraph(state, env, episodes=1, seed=0)


def test_max_step_zero_budget_is_noop():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    state, cfg = small_population(env)
    before = [p.copy() for p in state.learner_model.params()]
    strategy = pop.uniform_strategy([("greedy", "vicsek")])
    result = pop.max_step_train(state, strategy, cfg, env, budget=0, seed=0)
    assert result.metrics == [] and result.timings == []
    for a, b in zip(state.learner_model.params(), before):
        np.testing.assert_array_equal(a, b)


def test_max_step_point_mass_trains_against_fixed_partners():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    state, cfg = small_population(env)
    strategy = pop.MixedStrategy(support=(("greedy", "vicsek"),), probs=np.array([1.0]))
    result = pop.max_step_train(state, strategy, cfg, env, budget=cfg.batch, seed=0)
    assert len(result.metrics) == len(result.timings) == 1


def test_hola_generation_grows_population_and_is_deterministic():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))

    def run():
        state, cfg = small_population(env)
        new_state, report = pop.hola_generation(
            state, env, cfg, gen_budget=cfg.batch, seed=4, episodes_per_edge=1
        )
        return new_state, report

    s1, r1 = run()
    s2, r2 = run()
    assert len(s1.policies) == 4  # 3 seed policies + 1 snapshot
    assert s1.generation == 1
    assert r1.edge_weights == r2.edge_weights
    assert r1.centralities == r2.centralities
    np.testing.assert_array_equal(r1.strategy.probs, r2.strategy.probs)
    for a, b in zip(s1.learner_model.params(), s2.learner_model.params()):
        np.testing.assert_array_equal(a, b)
    assert "gen0_snapshot" in s1.policies
    json_text = r1.to_json()
    assert "preference_centrality" in json_text


def test_hola_ablation_uses_uniform_strategy():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    state, cfg = small_population(env)
    _, report = pop.hola_generation(
        state, env, cfg, gen_budget=0, seed=4, episodes_per_edge=1, uniform_rho=True
    )
    np.testing.assert_allclose(report.strategy.probs, 1.0 / len(report.strategy.probs))


def test_hola_generations_score_their_edges_on_different_episode_seeds(monkeypatch):
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=64, minibatch=32, epochs=1, hidden=(16,))
    episode_seeds = []
    real = evalkit.play_episodes

    def recording(env_cfg, episodes):
        episode_seeds.append({seed for _, seed in episodes})
        return real(env_cfg, episodes)

    monkeypatch.setattr(evalkit, "play_episodes", recording)  # edge estimation's one call per generation
    pop.hola_train(cfg, env, seed=3, generations=2, gen_budget=64, sp_budget=64, episodes_per_edge=2)
    assert [len(seeds) for seeds in episode_seeds] == [2, 2]
    assert not episode_seeds[0] & episode_seeds[1]
