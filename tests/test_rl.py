import json
import math
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuit_lab import config, evalkit, nn, rl, sim, teammate
from pursuit_lab.seeding import substream, substream_seed_int
from conftest import FixedTeammates, act_alone, open_arena, reduced_4p2e3o


def brute_force_gae(rewards, values, terminals, gamma, lam, bootstrap=0.0):
    """O(T^2) direct evaluation of the GAE sum with episode cutoffs."""
    T = len(rewards)
    adv = np.zeros(T)
    for t in range(T):
        total = 0.0
        for l in range(T - t):
            k = t + l
            v_next = bootstrap if k == T - 1 else values[k + 1]
            nonterminal = 1.0 - terminals[k]
            delta = rewards[k] + gamma * v_next * nonterminal - values[k]
            total += (gamma * lam) ** l * delta
            if terminals[k]:
                break
        adv[t] = total
    return adv, adv + np.asarray(values)


def test_gae_single_terminal_step():
    adv, ret = rl.compute_gae([1.0], [0.0], [1.0], 0.99, 0.95)
    assert adv[0] == 1.0
    assert ret[0] == 1.0


def test_gae_lambda_one_is_monte_carlo():
    rng = np.random.default_rng(0)
    T = 30
    rewards = rng.normal(size=T)
    values = rng.normal(size=T)
    terminals = np.zeros(T)
    terminals[-1] = 1.0
    adv, ret = rl.compute_gae(rewards, values, terminals, 0.99, 1.0)
    mc = np.array([sum(0.99**l * rewards[t + l] for l in range(T - t)) for t in range(T)])
    np.testing.assert_allclose(adv, mc - values, atol=1e-10)
    np.testing.assert_allclose(ret, mc, atol=1e-10)


def test_gae_matches_brute_force_on_random_sequences():
    rng = np.random.default_rng(1)
    for _ in range(100):
        T = int(rng.integers(2, 60))
        rewards = rng.normal(size=T)
        values = rng.normal(size=T)
        terminals = (rng.random(T) < 0.1).astype(float)
        bootstrap = float(rng.normal()) if terminals[-1] == 0 else 0.0
        gamma = float(rng.uniform(0.9, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        adv, ret = rl.compute_gae(rewards, values, terminals, gamma, lam, bootstrap)
        b_adv, b_ret = brute_force_gae(rewards, values, terminals, gamma, lam, bootstrap)
        np.testing.assert_allclose(adv, b_adv, atol=1e-6)
        np.testing.assert_allclose(ret, b_ret, atol=1e-6)


def test_gae_length_mismatch():
    with pytest.raises(ValueError):
        rl.compute_gae([1.0, 2.0], [0.0], [0.0, 1.0], 0.99, 0.95)


def make_model(obs_dim=5, critic_dim=5, dtype=np.float64, seed=0, cfg=None):
    cfg = cfg or rl.PpoConfig()
    return rl.init_actor_critic(obs_dim, critic_dim, cfg, substream(seed, "init"), dtype=dtype)


def test_ppo_ratio_is_one_on_fresh_batch():
    cfg = rl.PpoConfig(batch=64, minibatch=32, epochs=1)
    model = make_model(cfg=cfg)
    rng = substream(0, "roll")
    obs = rng.normal(size=(64, 5))
    actions, logp = model.act(obs, rng)
    adv = rng.normal(size=64)
    _, _, diag = rl.ppo_loss_and_grads(model, obs, obs, actions, logp, adv, rng.normal(size=64), cfg, input_grad=False)
    np.testing.assert_allclose(diag["ratio"], 1.0, atol=1e-12)
    assert diag["clip_frac"] == 0.0
    assert abs(diag["approx_kl"]) < 1e-12


def test_ppo_zero_advantages_skip_policy_term():
    cfg = rl.PpoConfig()
    model = make_model(cfg=cfg)
    rng = substream(1, "roll")
    obs = rng.normal(size=(32, 5))
    actions, logp = model.act(obs, rng)
    grads, _, diag = rl.ppo_loss_and_grads(
        model, obs, obs, actions, logp, np.zeros(32), rng.normal(size=32), cfg, input_grad=False
    )
    assert diag["pi_loss"] == 0.0
    # actor weight gradients vanish; log_std only carries the entropy term
    n_actor = len(model.actor.arrays())
    for g in grads[:n_actor]:
        np.testing.assert_allclose(g, 0.0, atol=1e-15)
    np.testing.assert_allclose(grads[n_actor], -cfg.entropy_coef, atol=1e-15)


def test_ppo_grads_keep_their_bits_without_the_input_gradient():
    cfg = rl.PpoConfig()
    model = make_model(cfg=cfg)
    rng = substream(2, "roll")
    obs = rng.normal(size=(32, 5))
    actions, logp = model.act(obs, rng)
    args = (model, obs, obs, actions, logp, rng.normal(size=32), rng.normal(size=32), cfg)
    grads, dx, diag = rl.ppo_loss_and_grads(*args, input_grad=True)
    grads_only, no_dx, diag_only = rl.ppo_loss_and_grads(*args, input_grad=False)
    assert dx.shape == obs.shape and no_dx is None
    assert [g.tobytes() for g in grads_only] == [g.tobytes() for g in grads]
    assert diag_only["loss"].hex() == diag["loss"].hex()


def test_ppo_loss_matches_hand_computation():
    # 4-sample batch, 1-dim action, tiny linear nets built by hand.
    assert (rl.CLIP_RATIO, rl.VALUE_COEF) == (0.2, 1.0)
    cfg = rl.PpoConfig(entropy_coef=0.01)
    actor = nn.Mlp(weights=[np.array([[0.5]])], biases=[np.array([0.1])])
    critic = nn.Mlp(weights=[np.array([[-0.3]])], biases=[np.array([0.2])])
    model = rl.ActorCritic(actor, np.array([0.0]), critic, 1, 1, 1)
    obs = np.array([[1.0], [2.0], [-1.0], [0.5]])
    actions = np.array([[0.7], [1.0], [-0.2], [0.4]])
    old_logp = np.array([-1.0, -1.5, -0.9, -1.1])
    adv = np.array([1.0, -1.0, 0.5, 2.0])
    ret = np.array([0.5, 0.2, -0.1, 0.9])

    mean = obs * 0.5 + 0.1
    logp = -0.5 * ((actions - mean) ** 2).sum(axis=1) - 0.0 - 0.5 * math.log(2 * math.pi)
    ratio = np.exp(logp - old_logp)
    surr = np.minimum(ratio * adv, np.clip(ratio, 0.8, 1.2) * adv)
    pi_loss = -np.mean(surr)
    v = obs[:, 0] * -0.3 + 0.2
    v_loss = np.mean((v - ret) ** 2)
    entropy = 0.5 * (1 + math.log(2 * math.pi))
    expected = pi_loss + v_loss - 0.01 * entropy

    _, _, diag = rl.ppo_loss_and_grads(model, obs, obs, actions, old_logp, adv, ret, cfg, input_grad=False)
    assert diag["loss"] == pytest.approx(expected, abs=1e-6)
    assert diag["pi_loss"] == pytest.approx(pi_loss, abs=1e-9)
    assert diag["v_loss"] == pytest.approx(v_loss, abs=1e-9)


def test_ppo_update_normalizes_advantages():
    rng = np.random.default_rng(3)
    adv = rng.normal(2.0, 3.0, size=1000)
    norm = rl.normalize_advantages(adv)
    assert abs(norm.mean()) < 1e-6
    assert abs(norm.std() - 1.0) < 1e-6


def test_ppo_update_requires_full_batch():
    cfg = rl.PpoConfig(batch=64, minibatch=32)
    model = make_model(cfg=cfg, dtype=np.float32)
    opt = nn.adam_init(model.params(), lr=cfg.lr)
    rng = substream(2, "roll")
    obs = rng.normal(size=(32, 5))
    actions, logp = model.act(obs, rng)
    batch = rl.PpoBatch(obs, obs, actions, logp, np.zeros(32), np.zeros(32))
    with pytest.raises(ValueError):
        rl.ppo_update(model, opt, batch, cfg, rng)


@pytest.mark.parametrize("batch, minibatch", [(1024, 0), (1024, -256), (0, 256), (-1024, 256)])
def test_validate_rejects_a_batch_or_minibatch_below_one(batch, minibatch):
    # a zero minibatch once raised ZeroDivisionError, and -256 divides 1024
    with pytest.raises(ValueError, match="at least 1"):
        rl.PpoConfig(batch=batch, minibatch=minibatch).validate()
    rl.PpoConfig(batch=64, minibatch=64).validate()


BAD_FIELDS = [
    ("epochs", 0),
    ("epochs", -1),
    ("lr", math.nan),
    ("lr", math.inf),
    ("lr", -1.0),
    ("lr", 0.0),
    ("entropy_coef", math.inf),
    ("entropy_coef", -math.inf),
    ("entropy_coef", math.nan),
    ("hidden", (0,)),
    ("hidden", (128, 0)),
]


@pytest.mark.parametrize("name, value", BAD_FIELDS)
def test_trainers_reject_fields_that_break_the_update_before_building_a_model(name, value, monkeypatch):
    # these once failed after a whole rollout (epochs < 1: IndexError; a
    # non-finite lr or entropy_coef: "non-finite loss"), trained silently
    # (lr = -1) or failed inside mlp_init (hidden width 0: ZeroDivisionError)
    cfg = rl.PpoConfig(batch=64, minibatch=32, **{name: value})
    with pytest.raises(ValueError, match=f"^{name} "):
        cfg.validate()

    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(nn, "mlp_init", no_model)
    with pytest.raises(ValueError, match=f"^{name} "):
        rl.ippo_selfplay_unscored(cfg, config.builtin_env("4p2e3o"), 0)
    with pytest.raises(ValueError, match=f"^{name} "):
        rl.pbt_train(2, cfg, config.builtin_env("4p2e3o"), 0)
    teammates = [rl.ScriptedSlotPolicy("greedy")]
    with pytest.raises(ValueError, match=f"^{name} "):
        teammate.naht_d_train(cfg, reduced_4p2e3o(num_ctrl=2, num_unctrl=2), teammates, 0)


# ---------------------------------------------------------------------------
# Rollout collection
# ---------------------------------------------------------------------------

def test_collect_rollouts_learner_transition_count():
    env = reduced_4p2e3o(num_ctrl=4, num_unctrl=0)
    cfg = rl.PpoConfig(batch=1024, minibatch=256)
    model = make_model(obs_dim=sim.obs_length(env), critic_dim=sim.obs_length(env), dtype=np.float32, cfg=cfg)
    batch, stats = rl.RolloutCollector(env, model, cfg, substream(0, "roll")).collect(1024)
    assert len(batch) == 1024  # 256 env steps x 4 learner slots
    assert batch.actor_in.shape == (1024, sim.obs_length(env))
    assert np.all(np.isfinite(batch.advantages))


def test_collect_rollouts_deterministic():
    env = reduced_4p2e3o(num_ctrl=4, num_unctrl=0)
    cfg = rl.PpoConfig(batch=512, minibatch=256)

    def collect_once():
        model = make_model(obs_dim=sim.obs_length(env), critic_dim=sim.obs_length(env), dtype=np.float32, cfg=cfg)
        return rl.RolloutCollector(env, model, cfg, substream(7, "roll")).collect(512)[0]

    a = collect_once()
    b = collect_once()
    np.testing.assert_array_equal(a.actor_in, b.actor_in)
    np.testing.assert_array_equal(a.actions, b.actions)
    np.testing.assert_array_equal(a.advantages, b.advantages)


def test_collect_rollouts_learner_streams_only():
    # 2 learner slots + 2 scripted greedy: the batch holds exactly the two
    # learner streams of each of the collector's envs, whose observations
    # match an independent replay.
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    n_envs = rl.ROLLOUT_ENVS
    batch_size = 64 * n_envs  # 32 env steps of each env
    cfg = rl.PpoConfig(batch=batch_size, minibatch=32)
    model = make_model(obs_dim=sim.obs_length(env), critic_dim=sim.obs_length(env), dtype=np.float32, cfg=cfg)
    teammates = FixedTeammates([rl.ScriptedSlotPolicy("greedy"), rl.ScriptedSlotPolicy("greedy")])
    collector = rl.RolloutCollector(env, model, cfg, substream(9, "roll"), teammates=teammates)
    batch, _ = collector.collect(batch_size)
    assert collector.n_envs == n_envs
    assert len(batch) == batch_size  # 32 env steps x 2 learner slots x n_envs envs

    # independent replay with an identical collector run: n_envs envs in
    # lockstep, up to the step in which the first episode ends
    model2 = make_model(obs_dim=sim.obs_length(env), critic_dim=sim.obs_length(env), dtype=np.float32, cfg=cfg)
    rng = substream(9, "roll")
    envs = [list(sim.reset(env, int(rng.integers(0, 2**63)))) for _ in range(n_envs)]
    replay_rows = []
    for _step in range(32):
        learner_obs = np.concatenate([obs[:2] for _, obs in envs])
        replay_rows.append(learner_obs)
        actions, _ = model2.act(learner_obs, rng)
        ended = False
        for e, pair in enumerate(envs):
            state, obs = pair
            all_actions = np.zeros(4)
            all_actions[:2] = actions[2 * e : 2 * e + 2, 0]
            for k in (2, 3):
                all_actions[k] = act_alone(rl.ScriptedSlotPolicy("greedy"), state, obs, k, None)
            out = sim.step(state, all_actions)
            ended |= out.terminal != sim.RUNNING
            pair[1] = sim.observe_all([state])[0]
        if ended:
            break
    replay = np.concatenate(replay_rows, axis=0)
    np.testing.assert_array_equal(batch.actor_in[: len(replay)], replay)


def test_cut_rollout_bootstraps_each_slot_with_its_own_value():
    # the last transition of a cut episode is non-terminal, so its return is
    # the shared reward plus gamma times the bootstrap of its own slot
    env = reduced_4p2e3o(num_ctrl=4, num_unctrl=0)
    n_envs = rl.ROLLOUT_ENVS
    cfg = rl.PpoConfig(batch=rl.ROLLOUT_MIN_STEPS * 4 * n_envs, minibatch=32)
    model = make_model(obs_dim=sim.obs_length(env), critic_dim=sim.obs_length(env), dtype=np.float32, cfg=cfg)
    collector = rl.RolloutCollector(env, model, cfg, substream(4, "roll"))
    batch, _ = collector.collect(cfg.batch)
    assert collector.n_envs == n_envs
    # the collector's bootstrap: one critic forward over every env's rows
    rows = np.concatenate([sim.observe_all([ep.state])[0, :4] for ep in collector.episodes])
    tails = model.values(rows).astype(np.float64).reshape(n_envs, 4)
    lasts = batch.returns.reshape(-1, n_envs, 4)[-1]
    cut = [e for e, ep in enumerate(collector.episodes) if ep.state.terminal == sim.RUNNING]
    assert cut
    for e in cut:
        tail, last = tails[e], lasts[e]
        assert np.ptp(tail) > 1e-4
        np.testing.assert_allclose(last - last[0], rl.GAMMA * (tail - tail[0]), rtol=0, atol=1e-9)


def test_mappo_critic_input_length():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    assert sim.central_obs_length(env, 2) == 2 * sim.obs_length(env) + 2 * env.players.num_e
    cfg = rl.PpoConfig(batch=64, minibatch=32)
    model = rl.init_actor_critic(sim.obs_length(env), sim.central_obs_length(env, 2), cfg, substream(0, "init"))
    teammates = FixedTeammates([rl.ScriptedSlotPolicy("greedy"), rl.ScriptedSlotPolicy("greedy")])
    batch, _ = rl.RolloutCollector(env, model, cfg, substream(3, "roll"), teammates=teammates, central=True).collect(64)
    assert batch.critic_in.shape[1] == sim.central_obs_length(env, 2)


def test_mappo_single_learner_reduces_to_ippo():
    # num_ctrl = 1: the centralized critic reads only the learner observation
    # plus the evader positions, and the critic draws no random numbers, so
    # MAPPO and IPPO act identically from the same seed: same actor inputs,
    # actions and log-probs.
    env = reduced_4p2e3o(num_ctrl=1, num_unctrl=3, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=128, minibatch=64, epochs=2)
    obs_dim = sim.obs_length(env)

    def collect(central):
        critic_dim = sim.central_obs_length(env, 1) if central else obs_dim
        model = rl.init_actor_critic(obs_dim, critic_dim, cfg, substream(5, "init"))
        teammates = FixedTeammates([rl.ScriptedSlotPolicy("greedy")] * 3)
        collector = rl.RolloutCollector(env, model, cfg, substream(5, "roll"), teammates=teammates, central=central)
        return collector.collect(128)[0]

    b_ippo = collect(central=False)
    b_mappo = collect(central=True)
    np.testing.assert_array_equal(b_ippo.actor_in, b_mappo.actor_in)
    np.testing.assert_array_equal(b_ippo.actions, b_mappo.actions)
    np.testing.assert_array_equal(b_ippo.old_logp, b_mappo.old_logp)
    np.testing.assert_array_equal(b_mappo.critic_in[:, :obs_dim], b_mappo.actor_in)


# ---------------------------------------------------------------------------
# Trainers
# ---------------------------------------------------------------------------

def test_ippo_selfplay_smoke_and_checkpoint_roundtrip(tmp_path):
    env = reduced_4p2e3o()
    cfg = rl.PpoConfig(batch=256, minibatch=64, epochs=2, total_steps=512)
    res = rl.ippo_selfplay_train(cfg, env, seed=3, out_dir=tmp_path)
    assert (tmp_path / "final.zip").exists()
    assert len(res.metrics) == 2
    assert res.selfplay_suc is not None

    loaded, manifest = evalkit.load_checkpoint(tmp_path / "final.zip")
    assert manifest["extra"]["algo"] == "sp"
    for pa, pb in zip(res.model.params(), loaded.params()):
        np.testing.assert_array_equal(pa, pb)  # float32 round trip is exact

    # bit-identical evaluation trajectory from the reloaded checkpoint
    def eval_traj(model):
        sp = config.with_control_split(env, 4, 0)
        state, obs = sim.reset(sp, 123)
        poses = []
        while state.terminal == sim.RUNNING and state.step < 100:
            sim.step(state, model.action_mean(obs)[:, 0])
            obs = sim.observe_all([state])[0]
            poses.append(np.array(state.pursuers))
        return np.stack(poses)

    np.testing.assert_array_equal(eval_traj(res.model), eval_traj(loaded))


def sequential_selfplay_episodes(model, env_cfg, seed):
    """The self-play score's episodes one after another, each slot acting
    from its own one-row forward (the bits of `NetSlotPolicy.act`): the
    oracle of `evaluate_selfplay_suc`'s side-by-side play. (terminal, steps,
    the bytes of every step's actions) per episode."""
    sp_cfg = config.with_control_split(env_cfg, env_cfg.players.num_p, 0)
    rng = substream(seed, "selfplay-eval")
    episodes = []
    for _ in range(rl.SELFPLAY_EVAL_EPISODES):
        state, obs = sim.reset(sp_cfg, int(rng.integers(0, 2**63)))
        taken = []
        while state.terminal == sim.RUNNING:
            actions = np.array([float(model.action_mean(obs[i : i + 1])[0, 0]) for i in range(len(obs))])
            taken.append(actions.tobytes())
            sim.step(state, actions)
            obs = sim.observe_all([state])[0]
        episodes.append((state.terminal, state.step, b"".join(taken)))
    return episodes


def pursuing_model(cfg, dtype):
    """An actor whose small random weights carry one path that steers each
    drone toward the first evader's bearing."""
    obs_dim = sim.obs_length(cfg)
    model = rl.init_actor_critic(obs_dim, obs_dim, rl.PpoConfig(hidden=(32, 32)), substream(0, "init"), dtype=dtype)
    weights = model.actor.weights
    for w in weights:
        w *= 0.05
    weights[0][1, 0] += 1.0  # the first evader's bearing / pi
    weights[1][0, 0] += 1.0
    weights[2][0, 0] += 10.0
    return model


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_selfplay_score_ends_each_episode_as_the_sequential_loop(dtype, monkeypatch):
    # four drones chasing one evader on an open arena: some capture it, most
    # collide on the way
    cfg = open_arena(num_p=4, num_e=1, velocity_e=0.3, horizon=300)
    cfg = replace(cfg, players=replace(cfg.players, reception_range=10.0))
    model = pursuing_model(cfg, dtype)
    want = sequential_selfplay_episodes(model, cfg, 0)
    assert {sim.SUCCESS, sim.COLLISION} <= {terminal for terminal, _, _ in want}
    states, taken = [], {}
    real_reset, real_step = sim.reset, sim.step

    def recording_reset(*args):
        state, obs = real_reset(*args)
        states.append(state)
        taken[id(state)] = []
        return state, obs

    def recording_step(state, actions):
        taken[id(state)].append(np.asarray(actions, dtype=float).tobytes())
        return real_step(state, actions)

    monkeypatch.setattr(sim, "reset", recording_reset)
    monkeypatch.setattr(sim, "step", recording_step)
    suc = rl.evaluate_selfplay_suc(model, cfg, 0)
    assert [(state.terminal, state.step, b"".join(taken[id(state)])) for state in states] == want
    assert suc == 100.0 * sum(terminal == sim.SUCCESS for terminal, _, _ in want) / rl.SELFPLAY_EVAL_EPISODES


def test_train_loop_runs_the_patched_ppo_update(monkeypatch):
    # the default update is looked up at call time, so a wrapper installed
    # on rl.ppo_update (as a tracer does) sees every update
    calls = []
    real = rl.ppo_update

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(rl, "ppo_update", counting)
    cfg = rl.PpoConfig(batch=64, minibatch=32, epochs=1, total_steps=128)
    res = rl.ippo_selfplay_unscored(cfg, reduced_4p2e3o(), seed=0)
    assert len(calls) == len(res.metrics) == 2


@pytest.mark.parametrize(
    "shapes, name",
    [
        ({"actor.b0": (1,)}, "actor.b0"),  # broadcasts over the layer, so it used to load and act
        ({"actor.w0": (7, 64)}, "actor.w0"),  # first layer rows != obs_dim
        ({"actor.w1": (63, 64)}, "actor.w1"),  # widths do not chain
        ({"actor.b2": (2,)}, "actor.b2"),  # bias longer than its layer
        ({"actor.w2": (64, 2), "actor.b2": (2,)}, "actor.w2"),  # last width != act_dim
        ({"critic.w0": (7, 64)}, "critic.w0"),  # first layer rows != critic_in_dim
        ({"critic.w2": (64, 2), "critic.b2": (2,)}, "critic.w2"),  # last width != 1
        ({"log_std": (2,)}, "log_std"),
        ({"log_std": ()}, "log_std"),
    ],
)
def test_checkpoint_array_shapes_are_checked_against_the_manifest(tmp_path, shapes, name):
    env = reduced_4p2e3o()
    obs_dim = sim.obs_length(env)
    model = rl.init_actor_critic(obs_dim, obs_dim, rl.PpoConfig(hidden=(64, 64)), substream(0, "init"))
    named, meta = rl.actor_critic_arrays(model)
    named = [(n, np.zeros(shapes[n], dtype=np.float32) if n in shapes else a) for n, a in named]
    path = tmp_path / "bad.zip"
    nn.save_arrays(path, "actor_critic", named, extra=meta)
    with pytest.raises(ValueError, match=f"array {name} has"):
        evalkit.load_checkpoint(path)


def test_ippo_two_seeds_differ():
    env = reduced_4p2e3o()
    cfg = rl.PpoConfig(batch=256, minibatch=64, epochs=2, total_steps=256)
    r1 = rl.ippo_selfplay_train(cfg, env, seed=1)
    r2 = rl.ippo_selfplay_train(cfg, env, seed=2)
    assert any(
        not np.array_equal(a, b) for a, b in zip(r1.model.params(), r2.model.params())
    )


def pbt_member(seed: int, returns: list[float]) -> rl.PbtMember:
    # _pbt_exploit reads no collector
    learner = rl.Learner(None, make_model(seed=seed, dtype=np.float32), rl.PpoConfig(), substream(seed, "update"))
    return rl.PbtMember(learner, recent_returns=returns)


def test_pbt_exploit_copy_and_perturb():
    members = [pbt_member(i, [float(i)] * 5) for i in range(4)]  # member 0 worst, member 3 best
    events = rl._pbt_exploit(members, substream(0, "exploit"))
    assert len(events) == 1
    ev = events[0]
    assert ev["target"] == 0 and ev["source"] == 3
    target, source = members[0].learner, members[3].learner
    for pa, pb in zip(target.model.params(), source.model.params()):
        np.testing.assert_array_equal(pa, pb)  # parameters equal source pre-perturbation
    assert ev["lr"] in (0.8 * 3e-4, 1.25 * 3e-4)
    assert ev["entropy_coef"] == pytest.approx(0.8 * 0.01) or ev["entropy_coef"] == pytest.approx(1.25 * 0.01)
    # the target trains on with the perturbed cfg and a fresh optimizer at its lr
    assert (target.cfg.lr, target.cfg.entropy_coef) == (ev["lr"], ev["entropy_coef"])
    assert target.opt.lr == ev["lr"] and target.opt.t == 0
    assert members[0].recent_returns == members[3].recent_returns


def test_pbt_small_population_never_exploits():
    members = [pbt_member(i, [float(i)]) for i in range(2)]
    assert rl._pbt_exploit(members, substream(0, "x")) == []


def test_pbt_train_runs_and_checkpoints(tmp_path):
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=128, minibatch=64, epochs=1, total_steps=256)
    res = rl.pbt_train(2, cfg, env, seed=0, exploit_interval=None, out_dir=tmp_path)
    assert len(res.members) == 2
    assert sorted(path.name for path in tmp_path.glob("*.zip")) == ["pbt_member0.zip", "pbt_member1.zip"]
    assert res.exploit_events == []
    for m in res.members:
        assert m.learner.steps >= 256


def test_pbt_archives_record_each_members_current_ppo_config(tmp_path):
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=64, minibatch=32, epochs=1, total_steps=128, hidden=(8,))
    res = rl.pbt_train(4, cfg, env, seed=0, exploit_interval=cfg.batch, out_dir=tmp_path)
    recorded = [nn.load_manifest(tmp_path / f"pbt_member{i}.zip")["extra"]["ppo"] for i in range(4)]
    assert recorded == [json.loads(json.dumps(asdict(m.learner.cfg))) for m in res.members]
    assert res.exploit_events and any(ppo["lr"] != cfg.lr for ppo in recorded)


def test_pbt_scores_each_member_on_a_seed_of_its_own(tmp_path, monkeypatch):
    # seed + i would score member i on the episodes of member 0 of a
    # seed-(s+i) run, and of a seed-(s+i) self-play run
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=64, minibatch=32, epochs=1, total_steps=64, hidden=(8,))
    seeds = []
    monkeypatch.setattr(rl, "evaluate_selfplay_suc", lambda model, env_cfg, seed: seeds.append(seed) or 0.0)
    rl.pbt_train(3, cfg, env, seed=5, exploit_interval=None, out_dir=tmp_path)
    assert seeds == [substream_seed_int(5, "member", i) for i in range(3)]


def test_pbt_rounds_continue_one_rollout_stream_per_member(monkeypatch):
    # each member keeps one collector: no episode seed is replayed in a later
    # round, and an episode is not cut at every round's batch / (num_ctrl *
    # n_envs) steps; the batch gives each env 32 steps per round
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    batch = 64 * rl.ROLLOUT_ENVS
    cfg = rl.PpoConfig(batch=batch, minibatch=32, epochs=1, total_steps=3 * batch)
    seeds, lengths = [], [0]
    real_reset, real_step = sim.reset, sim.step

    def reset(cfg, seed):
        seeds.append(seed)
        return real_reset(cfg, seed)

    def step(state, actions, *args):
        out = real_step(state, actions, *args)
        lengths[0] = max(lengths[0], state.step)
        return out

    monkeypatch.setattr(sim, "reset", reset)
    monkeypatch.setattr(sim, "step", step)
    res = rl.pbt_train(2, cfg, env, seed=0, exploit_interval=None)
    n_envs = res.members[0].learner.collector.n_envs
    assert n_envs == rl.ROLLOUT_ENVS
    # more episodes than the ones each member's envs begin with
    assert len(seeds) > 2 * n_envs
    assert len(set(seeds)) == len(seeds)
    assert lengths[0] > cfg.batch // (env.players.num_ctrl * n_envs)


def test_pbt_metrics_rows_average_each_members_last_50_episodes(monkeypatch):
    # like train_loop's rows: a running window over the member's episodes
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=64, minibatch=32, epochs=1, total_steps=8 * 64)
    collected = {}
    real_collect = rl.RolloutCollector.collect

    def collect(self, n_transitions):
        batch, stats = real_collect(self, n_transitions)
        collected.setdefault(id(self), []).append(stats)
        return batch, stats

    monkeypatch.setattr(rl.RolloutCollector, "collect", collect)
    res = rl.pbt_train(2, cfg, env, seed=0, exploit_interval=None)
    quiet_updates = 0
    for member in res.members:
        rounds = collected[id(member.learner.collector)]
        assert len(rounds) == len(member.learner.metrics) == 8
        returns, terminals = [], []
        for row, stats in zip(member.learner.metrics, rounds):
            returns += stats.episode_returns
            terminals += stats.episode_terminals
            quiet_updates += returns != [] and stats.episode_returns == []
            window, ends = returns[-50:], terminals[-50:]
            assert row["ep_return_mean"] == (float(np.mean(window)) if window else 0.0)
            assert row["suc"] == (100.0 * ends.count(sim.SUCCESS) / len(ends) if ends else 0.0)
    assert quiet_updates  # an update in which no episode ends keeps the window's figures


def test_pbt_collectors_and_pools_follow_the_exploited_models():
    # a collector acts with its member's model; the one shared teammate pool
    # with snapshot copies, which the next round's snapshot brings up to date
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=64, minibatch=32, epochs=1)
    members, snapshot = rl._pbt_members(4, cfg, env, 0)
    pool = members[0].learner.collector.teammates.pool
    for i, member in enumerate(members):
        member.learner.step()
        member.recent_returns = [float(i)]
    assert rl._pbt_exploit(members, substream(0, "exploit"))
    models = [member.learner.model for member in members]
    for member in members:
        assert member.learner.collector.model is member.learner.model
        assert member.learner.collector.teammates.pool is pool
    assert all(pol.model is not model for pol, model in zip(pool, models))
    snapshot()
    for pol, model in zip(pool, models):
        assert all(np.array_equal(a, b) for a, b in zip(pol.model.params(), model.params()))


def test_pbt_members_collect_against_the_round_start_parameters():
    # every member's teammates act with the parameters of the round's start,
    # so the members of a round may step in any order: reversed, they give
    # the same bytes
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=64, minibatch=32, epochs=1)

    def run(order):
        members, snapshot = rl._pbt_members(3, cfg, env, 0)
        for _ in range(3):
            snapshot()
            for member in order(members):
                member.learner.step()
        params = [[p.tobytes() for p in member.learner.model.params()] for member in members]
        return params, [member.learner.metrics for member in members]

    assert run(list) == run(lambda members: members[::-1])


def test_deterministic_net_slot_acts_with_the_action_mean():
    model = make_model(dtype=np.float32)
    rows = substream(0, "rows").normal(size=(20, 5))
    pol = rl.NetSlotPolicy(model, deterministic=True)
    slot_state = pol.begin_episode(substream(0, "episode"))
    alone = [act_alone(pol, None, rows, slot, slot_state) for slot in range(len(rows))]
    assert alone == [float(model.action_mean(row[None, :])[0, 0]) for row in rows]
    # the rows of many slots of several episodes in one call keep each slot's bits
    slots = [[0, 3, 5], list(range(20))]
    seats = [(SimpleNamespace(obs=rows), some, [None] * len(some)) for some in slots]
    want = [alone[i].hex() for i in slots[0] + slots[1]]
    assert [a.hex() for a in pol.act(seats)] == want


def test_net_slots_leave_the_episode_rng_one_draw_on_whether_or_not_they_sample():
    # a deterministic slot keeps no rng but makes the draw that seeds a
    # sampling slot's, so the slots after it draw the same streams either way
    model = make_model(dtype=np.float32)
    one_on = substream(0, "episode")
    seed = one_on.integers(0, 2**63)
    for deterministic in (True, False):
        rng = substream(0, "episode")
        slot_state = rl.NetSlotPolicy(model, deterministic=deterministic).begin_episode(rng)
        assert rng.bit_generator.state == one_on.bit_generator.state
        if deterministic:
            assert slot_state is None
        else:
            assert slot_state.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_a_running_actor_acts_with_its_policys_current_model():
    # a slot acts through its policy: a model set on the policy while an
    # episode runs is the one that acts
    old, new = make_model(dtype=np.float32, seed=0), make_model(dtype=np.float32, seed=1)
    obs = substream(0, "rows").normal(size=(1, 5))
    for deterministic in (True, False):
        pol = rl.NetSlotPolicy(old, deterministic=deterministic)
        slot_state = pol.begin_episode(substream(0, "episode"))
        pol.model = new
        want_pol = rl.NetSlotPolicy(new, deterministic=deterministic)
        want = act_alone(want_pol, None, obs, 0, want_pol.begin_episode(substream(0, "episode")))
        assert act_alone(pol, None, obs, 0, slot_state) == want


def test_random_policy_bounds():
    pol = rl.RandomSlotPolicy()
    rng = pol.begin_episode(substream(0, "r"))
    for _ in range(100):
        assert -1.0 <= act_alone(pol, None, None, 0, rng) <= 1.0


def scalar_gae(rewards, values, terminals, gamma, lam, bootstrap):
    """The textbook backward recursion, one scalar step at a time."""
    adv = np.zeros(len(rewards))
    last = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        nonterminal = 1.0 - terminals[t]
        next_value = bootstrap if t == len(rewards) - 1 else values[t + 1]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last = delta + gamma * lam * nonterminal * last
        adv[t] = last
    return adv, adv + values


def test_gae_over_slots_is_bitwise_the_scalar_recursion_per_slot():
    rng = np.random.default_rng(2)
    T, n = 40, 3
    rewards = rng.normal(size=T)
    values = rng.normal(size=(T, n)).astype(np.float32).astype(np.float64)
    terminals = (rng.random(T) < 0.1).astype(float)
    terminals[-1] = 0.0
    bootstrap = rng.normal(size=n)
    adv, ret = rl.compute_gae(rewards, values, terminals, 0.99, 0.95, bootstrap)
    for slot in range(n):
        a, r = scalar_gae(rewards, values[:, slot], terminals, 0.99, 0.95, float(bootstrap[slot]))
        np.testing.assert_array_equal(adv[:, slot], a)
        np.testing.assert_array_equal(ret[:, slot], r)


def per_episode_gae(rewards, values, terminals, gamma, lam, bootstrap):
    """The collector's former GAE: one `compute_gae` call per episode into
    zero-filled arrays, the last episode bootstrapped when it is cut and
    every ended one with 0.0."""
    T = len(rewards)
    ends = [t + 1 for t in range(T) if terminals[t]]
    if not terminals[-1]:
        ends.append(T)
    adv, ret = np.zeros(values.shape), np.zeros(values.shape)
    start = 0
    for end in ends:
        cut = end == T and not terminals[-1]
        adv[start:end], ret[start:end] = rl.compute_gae(
            rewards[start:end], values[start:end], terminals[start:end], gamma, lam, bootstrap if cut else 0.0
        )
        start = end
    return adv, ret


@st.composite
def episode_batches(draw):
    """(rewards, (T, n) values, terminals, bootstrap) of a batch of episodes.

    Values are float32 network outputs; zeros of both signs are drawn often,
    since the sign of a zero is what a one-pass GAE could change. Rewards are
    never -0.0: `sim.step`'s reward starts from +0.0, and only a -0.0 reward
    would tell the next episode's zeroed value (of either sign) from the
    +0.0 bootstrap of a separate pass; `r + 0.0` turns -0.0 into +0.0.
    """
    n = draw(st.sampled_from([1, 2, 4]))
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    cut = draw(st.booleans())
    T = sum(lengths)
    terminals = np.zeros(T)
    terminals[np.cumsum(lengths) - 1] = 1.0
    if cut:
        terminals[-1] = 0.0
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-50, 50, width=32))
    reward = st.one_of(st.just(0.0), st.floats(-20, 20)).map(lambda r: r + 0.0)
    rewards = draw(st.lists(reward, min_size=T, max_size=T))
    values = np.array(draw(st.lists(value, min_size=T * n, max_size=T * n)), dtype=np.float64).reshape(T, n)
    bootstrap = np.array(draw(st.lists(value, min_size=n, max_size=n))) if cut else 0.0
    return rewards, values, terminals, bootstrap


@settings(max_examples=200, deadline=None)
@given(episode_batches(), st.sampled_from([(rl.GAMMA, rl.GAE_LAMBDA), (1.0, 1.0), (0.5, 0.25)]))
def test_one_gae_pass_over_a_batch_is_bitwise_the_per_episode_passes(batch, coefs):
    rewards, values, terminals, bootstrap = batch
    adv, ret = rl.compute_gae(rewards, values, terminals, *coefs, bootstrap_value=bootstrap)
    want_adv, want_ret = per_episode_gae(rewards, values, terminals, *coefs, bootstrap)
    assert adv.tobytes() == want_adv.tobytes()
    assert ret.tobytes() == want_ret.tobytes()


@st.composite
def env_batches(draw):
    """(rewards, terminals, values, bootstrap) of the batch of `n_envs`
    envs side by side: (T, n_envs) rewards and terminals, (T, n_envs, n)
    values, and a bootstrap per env and slot that is 0.0 where the env's
    last episode ended. Each env's terminals fall anywhere, so an env may
    end or cut its last episode, and values and rewards are drawn as in
    `episode_batches`."""
    n_envs = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, 4]))
    T = draw(st.integers(1, 24))
    ends = st.lists(st.sampled_from([0.0, 0.0, 0.0, 1.0]), min_size=T, max_size=T)
    terminals = np.array([draw(ends) for _ in range(n_envs)]).T.reshape(T, n_envs)
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-50, 50, width=32))
    reward = st.one_of(st.just(0.0), st.floats(-20, 20)).map(lambda r: r + 0.0)
    rewards = np.array(draw(st.lists(reward, min_size=T * n_envs, max_size=T * n_envs))).reshape(T, n_envs)
    values = np.array(draw(st.lists(value, min_size=T * n_envs * n, max_size=T * n_envs * n)))
    bootstrap = np.array(draw(st.lists(value, min_size=n_envs * n, max_size=n_envs * n))).reshape(n_envs, n)
    bootstrap[terminals[-1] == 1.0] = 0.0
    return rewards, terminals, values.reshape(T, n_envs, n), bootstrap


@settings(max_examples=100, deadline=None)
@given(env_batches(), st.sampled_from([(rl.GAMMA, rl.GAE_LAMBDA), (1.0, 1.0), (0.5, 0.25)]))
def test_one_gae_pass_over_side_by_side_envs_is_bitwise_a_pass_per_env_and_slot(batch, coefs):
    rewards, terminals, values, bootstrap = batch
    adv, ret = rl.compute_gae(rewards, values, terminals, *coefs, bootstrap_value=bootstrap)
    assert adv.shape == ret.shape == values.shape
    for e in range(values.shape[1]):
        for slot in range(values.shape[2]):
            want_adv, want_ret = per_episode_gae(
                rewards[:, e], values[:, e, slot], terminals[:, e], *coefs, bootstrap[e, slot]
            )
            assert adv[:, e, slot].tobytes() == want_adv.tobytes()
            assert ret[:, e, slot].tobytes() == want_ret.tobytes()


def test_gae_rejects_rewards_and_terminals_of_other_shapes():
    values = np.zeros((5, 2, 3))
    with pytest.raises(ValueError, match="do not match"):
        rl.compute_gae(np.zeros((5, 3)), values, np.zeros((5, 3)), 0.99, 0.95)
    with pytest.raises(ValueError, match="do not match"):
        rl.compute_gae(np.zeros((5, 2)), values, np.zeros(5), 0.99, 0.95)


def test_collector_rejects_batch_not_a_multiple_of_the_learner_slots():
    env = reduced_4p2e3o(num_ctrl=3, num_unctrl=1, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=64, minibatch=32)
    model = make_model(obs_dim=sim.obs_length(env), critic_dim=sim.obs_length(env), dtype=np.float32, cfg=cfg)
    teammates = FixedTeammates([rl.ScriptedSlotPolicy("greedy")])
    with pytest.raises(ValueError, match="not a multiple of the 3 learner slots"):
        rl.RolloutCollector(env, model, cfg, substream(0, "roll"), teammates=teammates)
