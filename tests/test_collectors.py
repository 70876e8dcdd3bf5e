"""The rollout collectors against their old episode loop, and the caller-owned
slots of `rl.step_episodes`.

`rl.RolloutCollector` and `teammate.NahtCollector` step their `n_envs`
episodes side by side through `rl.step_episodes`, the step that eval plays
through. `LoopCollector` keeps the loop they replaced as the oracle: `n_envs`
envs, each with one `sim.reset` per episode, and per step one `model.act`
over the learner rows of every env, then in env order each teammate's
`act` for its slot alone (`conftest.act_alone`) and one `sim.step` and one
`sim.observe_all` per env; a NAHT-D step record per learner and a GAE pass
per env. Both must give the same batches and episode statistics, bit for
bit, with one env and with `rl.ROLLOUT_ENVS`, for self-play, MAPPO and
NAHT-D, with scripted, stochastic-net and deterministic-net teammates (the
last act for all their slots in all envs in one stacked forward), and across
episodes cut by a batch and continued by the next.
"""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from pursuit_lab import rl, sim, teammate
from pursuit_lab.seeding import substream
from conftest import act_alone, reduced_4p2e3o

PPO = rl.PpoConfig(batch=64, minibatch=32, hidden=(32, 32))
COLLECTS = 4


class LoopCollector:
    """`rl.RolloutCollector`'s batches and statistics over `n_envs` envs from
    a plain reset/step loop; with a `teammate.NahtModel` as `naht`,
    `teammate.NahtCollector`'s (the acting model is then `naht.ac`).

    The rollout rng draws as the collector's does: each env's seed, its
    teammates and their actors' seeds when its episode begins (envs in
    order), and one `model.act` over all learner rows per step.
    """

    def __init__(self, env_cfg, model, rng, n_envs, teammates=None, central=False, naht=None):
        self.env_cfg, self.model, self.rng = env_cfg, model, rng
        self.teammates, self.central, self.naht = teammates, central, naht
        self.n = env_cfg.players.num_ctrl
        self.envs = [None] * n_envs

    def begin_episode(self, e):
        seed = int(self.rng.integers(0, 2**63))
        state, obs = sim.reset(self.env_cfg, seed)
        mates = []
        if self.env_cfg.players.num_unctrl > 0:
            mates = [(pol, pol.begin_episode(self.rng)) for pol in self.teammates.sample(self.rng)]
        records = None if self.naht is None else np.zeros((self.n, self.naht.encoder.layout.step_len))
        self.envs[e] = SimpleNamespace(state=state, obs=obs, episode_return=0.0, mates=mates, records=records)

    def critic(self, learner_obs):
        """(critic rows, values) of the (n_envs * n, obs) learner rows."""
        if not self.central:
            return learner_obs, self.model.values(learner_obs)
        n = self.n
        critic_in = np.stack(
            [sim.central_observation(env.state, learner_obs[e * n : (e + 1) * n]) for e, env in enumerate(self.envs)]
        )
        return np.repeat(critic_in, n, axis=0), np.repeat(self.model.values(critic_in), n)

    def collect(self, n_transitions):
        n, n_envs, stats = self.n, len(self.envs), rl.RolloutStats()
        obs_rows, critic_rows, act_rows, logp_rows, win_rows, mate_rows = [], [], [], [], [], []
        value_rows, reward_rows, term_rows = [], [], []
        steps_needed = -(-n_transitions // (n * n_envs))
        for e, env in enumerate(self.envs):
            if env is None or env.state.terminal != sim.RUNNING:
                self.begin_episode(e)
        for step_i in range(steps_needed):
            learner_obs = np.concatenate([env.obs[:n] for env in self.envs])
            actor_in = learner_obs
            if self.naht is not None:
                records = np.concatenate([env.records for env in self.envs])
                win_rows.append(records)
                emb, _ = teammate.encode(self.naht.encoder, records)
                actor_in = self.naht.actor_input(learner_obs, emb)
            actions, logp = self.model.act(actor_in, self.rng)
            critic_step, value_step = self.critic(learner_obs)
            outcomes = []
            for e, env in enumerate(self.envs):
                all_actions = np.zeros(self.env_cfg.players.num_p)
                all_actions[:n] = actions[e * n : (e + 1) * n, 0]
                for k, (pol, slot_state) in enumerate(env.mates, n):
                    all_actions[k] = act_alone(pol, env.state, env.obs, k, slot_state)
                if self.naht is not None:
                    layout, site = self.naht.encoder.layout, self.env_cfg.site
                    env.records = np.concatenate(
                        [
                            layout.step_record(env.obs[i : i + 1], [env.state.pursuers[i]], site, [all_actions[i]])
                            for i in range(n)
                        ]
                    )
                    mate_rows.append(np.tile(all_actions[n:], (n, 1)))
                out = sim.step(env.state, all_actions)
                env.episode_return += out.reward
                env.obs = sim.observe_all([env.state])[0]
                outcomes.append(out)
            obs_rows.append(learner_obs)
            critic_rows.append(critic_step)
            act_rows.append(actions)
            logp_rows.append(logp)
            value_rows.append(value_step.reshape(n_envs, n))
            reward_rows.append([out.reward for out in outcomes])
            term_rows.append([float(out.terminal != sim.RUNNING) for out in outcomes])
            for e, (env, out) in enumerate(zip(self.envs, outcomes)):
                if out.terminal != sim.RUNNING:
                    stats.episode_returns.append(env.episode_return)
                    stats.episode_lengths.append(env.state.step)
                    stats.episode_terminals.append(out.terminal)
                    if step_i + 1 < steps_needed:
                        self.begin_episode(e)
        tail = self.critic(np.concatenate([env.obs[:n] for env in self.envs]))[1].reshape(n_envs, n)
        values, rewards, terms = np.stack(value_rows), np.array(reward_rows), np.array(term_rows)
        advantages, returns = np.zeros(values.shape), np.zeros(values.shape)
        for e, env in enumerate(self.envs):
            bootstrap = tail[e] if env.state.terminal == sim.RUNNING else 0.0
            advantages[:, e], returns[:, e] = rl.compute_gae(
                rewards[:, e], values[:, e], terms[:, e], rl.GAMMA, rl.GAE_LAMBDA, bootstrap
            )
        batch = rl.PpoBatch(
            actor_in=np.concatenate(obs_rows, axis=0),
            critic_in=np.concatenate(critic_rows, axis=0),
            actions=np.concatenate(act_rows, axis=0),
            old_logp=np.concatenate(logp_rows, axis=0),
            advantages=advantages.reshape(-1),
            returns=returns.reshape(-1),
        )
        if self.naht is not None:
            batch = teammate.NahtBatch(batch, np.concatenate(win_rows, axis=0), np.concatenate(mate_rows, axis=0))
        return batch, stats


def mate_model(env):
    obs_dim = sim.obs_length(env)
    return rl.init_actor_critic(obs_dim, obs_dim, PPO, substream(1, "mate"))


#: Teammate pools, uniformly drawn per uncontrolled slot and episode. A
#: deterministic net policy acts for all its slots in all envs in one stacked
#: forward.
POOLS = {
    "scripted": lambda env: [rl.ScriptedSlotPolicy("greedy"), rl.ScriptedSlotPolicy("vicsek")],
    "stochastic-net": lambda env: [rl.NetSlotPolicy(mate_model(env), deterministic=False)],
    "deterministic-net": lambda env: [rl.NetSlotPolicy(mate_model(env))],
}


def collector_pair(algo, pool, cfg):
    """(collector, oracle) on the same model, teammates and rollout seed, the
    oracle with as many envs as the collector."""
    if algo == "selfplay":
        env = reduced_4p2e3o()
        obs_dim = sim.obs_length(env)
        model = rl.init_actor_critic(obs_dim, obs_dim, cfg, substream(0, "init"))
        collector = rl.RolloutCollector(env, model, cfg, substream(3, "rollout"))
        return collector, LoopCollector(env, model, substream(3, "rollout"), collector.n_envs)
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    mates = rl.UniformTeammates(POOLS[pool](env), env.players.num_unctrl)
    if algo == "mappo":
        critic_dim = sim.central_obs_length(env, env.players.num_ctrl)
        model = rl.init_actor_critic(sim.obs_length(env), critic_dim, cfg, substream(0, "init"))
        collector = rl.RolloutCollector(env, model, cfg, substream(3, "rollout"), teammates=mates, central=True)
        return collector, LoopCollector(
            env, model, substream(3, "rollout"), collector.n_envs, teammates=mates, central=True
        )
    model = teammate.init_naht_model(env, cfg, substream(0, "init"))
    collector = teammate.NahtCollector(env, model, cfg, substream(3, "rollout"), mates)
    return collector, LoopCollector(
        env, model.ac, substream(3, "rollout"), collector.n_envs, teammates=mates, central=True, naht=model
    )


def batch_bits(batch) -> dict:
    """Every array of a `PpoBatch` or `NahtBatch` as (dtype, shape, bytes)."""
    out = {}
    for f in fields(batch):
        value = getattr(batch, f.name)
        if isinstance(value, rl.PpoBatch):
            out.update({f"{f.name}.{k}": v for k, v in batch_bits(value).items()})
        else:
            out[f.name] = (value.dtype, value.shape, value.tobytes())
    return out


def stats_bits(stats: rl.RolloutStats) -> tuple:
    return [r.hex() for r in stats.episode_returns], stats.episode_lengths, stats.episode_terminals


CASES = [("selfplay", None)] + [(algo, pool) for algo in ("mappo", "naht-d") for pool in POOLS]


@pytest.mark.parametrize("algo, pool", CASES)
def test_collector_equals_the_reset_step_loop(monkeypatch, algo, pool):
    for n_envs in sorted({1, rl.ROLLOUT_ENVS}):
        monkeypatch.setattr(rl, "ROLLOUT_ENVS", n_envs)
        # ROLLOUT_MIN_STEPS steps of each env per batch with 4 learners, twice that with 2
        cfg = replace(PPO, batch=rl.ROLLOUT_MIN_STEPS * 4 * n_envs)
        collector, oracle = collector_pair(algo, pool, cfg)
        assert collector.n_envs == n_envs
        ended = cut = 0
        for _ in range(COLLECTS):
            batch, stats = collector.collect(cfg.batch)
            want_batch, want_stats = oracle.collect(cfg.batch)
            assert batch_bits(batch) == batch_bits(want_batch)
            assert stats_bits(stats) == stats_bits(want_stats)
            ended += len(stats.episode_terminals)
            cut += sum(ep.state.terminal == sim.RUNNING for ep in collector.episodes)
        # episodes ended inside a batch, and some batch cut one that the next continued
        assert ended and cut


@pytest.mark.parametrize(
    "batch, n_learners, n_envs",
    [
        # the CLI's batches for 1 to 7 learner slots
        (1024, 1, 8), (1024, 2, 8), (1020, 3, 4), (1024, 4, 8), (1020, 5, 4), (1020, 6, 2), (1008, 7, 4),
        # env steps that 8 divides, but into fewer than ROLLOUT_MIN_STEPS per env
        (512, 4, 4), (64, 2, 1), (64, 4, 1),
        # odd env steps
        (66, 2, 1),
    ],
)
def test_collector_keeps_the_most_envs_that_split_the_batch_into_long_enough_segments(batch, n_learners, n_envs):
    env = reduced_4p2e3o()
    num_p = max(n_learners, 4)
    env = replace(env, players=replace(env.players, num_p=num_p, num_ctrl=n_learners, num_unctrl=num_p - n_learners))
    model = rl.init_actor_critic(1, 1, PPO, substream(0, "init"))
    mates = rl.UniformTeammates([rl.ScriptedSlotPolicy("greedy")], env.players.num_unctrl)
    cfg = replace(PPO, batch=batch, minibatch=batch // 2)
    collector = rl.RolloutCollector(env, model, cfg, substream(0, "rollout"), teammates=mates)
    assert collector.n_envs == n_envs
    assert (batch // n_learners) % n_envs == 0 and rl.ROLLOUT_ENVS % n_envs == 0


def test_caller_owned_slots_step_with_their_preset_actions_and_observe(monkeypatch):
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    greedy = rl.ScriptedSlotPolicy("greedy")
    steps, observed = [], []
    real_step, real_observe_all = sim.step, sim.observe_all

    def recording_step(state, actions):
        steps.append(np.array(actions))
        return real_step(state, actions)

    def recording_observe_all(states):
        observed.append(list(states))
        return real_observe_all(states)

    monkeypatch.setattr(sim, "step", recording_step)
    monkeypatch.setattr(sim, "observe_all", recording_observe_all)
    owned = rl.Episode(sim.reset(env, 11), [None, None, greedy, greedy], substream(11, "policies"))
    scripted = rl.Episode(sim.reset(env, 11), [greedy] * 4, substream(11, "policies"))
    # every policy slot is scripted, so only the episode with caller-owned slots observes
    assert owned.observe and not scripted.observe
    preset = [0.1, -1.0 / 3.0]  # not float32 values: a narrowing would show
    for _ in range(5):
        owned.actions[:2] = preset
        mates = [act_alone(greedy, owned.state, None, i, None) for i in (2, 3)]
        steps.clear()
        observed.clear()
        outcomes = rl.step_episodes([owned, scripted])
        owned_actions, _ = steps
        assert owned_actions.tolist() == preset + mates
        assert len(observed) == 1 and len(observed[0]) == 1 and observed[0][0] is owned.state  # one pass
        assert outcomes[0].observations is not None and outcomes[1].observations is None
        assert owned.obs is outcomes[0].observations
    # a step in which no episode observes builds no rows
    assert scripted.state.terminal == sim.RUNNING
    observed.clear()
    (outcome,) = rl.step_episodes([scripted])
    assert observed == [] and outcome.observations is None
