"""The rollout collectors against their old episode loop, and the caller-owned
slots of `rl.step_episodes`.

`rl.RolloutCollector` and `teammate.NahtCollector` step their episode
through `rl.step_episodes`, the step that eval plays through. `LoopCollector`
keeps the loop they replaced as the oracle: one `sim.reset` per episode, and
per step the learners' `model.act`, each teammate's own `act` and one
`sim.step`. Both must give the same batches and episode statistics, bit for
bit, for self-play, MAPPO and NAHT-D, with scripted, stochastic-net and
deterministic-net teammates (the last act through `act_rows`), and across
episodes cut by a batch and continued by the next.
"""

from dataclasses import fields

import numpy as np
import pytest

from pursuit_lab import rl, sim, teammate
from pursuit_lab.seeding import substream
from conftest import reduced_4p2e3o

PPO = rl.PpoConfig(batch=64, minibatch=32, hidden=(32, 32))
COLLECTS = 4


class LoopCollector:
    """`rl.RolloutCollector`'s batches and statistics from a plain
    reset/step loop; with a `teammate.NahtModel` as `naht`,
    `teammate.NahtCollector`'s (the acting model is then `naht.ac`)."""

    def __init__(self, env_cfg, model, rng, teammates=None, central=False, naht=None):
        self.env_cfg, self.model, self.rng = env_cfg, model, rng
        self.teammates, self.central, self.naht = teammates, central, naht
        self.n = env_cfg.players.num_ctrl
        self.state = None

    def begin_episode(self):
        seed = int(self.rng.integers(0, 2**63))
        self.state, self.obs = sim.reset(self.env_cfg, seed)
        self.episode_return = 0.0
        self.mates = []
        if self.env_cfg.players.num_unctrl > 0:
            self.mates = [pol.begin_episode(self.rng) for pol in self.teammates.sample(self.rng)]
        if self.naht is not None:
            self.records = np.zeros((self.n, self.naht.encoder.layout.step_len))

    def critic(self, learner_obs):
        if not self.central:
            return learner_obs, self.model.values(learner_obs)
        critic_in = sim.central_observation(self.state, learner_obs)[None, :]
        return np.repeat(critic_in, self.n, axis=0), np.repeat(self.model.values(critic_in), self.n)

    def collect(self, n_transitions):
        n, stats = self.n, rl.RolloutStats()
        obs_rows, critic_rows, act_rows, logp_rows, win_rows, mate_rows = [], [], [], [], [], []
        value_rows, reward_rows, term_rows = [], [], []
        steps_needed = -(-n_transitions // n)
        if self.state is None or self.state.terminal != sim.RUNNING:
            self.begin_episode()
        for step_i in range(steps_needed):
            learner_obs = self.obs[:n]
            actor_in = learner_obs
            if self.naht is not None:
                win_rows.append(self.records)
                emb, _ = teammate.encode(self.naht.encoder, self.records)
                actor_in = self.naht.actor_input(learner_obs, emb)
            actions, logp = self.model.act(actor_in, self.rng)
            critic_step, value_step = self.critic(learner_obs)
            all_actions = np.zeros(self.env_cfg.players.num_p)
            all_actions[:n] = actions[:, 0]
            for k, actor in enumerate(self.mates, n):
                all_actions[k] = actor.act(self.state, k, self.obs)
            if self.naht is not None:
                layout = self.naht.encoder.layout
                self.records = np.stack(
                    [layout.step_record(learner_obs[i], self.state, i, float(all_actions[i])) for i in range(n)]
                )
                mate_rows.append(np.tile(all_actions[n:], (n, 1)))
            out = sim.step(self.state, all_actions)
            self.episode_return += out.reward
            obs_rows.append(learner_obs)
            critic_rows.append(critic_step)
            act_rows.append(actions)
            logp_rows.append(logp)
            value_rows.append(value_step)
            reward_rows.append(out.reward)
            term_rows.append(1.0 if out.terminal != sim.RUNNING else 0.0)
            if out.terminal != sim.RUNNING:
                stats.episode_returns.append(self.episode_return)
                stats.episode_lengths.append(self.state.step)
                stats.episode_terminals.append(out.terminal)
                if step_i + 1 < steps_needed:
                    self.begin_episode()
            else:
                self.obs = out.observations
        bootstrap = self.critic(self.obs[:n])[1] if self.state.terminal == sim.RUNNING else 0.0
        advantages, returns = rl.compute_gae(
            reward_rows, np.stack(value_rows), term_rows, rl.GAMMA, rl.GAE_LAMBDA, bootstrap
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
#: deterministic net policy that fills both slots acts for them in one
#: `act_rows` call.
POOLS = {
    "scripted": lambda env: [rl.ScriptedSlotPolicy("greedy"), rl.ScriptedSlotPolicy("vicsek")],
    "stochastic-net": lambda env: [rl.NetSlotPolicy(mate_model(env), deterministic=False)],
    "deterministic-net": lambda env: [rl.NetSlotPolicy(mate_model(env))],
}


def collector_pair(algo, pool):
    """(collector, oracle) on the same model, teammates and rollout seed."""
    if algo == "selfplay":
        env = reduced_4p2e3o()
        obs_dim = sim.obs_length(env)
        model = rl.init_actor_critic(obs_dim, obs_dim, PPO, substream(0, "init"))
        return (
            rl.RolloutCollector(env, model, PPO, substream(3, "rollout")),
            LoopCollector(env, model, substream(3, "rollout")),
        )
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    mates = rl.UniformTeammates(POOLS[pool](env), env.players.num_unctrl)
    if algo == "mappo":
        critic_dim = sim.central_obs_length(env, env.players.num_ctrl)
        model = rl.init_actor_critic(sim.obs_length(env), critic_dim, PPO, substream(0, "init"))
        return (
            rl.RolloutCollector(env, model, PPO, substream(3, "rollout"), teammates=mates, central=True),
            LoopCollector(env, model, substream(3, "rollout"), teammates=mates, central=True),
        )
    model = teammate.init_naht_model(env, PPO, substream(0, "init"))
    return (
        teammate.NahtCollector(env, model, PPO, substream(3, "rollout"), mates),
        LoopCollector(env, model.ac, substream(3, "rollout"), teammates=mates, central=True, naht=model),
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
def test_collector_equals_the_reset_step_loop(algo, pool):
    collector, oracle = collector_pair(algo, pool)
    ended = cut = 0
    for _ in range(COLLECTS):
        batch, stats = collector.collect(PPO.batch)
        want_batch, want_stats = oracle.collect(PPO.batch)
        assert batch_bits(batch) == batch_bits(want_batch)
        assert stats_bits(stats) == stats_bits(want_stats)
        ended += len(stats.episode_terminals)
        cut += collector.episode.state.terminal == sim.RUNNING
    # episodes ended inside a batch, and some batch cut one that the next continued
    assert ended and cut


def test_caller_owned_slots_step_with_their_preset_actions_and_observe(monkeypatch):
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    greedy = rl.ScriptedSlotPolicy("greedy")
    calls = []
    real_step = sim.step

    def recording_step(state, actions, *args):
        calls.append((np.array(actions), args))
        return real_step(state, actions, *args)

    monkeypatch.setattr(sim, "step", recording_step)
    owned = rl.Episode(env, [None, None, greedy, greedy], 11, substream(11, "policies"))
    scripted = rl.Episode(env, [greedy] * 4, 11, substream(11, "policies"))
    # every policy slot is scripted, so only the episode with caller-owned slots observes
    assert owned.observe and not scripted.observe
    preset = [0.1, -1.0 / 3.0]  # not float32 values: a narrowing would show
    for _ in range(5):
        owned.actions[:2] = preset
        mates = [greedy.act(owned.state, i, None) for i in (2, 3)]
        calls.clear()
        outcomes = rl.step_episodes([owned, scripted])
        (owned_actions, owned_args), (_, scripted_args) = calls
        assert owned_actions.tolist() == preset + mates
        assert (owned_args, scripted_args) == ((True,), (False,))
        assert outcomes[0].observations is not None and outcomes[1].observations is None
        assert owned.obs is outcomes[0].observations
