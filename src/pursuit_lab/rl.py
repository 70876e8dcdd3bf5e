"""PPO machinery and the base trainers: IPPO self-play, PBT, and MAPPO.

Everything trains a shared actor-critic over the learner pursuer slots.
Gradients are computed analytically against the nn primitives; `ppo_update`
also returns the gradient with respect to the actor input so trainers that
feed extra (learned) features into the actor can backpropagate through them.

Every trainer runs `Learner.step`, the one PPO update step (collect, update,
metrics row): `train_loop` repeats it, and `pbt_train` steps each member once
per round. `finish_training` scores and saves every final model.

`RunDir` is the one writer of run directories and of their formats; its
`archive` is the one place that decides what a manifest records: the model's
dims, the arena's pursuer and evader counts, the PPO settings and the run's
own fields. A trainer given an `out_dir` writes its whole run directory
there; the CLI adds only `manifest.json`. `Learner.step` times each update's
rollout and PPO update; those wall times go only into the timing CSVs, apart
from the deterministic files.

Rollouts count *learner transitions*: one env step with N learner slots
contributes N transitions, and `PpoConfig.total_steps` / `batch` are
denominated in those units.

The PPO settings that no run varies are constants: the discount `GAMMA`,
the GAE `GAE_LAMBDA`, the surrogate's `CLIP_RATIO`, the value-loss weight
`VALUE_COEF`, the initial policy std `INIT_STD`, and the rollout's episodes
side by side, `ROLLOUT_ENVS` at most with `ROLLOUT_MIN_STEPS` steps each.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import nn, scripted, sim
from .config import EnvConfig, with_control_split
from .seeding import substream, substream_seed_int


GAMMA = 0.99
GAE_LAMBDA = 0.95
CLIP_RATIO = 0.2
VALUE_COEF = 1.0
INIT_STD = 0.5
#: Episodes that a rollout collector steps side by side, at most, and the env
#: steps that each of them runs per batch, at least, where the batch has them:
#: cut into shorter segments, few episodes end inside a batch and most
#: advantages lean on the bootstrap. A collector keeps the largest divisor of
#: `ROLLOUT_ENVS` that divides the env steps of its batch and leaves each
#: episode `ROLLOUT_MIN_STEPS` of them (1 if none does).
ROLLOUT_ENVS = 8
ROLLOUT_MIN_STEPS = 32


@dataclass
class PpoConfig:
    lr: float = 3e-4
    entropy_coef: float = 0.01
    epochs: int = 20
    batch: int = 1024
    minibatch: int = 256
    total_steps: int = 1_000_000
    hidden: tuple[int, ...] = (128, 128)

    @classmethod
    def for_learners(cls, *slot_counts: int, **fields) -> "PpoConfig":
        """The defaults, with the largest batch up to 1024 that every learner
        slot count divides and that splits into 4 equal minibatches (1024 and
        256 for 1, 2 or 4 slots)."""
        step = math.lcm(4, *slot_counts)
        batch = 1024 // step * step
        return cls(batch=batch, minibatch=batch // 4, **fields)

    def validate(self) -> None:
        """ValueError naming the first field that would break an update."""
        if self.batch < 1 or self.minibatch < 1:
            raise ValueError(f"batch and minibatch must be at least 1 (got {self.batch} and {self.minibatch})")
        if self.batch % self.minibatch != 0:
            raise ValueError("minibatch must divide batch")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1 (got {self.epochs})")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive (got {self.lr})")
        if not math.isfinite(self.entropy_coef):
            raise ValueError(f"entropy_coef must be finite (got {self.entropy_coef})")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be at least 1 (got {self.hidden})")


# ---------------------------------------------------------------------------
# Actor-critic model
# ---------------------------------------------------------------------------

@dataclass
class ActorCritic:
    actor: nn.Mlp  # obs (+ extras) -> action mean
    log_std: np.ndarray  # (act_dim,), state-independent
    critic: nn.Mlp  # critic input -> value
    obs_dim: int
    act_dim: int
    critic_in_dim: int

    def params(self) -> list[np.ndarray]:
        return self.actor.arrays() + [self.log_std] + self.critic.arrays()

    def copy(self) -> "ActorCritic":
        return ActorCritic(
            actor=self.actor.copy(),
            log_std=self.log_std.copy(),
            critic=self.critic.copy(),
            obs_dim=self.obs_dim,
            act_dim=self.act_dim,
            critic_in_dim=self.critic_in_dim,
        )

    def action_mean(self, obs: np.ndarray) -> np.ndarray:
        mean, _ = nn.mlp_forward(self.actor, obs)
        return mean

    def act(self, obs: np.ndarray, rng: np.random.Generator):
        """(sampled actions, their log-probs) for a batch of observations.

        Deterministic actions are `action_mean`.
        """
        mean = self.action_mean(obs)
        actions = nn.gaussian_sample(mean, self.log_std, rng)
        return actions, nn.gaussian_log_prob(mean, self.log_std, actions)

    def values(self, critic_in: np.ndarray) -> np.ndarray:
        v, _ = nn.mlp_forward(self.critic, critic_in)
        return v[:, 0]

    def checkpoint_arrays(self):
        """(checkpoint kind, named arrays, manifest dims) for `RunDir.archive`."""
        return ("actor_critic", *actor_critic_arrays(self))


def init_actor_critic(
    obs_dim: int,
    critic_in_dim: int,
    cfg: PpoConfig,
    rng: np.random.Generator,
    dtype=np.float32,
) -> ActorCritic:
    """A fresh actor-critic; the action is the one steer scalar. Validates
    `cfg` first, so that a bad config fails before any model is built."""
    cfg.validate()
    actor = nn.mlp_init([obs_dim, *cfg.hidden, 1], rng, dtype=dtype, final_scale=0.01)
    critic = nn.mlp_init([critic_in_dim, *cfg.hidden, 1], rng, dtype=dtype)
    log_std = np.full(1, np.log(INIT_STD), dtype=dtype)
    return ActorCritic(actor, log_std, critic, obs_dim, 1, critic_in_dim)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _named_mlp_arrays(prefix: str, mlp: nn.Mlp) -> list[tuple[str, np.ndarray]]:
    out = []
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out.append((f"{prefix}.w{i}", w))
        out.append((f"{prefix}.b{i}", b))
    return out


def _mlp_from_arrays(prefix: str, arrays: dict, n_layers: int, in_dim: int, out_dim: int) -> nn.Mlp:
    """Rebuild an MLP whose layer shapes chain from `in_dim` to `out_dim`.

    Raises ValueError naming the first array whose shape breaks the chain.
    """
    weights, biases = [], []
    width = in_dim
    for i in range(n_layers):
        w, b = arrays[f"{prefix}.w{i}"], arrays[f"{prefix}.b{i}"]
        if w.ndim != 2 or w.shape[0] != width:
            raise ValueError(f"checkpoint array {prefix}.w{i} has shape {w.shape}, expected ({width}, n)")
        width = w.shape[1]
        if b.shape != (width,):
            raise ValueError(f"checkpoint array {prefix}.b{i} has shape {b.shape}, expected ({width},)")
        weights.append(w.copy())
        biases.append(b.copy())
    if width != out_dim:
        raise ValueError(f"checkpoint array {prefix}.w{n_layers - 1} has {width} outputs, expected {out_dim}")
    return nn.Mlp(weights=weights, biases=biases)


def actor_critic_arrays(model: ActorCritic) -> tuple[list[tuple[str, np.ndarray]], dict]:
    """Named arrays and manifest dims of an actor-critic, for any checkpoint kind."""
    named = _named_mlp_arrays("actor", model.actor) + [("log_std", model.log_std)]
    named += _named_mlp_arrays("critic", model.critic)
    meta = {
        "obs_dim": model.obs_dim,
        "act_dim": model.act_dim,
        "critic_in_dim": model.critic_in_dim,
        "actor_layers": len(model.actor.weights),
        "critic_layers": len(model.critic.weights),
    }
    return named, meta


def actor_critic_from_arrays(arrays: dict, meta: dict) -> ActorCritic:
    """Inverse of `actor_critic_arrays`; every array's shape is checked
    against the manifest dims first (ValueError naming the array)."""
    obs_dim, act_dim, critic_in_dim = meta["obs_dim"], meta["act_dim"], meta["critic_in_dim"]
    actor = _mlp_from_arrays("actor", arrays, meta["actor_layers"], obs_dim, act_dim)
    critic = _mlp_from_arrays("critic", arrays, meta["critic_layers"], critic_in_dim, 1)
    log_std = arrays["log_std"]
    if log_std.shape != (act_dim,):
        raise ValueError(f"checkpoint array log_std has shape {log_std.shape}, expected ({act_dim},)")
    return ActorCritic(actor, log_std.copy(), critic, obs_dim, act_dim, critic_in_dim)


class RunDir:
    """The one writer of a run directory, which it makes at `path`, and of its
    formats: checkpoint archives, CSV tables in the csv module's dialect
    (CRLF line ends) and UTF-8 text. `RunDir(None)` writes nothing."""

    def __init__(self, path):
        self.path = path
        if path is not None:
            os.makedirs(path, exist_ok=True)

    def archive(self, name: str, model, env_cfg: EnvConfig, cfg: PpoConfig, fields: dict):
        """Write `model` to the archive `name` and return its path (None
        without a directory). An `ActorCritic` and a `teammate.NahtModel`
        give their kind, named arrays and dims through `checkpoint_arrays`;
        the manifest adds the pursuer and evader counts of `env_cfg`
        (observation rows of other counts can have the same length, so
        `evalkit.resolve_policy` checks these too), the fields of `cfg` (the
        PPO settings the model trained with) as `ppo`, and then the run's
        `fields`."""
        if self.path is None:
            return None
        kind, named, meta = model.checkpoint_arrays()
        players = env_cfg.players
        extra = {**meta, "num_p": players.num_p, "num_e": players.num_e, "ppo": asdict(cfg), **fields}
        path = os.path.join(self.path, name)
        nn.save_arrays(path, kind, named, extra=extra)
        return path

    def csv(self, name: str, fields, rows) -> None:
        """`rows` (dicts) under the header `fields`; a missing field is an empty cell."""
        if self.path is not None:
            with open(os.path.join(self.path, name), "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields)
                writer.writeheader()
                writer.writerows({k: row.get(k, "") for k in fields} for row in rows)

    def text(self, name: str, text: str) -> None:
        """`text` as it is, UTF-8 with no newline translation."""
        if self.path is not None:
            with open(os.path.join(self.path, name), "w", newline="", encoding="utf-8") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# GAE
# ---------------------------------------------------------------------------

def compute_gae(rewards, values, terminals, gamma: float, lam: float, bootstrap_value=0.0):
    """Standard recursive GAE over (possibly multi-episode) sequences.

    `rewards` and `terminals` are (T,) or (T, n_envs): one step sequence per
    env, each a run of episodes. `values` has their shape plus optional
    trailing slot axes, such as (T, n_envs, n_slots); the slots share their
    env's rewards and terminals. `terminals[t]` marks that transition t ended
    its episode; the bootstrap value (a scalar or one per env and slot) is
    used for the value of the state after the final transition when that
    transition is non-terminal. Every step is elementwise float64 in the
    order of the scalar recursion, so each env's and slot's result is bitwise
    the one of a separate (T,) call.
    """
    values = np.asarray(values, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    terminals = np.asarray(terminals, dtype=np.float64)
    if terminals.shape != rewards.shape or values.shape[: rewards.ndim] != rewards.shape:
        raise ValueError(f"rewards {rewards.shape}, values {values.shape} and terminals {terminals.shape} do not match")
    per_step = rewards.shape + (1,) * (values.ndim - rewards.ndim)  # broadcast over slots
    rewards = rewards.reshape(per_step)
    nonterminal = 1.0 - terminals.reshape(per_step)
    bootstrap = np.broadcast_to(np.asarray(bootstrap_value, dtype=np.float64), values.shape[1:])
    next_values = np.concatenate([values[1:], bootstrap[None]])
    deltas = rewards + gamma * next_values * nonterminal - values
    decay = np.broadcast_to(gamma * lam * nonterminal, values.shape)
    # the recursion runs backwards over Python floats (IEEE float64 too), one
    # list of env slots per step: on a few slots that beats per-step numpy calls
    n_slots = int(np.prod(values.shape[1:]))
    last = [0.0] * n_slots
    reversed_adv = []
    for delta, coef in zip(deltas.reshape(-1, n_slots).tolist()[::-1], decay.reshape(-1, n_slots).tolist()[::-1]):
        last = [d + c * a for d, c, a in zip(delta, coef, last)]
        reversed_adv.append(last)
    advantages = np.array(reversed_adv[::-1]).reshape(values.shape)
    return advantages, advantages + values


# ---------------------------------------------------------------------------
# PPO update
# ---------------------------------------------------------------------------

@dataclass
class PpoBatch:
    actor_in: np.ndarray  # (B, actor input dim)
    critic_in: np.ndarray  # (B, critic input dim)
    actions: np.ndarray  # (B, act_dim)
    old_logp: np.ndarray  # (B,)
    advantages: np.ndarray  # (B,)
    returns: np.ndarray  # (B,)

    def __len__(self) -> int:
        return self.actor_in.shape[0]


def ppo_loss_and_grads(model: ActorCritic, actor_in, critic_in, actions, old_logp, adv, ret, cfg: PpoConfig, *, input_grad: bool):
    """Clipped-surrogate loss, parameter gradients, and d(loss)/d(actor input).

    Returns (grads aligned with model.params(), dactor_in, diagnostics).
    dactor_in is None with `input_grad=False`, which skips the actor's
    first-layer input product; the other outputs keep their bits.
    """
    B = actor_in.shape[0]
    mean, a_cache = nn.mlp_forward(model.actor, actor_in)
    sigma = np.exp(nn.clamp_log_std(model.log_std))
    logp = nn.gaussian_log_prob(mean, model.log_std, actions)
    # libm's exp per element: numpy's float64 exp takes other bits at other SIMD levels
    ratio = np.array(list(map(math.exp, (logp - old_logp).tolist())))
    surr1 = ratio * adv
    clipped_ratio = np.clip(ratio, 1.0 - CLIP_RATIO, 1.0 + CLIP_RATIO)
    surr2 = clipped_ratio * adv
    pi_loss = -float(np.mean(np.minimum(surr1, surr2)))

    in_range = (ratio >= 1.0 - CLIP_RATIO) & (ratio <= 1.0 + CLIP_RATIO)
    active = (surr1 <= surr2) | in_range
    dlogp = -(adv * ratio * active) / B

    z = (actions - mean) / sigma
    dmean = dlogp[:, None] * z / sigma
    dlog_std_pi = np.sum(dlogp[:, None] * (z * z - 1.0), axis=0)
    entropy = nn.gaussian_entropy(model.log_std)
    dlog_std = (dlog_std_pi - cfg.entropy_coef) * nn.log_std_grad_mask(model.log_std)
    actor_grads, dactor_in = nn.mlp_backward(model.actor, a_cache, dmean, input_grad=input_grad)

    v, c_cache = nn.mlp_forward(model.critic, critic_in)
    v = v[:, 0]
    v_err = v - ret
    v_loss = float(np.mean(v_err**2))
    dv = (VALUE_COEF * 2.0 * v_err / B)[:, None]
    critic_grads, _ = nn.mlp_backward(model.critic, c_cache, dv.astype(v.dtype), input_grad=False)

    grads = actor_grads + [dlog_std.astype(model.log_std.dtype)] + critic_grads
    diag = {
        "pi_loss": pi_loss,
        "v_loss": v_loss,
        "entropy": float(entropy),
        "clip_frac": float(np.mean(np.abs(ratio - 1.0) > CLIP_RATIO)),
        "approx_kl": float(np.mean(old_logp - logp)),
        "loss": pi_loss + VALUE_COEF * v_loss - cfg.entropy_coef * float(entropy),
        "ratio": ratio,
    }
    return grads, dactor_in, diag


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def minibatch_epochs(model, opt: nn.AdamState, n_rows: int, cfg: PpoConfig, rng: np.random.Generator, loss_and_grads):
    """The update loop of every trainer: cfg.epochs shuffled passes of Adam
    steps over minibatches of a batch of `n_rows` rows.

    `loss_and_grads(rows)` returns (grads aligned with model.params(),
    diagnostics) for one minibatch of row indices. Returns the mean of each
    scalar diagnostic.
    """
    if n_rows != cfg.batch:
        raise ValueError(f"batch size {n_rows} != cfg.batch {cfg.batch}")
    idx = np.arange(n_rows)
    diags = []
    for _epoch in range(cfg.epochs):
        rng.shuffle(idx)
        for start in range(0, n_rows, cfg.minibatch):
            grads, diag = loss_and_grads(idx[start : start + cfg.minibatch])
            if not np.isfinite(diag["loss"]):
                raise FloatingPointError("non-finite loss")
            nn.adam_step(opt, model.params(), grads)
            diags.append(diag)
    return {k: float(np.mean([d[k] for d in diags])) for k, v in diags[0].items() if np.ndim(v) == 0}


def ppo_update(model: ActorCritic, opt: nn.AdamState, batch: PpoBatch, cfg: PpoConfig, rng: np.random.Generator):
    """Run cfg.epochs of shuffled minibatch updates over one batch."""
    adv = normalize_advantages(batch.advantages)

    def loss_and_grads(mb):
        grads, _, diag = ppo_loss_and_grads(
            model,
            batch.actor_in[mb],
            batch.critic_in[mb],
            batch.actions[mb],
            batch.old_logp[mb],
            adv[mb],
            batch.returns[mb],
            cfg,
            input_grad=False,
        )
        return grads, diag

    return minibatch_epochs(model, opt, len(batch), cfg, rng, loss_and_grads)


# ---------------------------------------------------------------------------
# Slot policies (runtime behavior of non-learner pursuer slots)
#
# Every slot policy has the same three members. `begin_episode(rng)`, called
# once per episode and slot, in slot order, with the episode's policy rng,
# returns that slot's episode state: its own rng, a step record, or None.
# `act(seats)` steers: `seats` holds one (episode, slots, states) triple per
# running episode, the `Episode` (its `sim.WorldState` `state` and `obs`, the
# step's observation rows, one per pursuer), the slots that the policy
# drives there and their episode states, and `act` returns one steer per
# slot, in that order. `needs_obs` says whether `act` reads `obs`; when no
# slot of an episode does, its steps build no observations and `obs` is
# None. A policy keeps no per-episode state of its own, so one object can
# fill several slots of several episodes, and `act` reads its current model.
# The one episode step, `step_episodes` (eval, HOLA, the self-play score and
# the rollout collectors), calls each policy once per step for all its slots
# in all the running episodes. A slot without a policy (None) is the
# caller's: a collector sets its learner slots' actions before each step.
# ---------------------------------------------------------------------------

def episode_rng(rng: np.random.Generator) -> np.random.Generator:
    """A slot's own rng for one episode, seeded by one draw from `rng`."""
    return np.random.default_rng(rng.integers(0, 2**63))


@dataclass(frozen=True)
class ScriptedSlotPolicy:
    """A scripted pursuer's team kernel (`scripted.pursuer_policy`), which
    steers from the world's rows: one kernel call per episode for all its
    slots there. Policies of one kind are equal, so an episode gives all
    its slots of that kind to one of them."""

    policy_id: str
    needs_obs = False

    def __post_init__(self):
        scripted.pursuer_policy(self.policy_id)  # KeyError for an unknown kind

    def begin_episode(self, rng: np.random.Generator) -> None:
        return None

    def act(self, seats) -> list[float]:
        kernel = scripted.pursuer_policy(self.policy_id)
        steers = []
        for ep, slots, _ in seats:
            world = ep.state
            steers += kernel(world.cfg, world.pursuers, world.evaders, world.captured, slots)
        return steers


class RandomSlotPolicy:
    """Uniform random steering from each slot's own episode rng."""

    needs_obs = False

    def begin_episode(self, rng: np.random.Generator) -> np.random.Generator:
        return episode_rng(rng)

    def act(self, seats) -> list[float]:
        return [float(rng.uniform(-1.0, 1.0)) for _, _, rngs in seats for rng in rngs]


class NetSlotPolicy:
    """Frozen actor-critic policy driving pursuer slots: the action mean
    when deterministic, else a sample from each slot's episode rng."""

    needs_obs = True

    def __init__(self, model: ActorCritic, deterministic: bool = True):
        self.model = model
        self.deterministic = deterministic

    def begin_episode(self, rng: np.random.Generator) -> np.random.Generator | None:
        if self.deterministic:
            # the draw that seeds a sampling slot's rng happens either way, so
            # that the episode rng's stream does not depend on whether a slot samples
            rng.integers(0, 2**63)
            return None
        return episode_rng(rng)

    def act(self, seats) -> list[float]:
        """Deterministic: the action means of the k slots' observation rows
        from one stacked (k, 1, d) forward, each with the bits of its row
        alone. Else one sample per slot, from its row and its rng."""
        if self.deterministic:
            rows = np.stack([ep.obs[i] for ep, slots, _ in seats for i in slots])
            return self.model.action_mean(rows[:, None, :])[:, 0, 0].tolist()
        steers = []
        for ep, slots, rngs in seats:
            for i, rng in zip(slots, rngs):
                action, _ = self.model.act(ep.obs[i : i + 1], rng)
                steers.append(float(action[0, 0]))
        return steers


class Episode:
    """One episode in progress from `start`, the (state, observation rows)
    pair of a `sim.reset`, which it steps in place; stepped by
    `step_episodes`.

    Each slot holds a policy, whose episode state begins from `rng` in slot
    order, or None: the caller owns that slot and sets its action in
    `actions` before each step. `policies` holds one (policy, slots, states)
    triple per distinct policy, in the order the policies first appear:
    equal policies (scripted ones of one kind) share one. The episode
    observes when it has a caller-owned slot or a policy that reads the rows
    (`needs_obs`). `log` records its steps.
    """

    __slots__ = ("state", "obs", "policies", "observe", "actions", "episode_return", "log")

    def __init__(self, start: tuple[sim.WorldState, np.ndarray], slot_policies, rng: np.random.Generator, log=None):
        self.state, self.obs = start
        groups = {}
        for i, pol in enumerate(slot_policies):
            if pol is not None:
                _, slots, states = groups.setdefault(pol, (pol, [], []))
                slots.append(i)
                states.append(pol.begin_episode(rng))
        self.policies = list(groups.values())
        self.observe = any(pol is None or pol.needs_obs for pol in slot_policies)
        self.actions = np.zeros(len(slot_policies))
        self.episode_return = 0.0
        self.log = log
        if log is not None:
            log.record_reset(self.state)


def step_episodes(episodes: list[Episode]) -> list[sim.StepOutcome]:
    """One step of running episodes side by side, their caller-owned slots'
    actions already set; the outcomes, in order.

    Each policy object acts once, for its seats in all the episodes (in
    episode order), and then `sim.step_many` steps each episode (building
    the rows of the observing ones in one pass). Episodes share no rng or
    state, so each plays as it would alone.
    """
    seats = {}  # by identity: hashing a scripted policy per seat and step costs more
    for ep in episodes:
        for pol, slots, states in ep.policies:
            key = id(pol)
            if key in seats:
                seats[key][1].append((ep, slots, states))
            else:
                seats[key] = (pol, [(ep, slots, states)])
    for pol, pol_seats in seats.values():
        steers = iter(pol.act(pol_seats))
        for ep, slots, _ in pol_seats:
            actions = ep.actions
            for i in slots:
                actions[i] = next(steers)
    states, step_actions = [ep.state for ep in episodes], [ep.actions for ep in episodes]
    outcomes = sim.step_many(states, step_actions, [ep.observe for ep in episodes])
    for ep, out in zip(episodes, outcomes):
        if ep.log is not None:
            ep.log.record_step(ep.state, ep.actions, out)
        ep.episode_return += out.reward
        ep.obs = out.observations
    return outcomes


class UniformTeammates:
    """Each uncontrolled slot draws independently and uniformly from a pool."""

    def __init__(self, pool, n_slots: int):
        if not pool:
            raise ValueError("empty teammate pool")
        self.pool = list(pool)
        self.n_slots = n_slots

    def sample(self, rng: np.random.Generator):
        return [self.pool[int(rng.integers(0, len(self.pool)))] for _ in range(self.n_slots)]


# ---------------------------------------------------------------------------
# Rollout collection
# ---------------------------------------------------------------------------

@dataclass
class RolloutStats:
    episode_returns: list[float] = field(default_factory=list)
    episode_lengths: list[int] = field(default_factory=list)
    episode_terminals: list[str] = field(default_factory=list)

    def extend(self, other: "RolloutStats") -> None:
        self.episode_returns += other.episode_returns
        self.episode_lengths += other.episode_lengths
        self.episode_terminals += other.episode_terminals


class RolloutCollector:
    """Streams learner transitions from `n_envs` episodes side by side into
    PPO batches.

    Learner slots are [0, num_ctrl); the remaining slots are filled by the
    teammate sampler each episode. With `central=True` the critic consumes the
    centralized observation (all learner observations plus global evader
    positions); otherwise each slot's critic reads that slot's observation.
    Each env's episode in progress is an `Episode` whose learner slots the
    collector owns; `step_episodes` acts for the teammates and steps them
    all. `n_envs` is the largest divisor of `ROLLOUT_ENVS` that divides the
    env steps of a batch, `cfg.batch // num_ctrl`, into `ROLLOUT_MIN_STEPS`
    or more per env.
    Subclasses feed extra actor inputs and record extra per-step rows through
    `_actor_input` and `_step`.
    """

    def __init__(
        self,
        env_cfg: EnvConfig,
        model: ActorCritic,
        cfg: PpoConfig,
        rng: np.random.Generator,
        teammates=None,
        central: bool = False,
    ):
        self.env_cfg = env_cfg
        self.model = model
        self.cfg = cfg
        self.rng = rng
        self.teammates = teammates
        self.central = central
        self.n_learners = env_cfg.players.num_ctrl
        if self.n_learners < 1:
            raise ValueError("need at least one learner slot")
        if cfg.batch % self.n_learners:
            raise ValueError(f"batch {cfg.batch} is not a multiple of the {self.n_learners} learner slots")
        if env_cfg.players.num_unctrl > 0 and teammates is None:
            raise ValueError("uncontrolled slots present but no teammate sampler given")
        steps = cfg.batch // self.n_learners
        common = math.gcd(ROLLOUT_ENVS, steps)
        self.n_envs = max(
            d for d in range(1, common + 1) if common % d == 0 and (d == 1 or steps // d >= ROLLOUT_MIN_STEPS)
        )
        self.episodes: list[Episode | None] = [None] * self.n_envs

    # -- episode plumbing ---------------------------------------------------

    def _begin_episode(self, env: int) -> None:
        # the rollout rng draws the env seed, then the teammates, then their actors' seeds
        seed = int(self.rng.integers(0, 2**63))
        mates = self.teammates.sample(self.rng) if self.env_cfg.players.num_unctrl > 0 else []
        self.episodes[env] = Episode(sim.reset(self.env_cfg, seed), [None] * self.n_learners + mates, self.rng)

    def _critic(self, learner_obs):
        """(critic input rows, value per learner row) of the (n_envs * n,
        obs) learner rows in the episodes' current states."""
        if not self.central:
            return learner_obs, self.model.values(learner_obs)
        n = self.n_learners
        critic_in = np.stack(
            [sim.central_observation(ep.state, learner_obs[e * n : (e + 1) * n]) for e, ep in enumerate(self.episodes)]
        )
        values = self.model.values(critic_in)
        return np.repeat(critic_in, n, axis=0), np.repeat(values, n)

    def _actor_input(self, learner_obs):
        """Actor input for this step; the batch keeps the raw observations."""
        return learner_obs

    def _step(self) -> list[sim.StepOutcome]:
        """Step the episodes once the learner slots' actions are set."""
        return step_episodes(self.episodes)

    def collect(self, n_transitions: int) -> tuple[PpoBatch, RolloutStats]:
        """Gather at least n_transitions learner transitions (multiple of
        n_envs * n_learners), running whole steps of every env and
        bootstrapping each cut episode. The rows of a step are the envs'
        in order, each env's learner slots in order."""
        n, n_envs = self.n_learners, self.n_envs
        stats = RolloutStats()
        obs_rows, critic_rows, act_rows, logp_rows = [], [], [], []
        value_rows, reward_rows, term_rows = [], [], []
        steps_needed = -(-n_transitions // (n * n_envs))

        for e, ep in enumerate(self.episodes):
            if ep is None or ep.state.terminal != sim.RUNNING:
                self._begin_episode(e)

        for step_i in range(steps_needed):
            episodes = self.episodes
            learner_obs = np.concatenate([ep.obs[:n] for ep in episodes])
            actions, logp = self.model.act(self._actor_input(learner_obs), self.rng)
            critic_step, value_step = self._critic(learner_obs)
            for e, ep in enumerate(episodes):
                ep.actions[:n] = actions[e * n : (e + 1) * n, 0]
            outcomes = self._step()

            obs_rows.append(learner_obs)
            critic_rows.append(critic_step)
            act_rows.append(actions)
            logp_rows.append(logp)
            value_rows.append(value_step)
            reward_rows.append([out.reward for out in outcomes])
            term_rows.append([1.0 if out.terminal != sim.RUNNING else 0.0 for out in outcomes])

            for e, (ep, out) in enumerate(zip(episodes, outcomes)):
                if out.terminal != sim.RUNNING:
                    stats.episode_returns.append(ep.episode_return)
                    stats.episode_lengths.append(ep.state.step)
                    stats.episode_terminals.append(out.terminal)
                    if step_i + 1 < steps_needed:
                        self._begin_episode(e)

        # One GAE pass over all envs, episodes and slots; each env bootstraps each slot with its
        # value of the current state, which counts only for a cut episode: at a terminal (an
        # episode that ended inside the batch or at its end) the next value times nonterminal = 0
        # may be -0.0 where a pass per episode bootstrapped +0.0, and the reward it is added to is
        # never -0.0 (`sim.step`'s reward starts from +0.0), so the bits agree.
        bootstrap = self._critic(np.concatenate([ep.obs[:n] for ep in self.episodes]))[1].reshape(n_envs, n)
        values = np.stack(value_rows).reshape(steps_needed, n_envs, n)
        advantages, returns = compute_gae(reward_rows, values, term_rows, GAMMA, GAE_LAMBDA, bootstrap)

        batch = PpoBatch(
            actor_in=np.concatenate(obs_rows, axis=0),
            critic_in=np.concatenate(critic_rows, axis=0),
            actions=np.concatenate(act_rows, axis=0),
            old_logp=np.concatenate(logp_rows, axis=0),
            advantages=advantages.reshape(-1),
            returns=returns.reshape(-1),
        )
        return batch, stats


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: ActorCritic
    metrics: list[dict] = field(default_factory=list)
    selfplay_suc: float | None = None
    timings: list[dict] = field(default_factory=list)  # one `Learner.step` timing row per update


SELFPLAY_EVAL_EPISODES = 50

METRIC_FIELDS = (
    "step",
    "update",
    "ep_return_mean",
    "suc",
    "pi_loss",
    "v_loss",
    "entropy",
    "clip_frac",
    "approx_kl",
    "recon_loss",
)


#: Columns of the timing CSVs: wall seconds of each update's rollout and PPO
#: update, and the env steps of its rollout (all `n_envs` envs) per rollout second.
TIMING_FIELDS = ("update", "rollout_s", "update_s", "env_steps", "env_steps_per_s")


def _metrics_row(step, update, window_stats, diag) -> dict:
    returns = window_stats.episode_returns[-50:]
    terms = window_stats.episode_terminals[-50:]
    return {
        "step": step,
        "update": update,
        "ep_return_mean": float(np.mean(returns)) if returns else 0.0,
        "suc": 100.0 * sum(t == sim.SUCCESS for t in terms) / len(terms) if terms else 0.0,
        "pi_loss": diag["pi_loss"],
        "v_loss": diag["v_loss"],
        "entropy": diag["entropy"],
        "clip_frac": diag["clip_frac"],
        "approx_kl": diag["approx_kl"],
        "recon_loss": diag.get("recon_loss", 0.0),
    }


def evaluate_selfplay_suc(model: ActorCritic, env_cfg: EnvConfig, seed: int) -> float:
    """Deterministic self-play success rate over `SELFPLAY_EVAL_EPISODES`
    episodes, recorded in checkpoint manifests: `NetSlotPolicy(model)` in
    every slot, played by `evalkit.play_episodes` with eval's one-row bits.
    """
    from . import evalkit  # evalkit imports rl at module level

    sp_cfg = with_control_split(env_cfg, env_cfg.players.num_p, 0)
    rng = substream(seed, "selfplay-eval")
    team = [NetSlotPolicy(model)] * sp_cfg.players.num_p
    episodes = [(team, int(rng.integers(0, 2**63))) for _ in range(SELFPLAY_EVAL_EPISODES)]
    wins = sum(rec.terminal == sim.SUCCESS for rec in evalkit.play_episodes(sp_cfg, episodes))
    return 100.0 * wins / SELFPLAY_EVAL_EPISODES


class Learner:
    """One model's PPO state across updates; `step` runs one update.

    `collector` streams the batches that `model` learns from;
    `update(model, opt, batch, cfg, rng)` runs one update and returns its
    diagnostics (default: `ppo_update`, looked up at call time so that a
    patched `rl.ppo_update` is the one that runs). `window` holds every
    episode the collector ended, `metrics` one row per update and `timings`
    its `TIMING_FIELDS` row.
    """

    def __init__(self, collector: RolloutCollector, model, cfg: PpoConfig, rng: np.random.Generator, update=None):
        cfg.validate()
        self.collector = collector
        self.model = model
        self.cfg = cfg
        self.rng = rng
        self.update = update
        self.opt = nn.adam_init(model.params(), lr=cfg.lr)
        self.window = RolloutStats()
        self.metrics: list[dict] = []
        self.timings: list[dict] = []

    @property
    def steps(self) -> int:
        """Learner transitions trained on so far."""
        return len(self.metrics) * self.cfg.batch

    def step(self) -> RolloutStats:
        """One update on a fresh batch; returns the episodes the batch ended."""
        t0 = time.perf_counter()
        batch, stats = self.collector.collect(self.cfg.batch)
        t1 = time.perf_counter()
        self.window.extend(stats)
        diag = (self.update or ppo_update)(self.model, self.opt, batch, self.cfg, self.rng)
        t2 = time.perf_counter()
        env_steps = self.cfg.batch // self.collector.n_learners
        self.timings.append(
            {
                "update": len(self.metrics),
                "rollout_s": t1 - t0,
                "update_s": t2 - t1,
                "env_steps": env_steps,
                "env_steps_per_s": env_steps / (t1 - t0),
            }
        )
        self.metrics.append(_metrics_row(self.steps + self.cfg.batch, len(self.metrics), self.window, diag))
        return stats


def train_loop(
    collector: RolloutCollector, model, cfg: PpoConfig, seed: int, update=None, run=RunDir(None), ckpt_prefix="ckpt"
) -> TrainResult:
    """The PPO outer loop: `Learner.step` until `cfg.total_steps`. Through
    `run` it writes a periodic checkpoint after every max(1, n_updates // 5)
    updates (one per update below 10 updates, and 5 to 9 of them from 10
    updates on), and `metrics.csv` and `timing.csv` at the end.

    The budget rounds up to whole batches: it runs ceil(total_steps / batch)
    updates, at least one, so `total_steps=64` with a 1024-transition batch
    trains 1024 transitions."""
    learner = Learner(collector, model, cfg, substream(seed, "update"), update)
    n_updates = max(1, int(np.ceil(cfg.total_steps / cfg.batch)))
    ckpt_every = max(1, n_updates // 5)
    for i in range(n_updates):
        learner.step()
        if (i + 1) % ckpt_every == 0:
            name = f"{ckpt_prefix}_{learner.steps:09d}.zip"
            run.archive(name, model, collector.env_cfg, cfg, {"step": learner.steps})
    run.csv("metrics.csv", METRIC_FIELDS, learner.metrics)
    run.csv("timing.csv", TIMING_FIELDS, learner.timings)
    return TrainResult(model=model, metrics=learner.metrics, timings=learner.timings)


def finish_training(
    model, run: RunDir, env_cfg: EnvConfig, cfg: PpoConfig, fields: dict,
    score_seed: int | None = None, name: str = "final.zip",
) -> float | None:
    """The end of every trainer: with a `score_seed`, score the model's
    `evaluate_selfplay_suc` on `env_cfg` and record it as the manifest's
    `selfplay_suc`, then save the model as the archive `name` of `run` with
    `fields`. Returns the score, None unscored."""
    score = None
    if score_seed is not None:
        score = evaluate_selfplay_suc(model, env_cfg, score_seed)
        fields = {**fields, "selfplay_suc": score}
    run.archive(name, model, env_cfg, cfg, fields)
    return score


def ippo_selfplay_unscored(cfg: PpoConfig, env_cfg: EnvConfig, seed: int, run=RunDir(None)) -> TrainResult:
    """Self-play IPPO: one shared actor-critic drives all pursuer slots.

    Trains and writes the periodic checkpoints, but neither scores the result
    nor saves `final.zip`; `ippo_selfplay_train` does both.
    """
    sp_cfg = with_control_split(env_cfg, env_cfg.players.num_p, 0)
    model = init_actor_critic(sim.obs_length(sp_cfg), sim.obs_length(sp_cfg), cfg, substream(seed, "init"))
    collector = RolloutCollector(sp_cfg, model, cfg, substream(seed, "rollout"))
    return train_loop(collector, model, cfg, seed, run=run, ckpt_prefix="sp")


def ippo_selfplay_train(cfg: PpoConfig, env_cfg: EnvConfig, seed: int, out_dir=None) -> TrainResult:
    """Self-play IPPO, scored by `evaluate_selfplay_suc` and saved as `final.zip`."""
    run = RunDir(out_dir)
    result = ippo_selfplay_unscored(cfg, env_cfg, seed, run=run)
    result.selfplay_suc = finish_training(result.model, run, env_cfg, cfg, {"algo": "sp", "seed": seed}, seed)
    return result


def mappo_train(
    cfg: PpoConfig,
    env_cfg: EnvConfig,
    seed: int,
    teammate_pool=None,
    out_dir=None,
) -> TrainResult:
    """MAPPO: shared actor, one centralized critic over all learner observations.

    With num_unctrl == 0 this is centralized-critic self-play; otherwise the
    uncontrolled slots draw uniformly from `teammate_pool` each episode.
    """
    n_learners = env_cfg.players.num_ctrl
    teammates = None
    if env_cfg.players.num_unctrl > 0:
        teammates = UniformTeammates(teammate_pool, env_cfg.players.num_unctrl)
    critic_dim = sim.central_obs_length(env_cfg, n_learners)
    model = init_actor_critic(sim.obs_length(env_cfg), critic_dim, cfg, substream(seed, "init"))
    collector = RolloutCollector(env_cfg, model, cfg, substream(seed, "rollout"), teammates=teammates, central=True)
    run = RunDir(out_dir)
    result = train_loop(collector, model, cfg, seed, run=run, ckpt_prefix="mappo")
    result.selfplay_suc = finish_training(model, run, env_cfg, cfg, {"algo": "mappo", "seed": seed}, seed)
    return result


# ---------------------------------------------------------------------------
# Population-based training
# ---------------------------------------------------------------------------

@dataclass
class PbtMember:
    """A PBT member: its learner (model, cfg with the member's lr and
    entropy_coef, optimizer, metrics) and the returns that rank it."""

    learner: Learner
    recent_returns: list[float] = field(default_factory=list)


@dataclass
class PbtResult:
    members: list[PbtMember]
    exploit_events: list[dict]


def pbt_train(
    pop_size: int,
    cfg: PpoConfig,
    env_cfg: EnvConfig,
    seed: int,
    exploit_interval: int | None = 50_000,
    out_dir=None,
) -> PbtResult:
    """Population-based training over IPPO learners with cross-member rollouts.

    Members occupy the env's learner slots; uncontrolled slots (if any) are
    filled per episode by uniform draws from the population, each acting
    with a snapshot copy of its member's model (`_pbt_members`). Each round
    first copies every member's parameters into its snapshot, then steps
    every member's `Learner` once: teammates act with the round-start
    parameters, so no member sees another's update of the same round. Every
    `exploit_interval` learner steps the bottom quartile copies parameters
    from a uniformly chosen top-quartile member and perturbs lr and
    entropy_coef by x0.8 or x1.25. With an `out_dir`, member i is scored on
    its own seed, `substream_seed_int(seed, "member", i)`, and ends as
    `pbt_member{i}.zip`, `metrics_member{i}.csv` and `timing_member{i}.csv`
    there.
    """
    if pop_size < 2:
        raise ValueError("pop_size must be >= 2")
    members, snapshot = _pbt_members(pop_size, cfg, env_cfg, seed)
    exploit_rng = substream(seed, "exploit")
    exploit_events: list[dict] = []
    next_exploit = exploit_interval if exploit_interval else None

    while min(m.learner.steps for m in members) < cfg.total_steps:
        snapshot()
        for member in members:
            member.recent_returns = (member.recent_returns + member.learner.step().episode_returns)[-20:]
        if next_exploit is not None and min(m.learner.steps for m in members) >= next_exploit:
            exploit_events += _pbt_exploit(members, exploit_rng)
            next_exploit += exploit_interval

    if out_dir is not None:
        run = RunDir(out_dir)
        for i, member in enumerate(members):
            learner, fields = member.learner, {"algo": "pbt", "member": i}
            score_seed = substream_seed_int(seed, "member", i)
            finish_training(learner.model, run, env_cfg, learner.cfg, fields, score_seed, f"pbt_member{i}.zip")
            run.csv(f"metrics_member{i}.csv", METRIC_FIELDS, learner.metrics)
            run.csv(f"timing_member{i}.csv", TIMING_FIELDS, learner.timings)
    return PbtResult(members=members, exploit_events=exploit_events)


def _pbt_members(pop_size: int, cfg: PpoConfig, env_cfg: EnvConfig, seed: int):
    """(members, snapshot) of a PBT run: `snapshot()` copies every member's
    parameters, in place, into the model copy that the teammate pool acts
    with (there is none without uncontrolled slots).

    Each member keeps one collector for the whole run, so that its rollout
    stream and its unfinished episodes carry over from round to round. The
    collectors share one teammate pool, one stochastic policy per member.
    """
    obs_dim = sim.obs_length(env_cfg)
    models = [init_actor_critic(obs_dim, obs_dim, cfg, substream(seed, "init", i)) for i in range(pop_size)]
    snapshots, teammates = [], None
    if env_cfg.players.num_unctrl > 0:
        snapshots = [model.copy() for model in models]
        pool = [NetSlotPolicy(snap, deterministic=False) for snap in snapshots]
        teammates = UniformTeammates(pool, env_cfg.players.num_unctrl)
    members = []
    for i, model in enumerate(models):
        collector = RolloutCollector(env_cfg, model, cfg, substream(seed, "rollout", i), teammates=teammates)
        members.append(PbtMember(Learner(collector, model, cfg, substream(seed, "update", i))))

    def snapshot() -> None:
        for snap, model in zip(snapshots, models):
            for mine, theirs in zip(snap.params(), model.params()):
                mine[...] = theirs

    return members, snapshot


def _pbt_exploit(members: list[PbtMember], rng: np.random.Generator) -> list[dict]:
    """Bottom quartile copies parameters from a uniform top-quartile member.

    The copy is in place, so the member's collector acts with the copied
    parameters, and the teammate pool from the next round's snapshot on.
    """
    k = len(members) // 4
    if k < 1:
        return []
    score = [float(np.mean(m.recent_returns)) if m.recent_returns else -np.inf for m in members]
    order = sorted(range(len(members)), key=lambda i: score[i])
    bottoms, tops = order[:k], order[-k:]
    events = []
    for b in bottoms:
        src = tops[int(rng.integers(0, len(tops)))]
        member, source = members[b].learner, members[src].learner
        for mine, theirs in zip(member.model.params(), source.model.params()):
            mine[...] = theirs
        lr = source.cfg.lr * float(rng.choice([0.8, 1.25]))
        entropy_coef = source.cfg.entropy_coef * float(rng.choice([0.8, 1.25]))
        member.cfg = replace(member.cfg, lr=lr, entropy_coef=entropy_coef)
        member.opt = nn.adam_init(member.model.params(), lr=lr)
        members[b].recent_returns = list(members[src].recent_returns)
        events.append({"target": b, "source": src, "lr": lr, "entropy_coef": entropy_coef})
    return events
