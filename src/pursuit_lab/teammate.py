"""Teammate modeling for ad-hoc teamwork: history encoder, action-distribution
decoder, and the NAHT-D trainer (centralized-critic PPO + embedding input +
KL reconstruction loss).

The encoder reads each learner's record of its previous step (zeros at
episode start) and emits a fixed 16-dim team embedding that is concatenated
onto the actor input. Three branch networks (evader states, self state + own
action, teammate relative positions) are mixed by learned softmax weights.
The relative-position branch applies one shared network per teammate row and
mean-pools, so the embedding is invariant to teammate slot order;
consistently, the decoder predicts one shared action distribution that is
scored against every uncontrolled teammate's observed action (a
permutation-invariant embedding cannot identify slots, so per-slot distinct
predictions would be unidentifiable).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn, rl, sim
from .config import EnvConfig
from .seeding import substream

EMBED_DIM = 16
RECON_TARGET_STD = 0.1
RECON_BETA = 0.1


@dataclass(frozen=True)
class WindowLayout:
    """Flat layout of one step record, the encoder's input.

    [per-evader triples | own pose (x, y, heading) | nearest obstacle triple
    | own action | per-teammate triples]. The encoder reads the record of the
    learner's previous step, which is all zeros at episode start.
    """

    num_e: int
    num_p: int

    @property
    def evader_len(self) -> int:
        return 3 * self.num_e

    @property
    def self_len(self) -> int:
        return 3 + 3 + 1  # pose, obstacle triple, own action

    @property
    def rel_len(self) -> int:
        return 3 * (self.num_p - 1)

    @property
    def n_teammates(self) -> int:
        return self.num_p - 1

    @property
    def step_len(self) -> int:
        return self.evader_len + self.self_len + self.rel_len

    @property
    def branch_in_dims(self) -> tuple[int, int, int]:
        """Input widths of the evader, self and relative-position branches."""
        return self.evader_len, self.self_len, 3

    def step_record(self, obs_rows: np.ndarray, poses, site, actions) -> np.ndarray:
        """The (k, step_len) records of k completed steps of learners in
        arenas of `site`: their (k, obs_len) observation rows, their (k, 3)
        poses (x, y, heading) before the step and their k actions."""
        e = self.evader_len
        poses = np.asarray(poses, dtype=np.float64)
        xy = 2.0 * poses[:, :2] / (site.boundary_width, site.boundary_height) - 1.0
        own = np.asarray(actions, dtype=np.float64).reshape(-1, 1)
        return np.concatenate(
            [obs_rows[:, :e], xy, poses[:, 2:] / np.pi, obs_rows[:, e : e + 3], own, obs_rows[:, e + 3 :]], axis=1
        )

    def split_branches(self, records: np.ndarray):
        """(evader input, self input, relpos rows) for a batch of step records.

        Relpos rows have shape (batch * n_teammates, 3): one row per teammate
        for the shared branch network.
        """
        e, s = self.evader_len, self.evader_len + self.self_len
        return records[:, :e], records[:, e:s], records[:, s:].reshape(-1, 3)


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------

@dataclass
class TeamEncoder:
    evader_net: nn.Mlp
    self_net: nn.Mlp
    relpos_net: nn.Mlp  # shared across teammate rows, mean-pooled
    mix_logits: np.ndarray  # (3,), softmax-normalized branch weights
    layout: WindowLayout
    embed_dim: int = EMBED_DIM

    def params(self) -> list[np.ndarray]:
        return (
            self.evader_net.arrays()
            + self.self_net.arrays()
            + self.relpos_net.arrays()
            + [self.mix_logits]
        )


def init_encoder(layout: WindowLayout, rng, hidden: int = 128, embed_dim: int = EMBED_DIM, dtype=np.float32) -> TeamEncoder:
    ev_dim, self_dim, rel_dim = layout.branch_in_dims
    return TeamEncoder(
        evader_net=nn.mlp_init([ev_dim, hidden, embed_dim], rng, dtype=dtype),
        self_net=nn.mlp_init([self_dim, hidden, embed_dim], rng, dtype=dtype),
        relpos_net=nn.mlp_init([rel_dim, hidden, embed_dim], rng, dtype=dtype),
        mix_logits=np.zeros(3, dtype=dtype),
        layout=layout,
        embed_dim=embed_dim,
    )


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.max(z))
    return e / e.sum()


def encode(enc: TeamEncoder, windows: np.ndarray):
    """Team embedding for a (batch, step_len) array of step records. Returns (emb, cache)."""
    B, _ = windows.shape
    R = enc.layout.n_teammates
    ev_in, sf_in, rel_rows = enc.layout.split_branches(windows)
    o_ev, c_ev = nn.mlp_forward(enc.evader_net, ev_in)
    o_sf, c_sf = nn.mlp_forward(enc.self_net, sf_in)
    o_rel_rows, c_rel = nn.mlp_forward(enc.relpos_net, rel_rows)
    o_rel = o_rel_rows.reshape(B, R, enc.embed_dim).mean(axis=1)
    w = softmax(enc.mix_logits)
    emb = w[0] * o_ev + w[1] * o_sf + w[2] * o_rel
    cache = (c_ev, c_sf, c_rel, o_ev, o_sf, o_rel, w, B, R)
    return emb, cache


def encode_backward(enc: TeamEncoder, cache, demb: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss wrt encoder params, given d(loss)/d(embedding)."""
    c_ev, c_sf, c_rel, o_ev, o_sf, o_rel, w, B, R = cache
    g_ev, _ = nn.mlp_backward(enc.evader_net, c_ev, w[0] * demb, input_grad=False)
    g_sf, _ = nn.mlp_backward(enc.self_net, c_sf, w[1] * demb, input_grad=False)
    drel_rows = np.repeat(w[2] * demb / R, R, axis=0)
    g_rel, _ = nn.mlp_backward(enc.relpos_net, c_rel, drel_rows, input_grad=False)
    # softmax mixing: dz_b = sum_i w_b * (s_b,i - sum_c w_c s_c,i)
    s = np.stack(
        [np.sum(demb * o_ev, axis=1), np.sum(demb * o_sf, axis=1), np.sum(demb * o_rel, axis=1)]
    )  # (3, B)
    weighted = np.sum(w[:, None] * s, axis=0)  # (B,)
    dz = np.sum(w[:, None] * (s - weighted[None, :]), axis=1).astype(enc.mix_logits.dtype)
    return g_ev + g_sf + g_rel + [dz]


# ---------------------------------------------------------------------------
# Decoder and reconstruction loss
# ---------------------------------------------------------------------------

@dataclass
class TeamDecoder:
    """Predicts the uncontrolled teammates' action distribution from the embedding.

    One shared Gaussian head; its output is broadcast over the teammate slots
    (see the module docstring for why the head is shared).
    """

    net: nn.Mlp  # embed -> hidden -> (mean, log_std)

    def params(self) -> list[np.ndarray]:
        return self.net.arrays()


#: Decoder outputs: mean and log std of the teammates' action distribution.
DECODER_OUT = 2


def init_decoder(embed_dim: int, rng, hidden: int = 64, dtype=np.float32) -> TeamDecoder:
    return TeamDecoder(net=nn.mlp_init([embed_dim, hidden, DECODER_OUT], rng, dtype=dtype))


def reconstruction_loss(dec: TeamDecoder, emb: np.ndarray, teammate_actions: np.ndarray):
    """Mean KL(target || predicted) over teammates and batch.

    The target for each teammate is a Gaussian centered on its observed
    action with fixed std `RECON_TARGET_STD`. Returns (loss, grads wrt
    decoder params, d(loss)/d(embedding)).
    """
    B, M = teammate_actions.shape
    out, cache = nn.mlp_forward(dec.net, emb)
    mu = out[:, 0:1]  # (B, 1) shared prediction
    raw_ls = out[:, 1:2]
    ls = nn.clamp_log_std(raw_ls)
    var = np.exp(2.0 * ls)
    diff = teammate_actions - mu  # (B, M) broadcast
    per = ls - np.log(RECON_TARGET_STD) + (RECON_TARGET_STD**2 + diff**2) / (2.0 * var) - 0.5
    loss = float(np.mean(per))

    dmu = np.sum(-diff / var, axis=1, keepdims=True) / (B * M)
    dls_raw = np.sum(1.0 - (RECON_TARGET_STD**2 + diff**2) / var, axis=1, keepdims=True) / (B * M)
    dls = dls_raw * nn.log_std_grad_mask(raw_ls)
    dout = np.concatenate([dmu, dls], axis=1).astype(out.dtype)
    grads, demb = nn.mlp_backward(dec.net, cache, dout)
    return loss, grads, demb


# ---------------------------------------------------------------------------
# NAHT-D model
# ---------------------------------------------------------------------------

@dataclass
class NahtModel:
    ac: rl.ActorCritic  # actor input = obs + embedding; critic is centralized
    encoder: TeamEncoder
    decoder: TeamDecoder | None
    obs_dim: int
    embed_dim: int

    def params(self) -> list[np.ndarray]:
        out = self.ac.params() + self.encoder.params()
        if self.decoder is not None:
            out += self.decoder.params()
        return out

    def actor_input(self, obs: np.ndarray, emb: np.ndarray) -> np.ndarray:
        return np.concatenate([obs, emb], axis=1)

    def checkpoint_arrays(self):
        """(checkpoint kind, named arrays, manifest dims) for `rl.RunDir.archive`."""
        named, meta = rl.actor_critic_arrays(self.ac)
        for prefix, attr in _ENCODER_NETS:
            named += rl._named_mlp_arrays(prefix, getattr(self.encoder, attr))
        named.append(("mix_logits", self.encoder.mix_logits))
        if self.decoder is not None:
            named += rl._named_mlp_arrays("decoder", self.decoder.net)
        meta.update(
            obs_dim=self.obs_dim,  # the raw observation; the actor also reads the embedding
            embed_dim=self.embed_dim,
            encoder_layers=len(self.encoder.evader_net.weights),
            decoder_layers=len(self.decoder.net.weights) if self.decoder else 0,
            has_decoder=self.decoder is not None,
            history_k=1,  # the encoder reads one step record
        )
        return "naht_d", named, meta


def init_naht_model(
    env_cfg: EnvConfig,
    cfg: rl.PpoConfig,
    rng,
    no_decoder: bool = False,
) -> NahtModel:
    obs_dim = sim.obs_length(env_cfg)
    layout = WindowLayout(num_e=env_cfg.players.num_e, num_p=env_cfg.players.num_p)
    critic_dim = sim.central_obs_length(env_cfg, env_cfg.players.num_ctrl)
    ac = rl.init_actor_critic(obs_dim + EMBED_DIM, critic_dim, cfg, rng)
    encoder = init_encoder(layout, rng)
    decoder = None if no_decoder else init_decoder(EMBED_DIM, rng)
    return NahtModel(ac=ac, encoder=encoder, decoder=decoder, obs_dim=obs_dim, embed_dim=EMBED_DIM)


# ---------------------------------------------------------------------------
# Joint update
# ---------------------------------------------------------------------------

@dataclass
class NahtBatch:
    base: rl.PpoBatch  # actor_in holds raw observations (no embedding)
    windows: np.ndarray  # (B, step_len): each row's previous step record
    teammate_actions: np.ndarray  # (B, M)


def naht_loss_and_grads(model: NahtModel, mb: NahtBatch, idx, cfg: rl.PpoConfig):
    """Joint PPO + RECON_BETA * reconstruction loss over one minibatch of indices."""
    obs = mb.base.actor_in[idx]
    emb, enc_cache = encode(model.encoder, mb.windows[idx])
    actor_in = model.actor_input(obs, emb)
    ac_grads, dactor_in, diag = rl.ppo_loss_and_grads(
        model.ac,
        actor_in,
        mb.base.critic_in[idx],
        mb.base.actions[idx],
        mb.base.old_logp[idx],
        mb.base.advantages[idx],
        mb.base.returns[idx],
        cfg,
        input_grad=True,
    )
    demb = dactor_in[:, model.obs_dim :]
    recon = 0.0
    dec_grads = None
    if model.decoder is not None:
        recon, dec_grads, demb_rec = reconstruction_loss(model.decoder, emb, mb.teammate_actions[idx])
        demb = demb + RECON_BETA * demb_rec
    grads = ac_grads + encode_backward(model.encoder, enc_cache, demb)
    if model.decoder is not None:
        grads += [RECON_BETA * g for g in dec_grads]
    diag = dict(diag)
    diag["recon_loss"] = float(recon)
    diag["loss"] = diag["loss"] + RECON_BETA * float(recon)
    return grads, diag


def naht_update(
    model: NahtModel,
    opt: nn.AdamState,
    batch: NahtBatch,
    cfg: rl.PpoConfig,
    rng: np.random.Generator,
):
    """`rl.ppo_update`'s minibatch loop over the joint NAHT-D loss."""
    base = replace(batch.base, advantages=rl.normalize_advantages(batch.base.advantages))
    nb = NahtBatch(base=base, windows=batch.windows, teammate_actions=batch.teammate_actions)
    return rl.minibatch_epochs(
        model, opt, len(base), cfg, rng, lambda rows: naht_loss_and_grads(model, nb, rows, cfg)
    )


# ---------------------------------------------------------------------------
# Rollout collection with histories
# ---------------------------------------------------------------------------

class NahtCollector(rl.RolloutCollector):
    """Rollout collector for NAHT-D: the centralized-critic collector with an
    embedding-conditioned actor, each learner's previous step record and the
    observed teammate actions. Each step makes one `encode` over the records
    of every learner row of every env."""

    def __init__(self, env_cfg: EnvConfig, model: NahtModel, cfg: rl.PpoConfig, rng, teammates):
        super().__init__(env_cfg, model.ac, cfg, rng, teammates=teammates, central=True)
        self.naht_model = model
        self.layout = model.encoder.layout
        # each learner row's previous step record; a new array every step, so rows zeroed in place at an
        # episode's start never touch one that a batch holds
        self._records = np.zeros((self.n_envs * self.n_learners, self.layout.step_len))
        self._win_rows, self._mate_rows = [], []

    def _begin_episode(self, env: int):
        n = self.n_learners
        self._records[env * n : (env + 1) * n] = 0.0
        super()._begin_episode(env)

    def _actor_input(self, learner_obs):
        self._win_rows.append(self._records)
        emb, _ = encode(self.naht_model.encoder, self._records)
        return self.naht_model.actor_input(learner_obs, emb)

    def _step(self) -> list[sim.StepOutcome]:
        episodes, n = self.episodes, self.n_learners
        # the record reads each learner's pose before the step, like its observation
        self._records = self.layout.step_record(
            np.concatenate([ep.obs[:n] for ep in episodes]),
            [pose for ep in episodes for pose in ep.state.pursuers[:n]],
            self.env_cfg.site,
            np.concatenate([ep.actions[:n] for ep in episodes]),
        )
        outcomes = super()._step()
        # the step filled in the teammates' actions
        self._mate_rows.append(np.repeat(np.stack([ep.actions[n:] for ep in episodes]), n, axis=0))
        return outcomes

    def collect(self, n_transitions: int) -> tuple[NahtBatch, rl.RolloutStats]:
        self._win_rows, self._mate_rows = [], []
        base, stats = super().collect(n_transitions)
        batch = NahtBatch(
            base=base,
            windows=np.concatenate(self._win_rows, axis=0),
            teammate_actions=np.concatenate(self._mate_rows, axis=0),
        )
        return batch, stats


# ---------------------------------------------------------------------------
# Trainer and checkpointing
# ---------------------------------------------------------------------------

def naht_d_train(
    cfg: rl.PpoConfig,
    env_cfg: EnvConfig,
    teammate_pool,
    seed: int,
    no_decoder: bool = False,
    out_dir=None,
) -> rl.TrainResult:
    """Train NAHT-D against a pool of teammate policies.

    Each episode fills the uncontrolled slots with independent uniform draws
    from `teammate_pool`. `no_decoder=True` is the published ablation: the
    decoder and its reconstruction term are removed entirely.
    """
    if env_cfg.players.num_unctrl < 1:
        raise ValueError("naht_d_train needs uncontrolled teammate slots (num_unctrl >= 1)")
    teammates = rl.UniformTeammates(teammate_pool, env_cfg.players.num_unctrl)
    model = init_naht_model(env_cfg, cfg, substream(seed, "init"), no_decoder=no_decoder)
    collector = NahtCollector(env_cfg, model, cfg, substream(seed, "rollout"), teammates)
    run = rl.RunDir(out_dir)
    result = rl.train_loop(collector, model, cfg, seed, update=naht_update, run=run, ckpt_prefix="naht")
    algo = "naht-d-nodec" if no_decoder else "naht-d"
    rl.finish_training(model, run, env_cfg, cfg, {"algo": algo, "seed": seed, "beta": RECON_BETA})
    return result


_ENCODER_NETS = (("enc_evader", "evader_net"), ("enc_self", "self_net"), ("enc_relpos", "relpos_net"))


def naht_from_arrays(arrays: dict, meta: dict) -> NahtModel:
    """A NAHT-D model from a checkpoint's arrays and manifest extra: the
    inverse of `rl.RunDir.archive` for a NAHT-D model, not of
    `NahtModel.checkpoint_arrays` alone, since the encoder's layout comes
    from the `num_e` and `num_p` that every archive records. Every array's
    shape is checked against the manifest dims first (ValueError naming the
    array)."""
    embed_dim = meta["embed_dim"]
    # the actor reads the raw observation and the embedding
    ac = rl.actor_critic_from_arrays(arrays, {**meta, "obs_dim": meta["obs_dim"] + embed_dim})
    if meta["history_k"] != 1:
        raise ValueError(f"checkpoint history_k is {meta['history_k']}, expected 1")
    layout = WindowLayout(num_e=meta["num_e"], num_p=meta["num_p"])
    nets = {
        attr: rl._mlp_from_arrays(prefix, arrays, meta["encoder_layers"], in_dim, embed_dim)
        for (prefix, attr), in_dim in zip(_ENCODER_NETS, layout.branch_in_dims)
    }
    mix_logits = arrays["mix_logits"]
    if mix_logits.shape != (3,):
        raise ValueError(f"checkpoint array mix_logits has shape {mix_logits.shape}, expected (3,)")
    encoder = TeamEncoder(**nets, mix_logits=mix_logits.copy(), layout=layout, embed_dim=embed_dim)
    decoder = None
    if meta["has_decoder"]:
        decoder = TeamDecoder(rl._mlp_from_arrays("decoder", arrays, meta["decoder_layers"], embed_dim, DECODER_OUT))
    return NahtModel(ac=ac, encoder=encoder, decoder=decoder, obs_dim=meta["obs_dim"], embed_dim=embed_dim)


class NahtSlotPolicy:
    """Runs a NAHT-D checkpoint in pursuer slots; each slot's episode state
    is its own previous step record and rng."""

    needs_obs = True

    def __init__(self, model: NahtModel, deterministic: bool = True):
        self.model = model
        self.deterministic = deterministic

    def begin_episode(self, rng: np.random.Generator) -> list:
        return [np.zeros((1, self.model.encoder.layout.step_len)), rl.episode_rng(rng)]

    def act(self, seats) -> list[float]:
        """One encode and forward per slot, from its state [previous step
        record (one row), rng]; the record is replaced by this step's."""
        layout, steers = self.model.encoder.layout, []
        for ep, slots, states in seats:
            world = ep.state
            for slot, state in zip(slots, states):
                record, rng = state
                obs_row = ep.obs[slot : slot + 1]
                emb, _ = encode(self.model.encoder, record)
                actor_in = self.model.actor_input(obs_row, emb)
                if self.deterministic:
                    action = float(self.model.ac.action_mean(actor_in)[0, 0])
                else:
                    actions, _ = self.model.ac.act(actor_in, rng)
                    action = float(actions[0, 0])
                state[0] = layout.step_record(obs_row, [world.pursuers[slot]], world.cfg.site, [action])
                steers.append(action)
        return steers
