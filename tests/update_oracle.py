"""Whole PPO and NAHT-D updates as list-returning gradients and a
concatenating Adam: the bitwise oracle of `rl.ppo_update` and
`teammate.naht_update`.

The trainers write every gradient in place into the optimizer's flat
vector (`nn.AdamState.grad_flat`), share the standardized actions between
the log density and the mean gradient, and take their means as sums over
the row count. This module keeps the updates those replaced, operation for
operation: each loss returns a fresh list of gradient arrays, the encoder
and decoder scale and concatenate theirs, and Adam concatenates the list
into one vector before it steps. The forward and backward passes are the
plain formulas of `mlp_oracle`, whose bits `nn`'s kernels are tested to
have, so that nothing here runs the code under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

import mlp_oracle
from pursuit_lab import nn, rl, teammate


# ---------------------------------------------------------------------------
# Adam on one concatenated gradient
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    lr: float
    shapes: list[tuple[int, ...]]
    m_flat: np.ndarray
    v_flat: np.ndarray
    t: int = 0


def adam_init(params: list[np.ndarray], lr: float) -> AdamState:
    size = sum(p.size for p in params)
    dtype = params[0].dtype
    return AdamState(lr=lr, shapes=[p.shape for p in params], m_flat=np.zeros(size, dtype), v_flat=np.zeros(size, dtype))


def _split(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


def adam_step(opt: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    for p, g, shape in zip(params, grads, opt.shapes):
        assert p.shape == shape == g.shape and g.dtype == p.dtype
    g = np.concatenate([grad.ravel() for grad in grads])
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradient")
    opt.t += 1
    bc1 = 1.0 - nn.ADAM_BETA1**opt.t
    bc2 = 1.0 - nn.ADAM_BETA2**opt.t
    m, v = opt.m_flat, opt.v_flat
    step, denom = np.empty_like(g), np.empty_like(g)
    m *= nn.ADAM_BETA1
    np.multiply(1.0 - nn.ADAM_BETA1, g, out=step)
    m += step
    v *= nn.ADAM_BETA2
    np.multiply(1.0 - nn.ADAM_BETA2, g, out=step)
    step *= g
    v += step
    np.divide(m, bc1, out=step)
    np.multiply(opt.lr, step, out=step)
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += nn.ADAM_EPS
    step /= denom
    for p, s in zip(params, _split(step, opt.shapes)):
        p -= s


# ---------------------------------------------------------------------------
# PPO
# ---------------------------------------------------------------------------

def gaussian_log_prob(mean, log_std, actions):
    ls = nn.clamp_log_std(np.asarray(log_std))
    z = (np.asarray(actions) - mean) / np.exp(ls)
    return -0.5 * np.sum(z * z, axis=-1) - np.sum(ls) - 0.5 * math.log(2.0 * math.pi) * mean.shape[-1]


def ppo_loss_and_grads(model: rl.ActorCritic, actor_in, critic_in, actions, old_logp, adv, ret, cfg: rl.PpoConfig):
    """(grads aligned with model.params(), dactor_in, diagnostics)."""
    B = actor_in.shape[0]
    mean, a_cache = mlp_oracle.mlp_forward(model.actor, actor_in)
    sigma = np.exp(nn.clamp_log_std(model.log_std))
    logp = gaussian_log_prob(mean, model.log_std, actions)
    ratio = np.array(list(map(math.exp, (logp - old_logp).tolist())))
    surr1 = ratio * adv
    clipped_ratio = np.clip(ratio, 1.0 - rl.CLIP_RATIO, 1.0 + rl.CLIP_RATIO)
    surr2 = clipped_ratio * adv
    pi_loss = -float(np.mean(np.minimum(surr1, surr2)))

    in_range = (ratio >= 1.0 - rl.CLIP_RATIO) & (ratio <= 1.0 + rl.CLIP_RATIO)
    active = (surr1 <= surr2) | in_range
    dlogp = -(adv * ratio * active) / B

    z = (actions - mean) / sigma
    dmean = dlogp[:, None] * z / sigma
    dlog_std_pi = np.sum(dlogp[:, None] * (z * z - 1.0), axis=0)
    entropy = nn.gaussian_entropy(model.log_std)
    dlog_std = (dlog_std_pi - cfg.entropy_coef) * nn.log_std_grad_mask(model.log_std)
    actor_grads, dactor_in = mlp_oracle.mlp_backward(model.actor, a_cache, dmean)

    v, c_cache = mlp_oracle.mlp_forward(model.critic, critic_in)
    v = v[:, 0]
    v_err = v - ret
    v_loss = float(np.mean(v_err**2))
    dv = (rl.VALUE_COEF * 2.0 * v_err / B)[:, None]
    critic_grads, _ = mlp_oracle.mlp_backward(model.critic, c_cache, dv.astype(v.dtype))

    grads = actor_grads + [dlog_std.astype(model.log_std.dtype)] + critic_grads
    diag = {
        "pi_loss": pi_loss,
        "v_loss": v_loss,
        "entropy": float(entropy),
        "clip_frac": float(np.mean(np.abs(ratio - 1.0) > rl.CLIP_RATIO)),
        "approx_kl": float(np.mean(old_logp - logp)),
        "loss": pi_loss + rl.VALUE_COEF * v_loss - cfg.entropy_coef * float(entropy),
    }
    return grads, dactor_in, diag


def minibatch_epochs(model, opt: AdamState, n_rows: int, cfg: rl.PpoConfig, rng, loss_and_grads) -> dict:
    idx = np.arange(n_rows)
    diags = []
    for _epoch in range(cfg.epochs):
        rng.shuffle(idx)
        for start in range(0, n_rows, cfg.minibatch):
            grads, diag = loss_and_grads(idx[start : start + cfg.minibatch])
            adam_step(opt, model.params(), grads)
            diags.append(diag)
    return {k: float(np.mean([d[k] for d in diags])) for k in diags[0]}


def ppo_update(model: rl.ActorCritic, opt: AdamState, batch: rl.PpoBatch, cfg: rl.PpoConfig, rng) -> dict:
    adv = rl.normalize_advantages(batch.advantages)

    def loss_and_grads(mb):
        grads, _, diag = ppo_loss_and_grads(
            model, batch.actor_in[mb], batch.critic_in[mb], batch.actions[mb], batch.old_logp[mb], adv[mb],
            batch.returns[mb], cfg,
        )
        return grads, diag

    return minibatch_epochs(model, opt, len(batch), cfg, rng, loss_and_grads)


# ---------------------------------------------------------------------------
# NAHT-D
# ---------------------------------------------------------------------------

def encode(enc: teammate.TeamEncoder, windows: np.ndarray):
    B, _ = windows.shape
    R = enc.layout.n_teammates
    ev_in, sf_in, rel_rows = enc.layout.split_branches(windows)
    o_ev, c_ev = mlp_oracle.mlp_forward(enc.evader_net, ev_in)
    o_sf, c_sf = mlp_oracle.mlp_forward(enc.self_net, sf_in)
    o_rel_rows, c_rel = mlp_oracle.mlp_forward(enc.relpos_net, rel_rows)
    o_rel = o_rel_rows.reshape(B, R, enc.embed_dim).mean(axis=1)
    w = teammate.softmax(enc.mix_logits)
    emb = w[0] * o_ev + w[1] * o_sf + w[2] * o_rel
    return emb, (c_ev, c_sf, c_rel, o_ev, o_sf, o_rel, w, B, R)


def encode_backward(enc: teammate.TeamEncoder, cache, demb: np.ndarray) -> list[np.ndarray]:
    c_ev, c_sf, c_rel, o_ev, o_sf, o_rel, w, B, R = cache
    g_ev, _ = mlp_oracle.mlp_backward(enc.evader_net, c_ev, w[0] * demb)
    g_sf, _ = mlp_oracle.mlp_backward(enc.self_net, c_sf, w[1] * demb)
    drel_rows = np.repeat(w[2] * demb / R, R, axis=0)
    g_rel, _ = mlp_oracle.mlp_backward(enc.relpos_net, c_rel, drel_rows)
    s = np.stack([np.sum(demb * o_ev, axis=1), np.sum(demb * o_sf, axis=1), np.sum(demb * o_rel, axis=1)])
    weighted = np.sum(w[:, None] * s, axis=0)
    dz = np.sum(w[:, None] * (s - weighted[None, :]), axis=1).astype(enc.mix_logits.dtype)
    return g_ev + g_sf + g_rel + [dz]


def reconstruction_loss(dec: teammate.TeamDecoder, emb: np.ndarray, teammate_actions: np.ndarray):
    B, M = teammate_actions.shape
    out, cache = mlp_oracle.mlp_forward(dec.net, emb)
    mu = out[:, 0:1]
    raw_ls = out[:, 1:2]
    ls = nn.clamp_log_std(raw_ls)
    var = np.exp(2.0 * ls)
    diff = teammate_actions - mu
    target = teammate.RECON_TARGET_STD
    per = ls - np.log(target) + (target**2 + diff**2) / (2.0 * var) - 0.5
    loss = float(np.mean(per))
    dmu = np.sum(-diff / var, axis=1, keepdims=True) / (B * M)
    dls_raw = np.sum(1.0 - (target**2 + diff**2) / var, axis=1, keepdims=True) / (B * M)
    dls = dls_raw * nn.log_std_grad_mask(raw_ls)
    dout = np.concatenate([dmu, dls], axis=1).astype(out.dtype)
    grads, demb = mlp_oracle.mlp_backward(dec.net, cache, dout)
    return loss, grads, demb


def naht_loss_and_grads(model: teammate.NahtModel, mb: teammate.NahtBatch, idx, cfg: rl.PpoConfig):
    obs = mb.base.actor_in[idx]
    emb, enc_cache = encode(model.encoder, mb.windows[idx])
    actor_in = model.actor_input(obs, emb)
    ac_grads, dactor_in, diag = ppo_loss_and_grads(
        model.ac, actor_in, mb.base.critic_in[idx], mb.base.actions[idx], mb.base.old_logp[idx],
        mb.base.advantages[idx], mb.base.returns[idx], cfg,
    )
    demb = dactor_in[:, model.obs_dim :]
    recon = 0.0
    dec_grads = None
    if model.decoder is not None:
        recon, dec_grads, demb_rec = reconstruction_loss(model.decoder, emb, mb.teammate_actions[idx])
        demb = demb + teammate.RECON_BETA * demb_rec
    grads = ac_grads + encode_backward(model.encoder, enc_cache, demb)
    if model.decoder is not None:
        grads += [teammate.RECON_BETA * g for g in dec_grads]
    diag = dict(diag)
    diag["recon_loss"] = float(recon)
    diag["loss"] = diag["loss"] + teammate.RECON_BETA * float(recon)
    return grads, diag


def naht_update(model: teammate.NahtModel, opt: AdamState, batch: teammate.NahtBatch, cfg: rl.PpoConfig, rng) -> dict:
    base = replace(batch.base, advantages=rl.normalize_advantages(batch.base.advantages))
    nb = teammate.NahtBatch(base=base, windows=batch.windows, teammate_actions=batch.teammate_actions)
    return minibatch_epochs(model, opt, len(base), cfg, rng, lambda rows: naht_loss_and_grads(model, nb, rows, cfg))
