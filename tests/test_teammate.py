import numpy as np
import pytest

from pursuit_lab import evalkit, nn, rl, sim, teammate
from pursuit_lab.seeding import substream
from conftest import FixedTeammates, act_alone, reduced_4p2e3o

from test_nn import finite_difference, max_rel_error


def small_layout(num_e=2, num_p=4):
    return teammate.WindowLayout(num_e=num_e, num_p=num_p)


def small_encoder(layout=None, seed=0, hidden=8, embed=4, dtype=np.float64):
    layout = layout or small_layout()
    return teammate.init_encoder(layout, substream(seed, "enc"), hidden=hidden, embed_dim=embed, dtype=dtype)


def test_window_layout_lengths():
    layout = small_layout(num_e=2, num_p=4)
    assert layout.evader_len == 6
    assert layout.self_len == 7
    assert layout.rel_len == 9
    assert layout.step_len == 22


def test_zero_window_zero_bias_gives_zero_embedding():
    enc = small_encoder()
    win = np.zeros((3, enc.layout.step_len))
    emb, _ = teammate.encode(enc, win)
    np.testing.assert_allclose(emb, 0.0, atol=1e-12)


def test_encoder_and_decoder_take_batches_of_rows():
    enc = small_encoder()
    dec = teammate.init_decoder(enc.embed_dim, substream(0, "dec"), hidden=8, dtype=np.float64)
    emb, _ = teammate.encode(enc, np.zeros((2, enc.layout.step_len)))
    with pytest.raises(ValueError):
        teammate.encode(enc, np.zeros(enc.layout.step_len))
    with pytest.raises(ValueError):
        teammate.reconstruction_loss(dec, emb[0], np.zeros((1, 2)))
    with pytest.raises(ValueError):
        teammate.reconstruction_loss(dec, emb, np.zeros(2))


def test_softmax_saturation_selects_branch():
    enc = small_encoder()
    rng = np.random.default_rng(0)
    win = rng.normal(size=(2, enc.layout.step_len))
    ev_in, sf_in, rel_rows = enc.layout.split_branches(win)
    o_ev, _ = nn.mlp_forward(enc.evader_net, ev_in)
    enc.mix_logits = np.array([20.0, 0.0, 0.0])
    emb, _ = teammate.encode(enc, win)
    np.testing.assert_allclose(emb, o_ev, atol=1e-6)


def test_encoder_gradients_match_finite_differences():
    enc = small_encoder()
    rng = np.random.default_rng(1)
    enc.mix_logits = rng.normal(size=3)  # move off the symmetric point
    win = rng.normal(size=(4, enc.layout.step_len))
    w = rng.normal(size=(4, enc.embed_dim))

    def loss():
        emb, _ = teammate.encode(enc, win)
        return float(np.sum(emb * w))

    emb, cache = teammate.encode(enc, win)
    grads = teammate.encode_backward(enc, cache, w)
    numeric = finite_difference(loss, enc.params())
    assert max_rel_error(grads, numeric) < 1e-4


def test_embedding_invariant_to_teammate_row_permutation():
    enc = small_encoder()
    rng = np.random.default_rng(2)
    layout = enc.layout
    win = rng.normal(size=(1, layout.step_len))
    rel_start = layout.evader_len + layout.self_len
    rel = win[0, rel_start:].reshape(layout.n_teammates, 3)
    perm = np.array([2, 0, 1])
    permuted = win.copy()
    permuted[0, rel_start:] = rel[perm].reshape(-1)

    emb_a, _ = teammate.encode(enc, win)
    emb_b, _ = teammate.encode(enc, permuted)
    np.testing.assert_allclose(emb_a, emb_b, atol=1e-12)


def test_reconstruction_loss_zero_at_match():
    # the decoder predicts mean 0.3 and std RECON_TARGET_STD whatever the
    # embedding, and both teammates acted 0.3: the target is the prediction
    dec = teammate.TeamDecoder(
        net=nn.Mlp(weights=[np.zeros((4, 2))], biases=[np.array([0.3, np.log(teammate.RECON_TARGET_STD)])])
    )
    emb = np.random.default_rng(0).normal(size=(3, 4))
    actions = np.full((3, 2), 0.3)
    loss, _, _ = teammate.reconstruction_loss(dec, emb, actions)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_reconstruction_closed_form_value():
    # predicted N(0, 0.1) vs target N(0.5, 0.1): KL = 0.5 * (0.5/0.1)^2 = 12.5
    dec = teammate.TeamDecoder(
        net=nn.Mlp(weights=[np.zeros((4, 2))], biases=[np.array([0.0, np.log(0.1)])])
    )
    emb = np.zeros((1, 4))
    actions = np.array([[0.5]])
    assert teammate.RECON_TARGET_STD == 0.1
    loss, _, _ = teammate.reconstruction_loss(dec, emb, actions)
    assert loss == pytest.approx(12.5, abs=1e-9)


def test_reconstruction_nonnegative_and_gradients():
    dec = teammate.init_decoder(4, substream(3, "dec"), dtype=np.float64)
    rng = np.random.default_rng(4)
    emb = rng.normal(size=(3, 4))
    actions = rng.uniform(-1, 1, size=(3, 2))

    loss, grads, demb = teammate.reconstruction_loss(dec, emb, actions)
    assert loss >= 0.0

    def loss_fn():
        value, _, _ = teammate.reconstruction_loss(dec, emb, actions)
        return value

    numeric = finite_difference(loss_fn, dec.params() + [emb])
    assert max_rel_error(grads + [demb], numeric) < 1e-4


def test_recon_loss_invariant_under_paired_permutation():
    # permuting teammate rows in the window together with the observed action
    # vector leaves the joint loss unchanged
    enc = small_encoder()
    dec = teammate.init_decoder(enc.embed_dim, substream(5, "dec"), dtype=np.float64)
    rng = np.random.default_rng(6)
    layout = enc.layout
    win = rng.normal(size=(1, layout.step_len))
    actions = rng.uniform(-1, 1, size=(1, 3))

    def joint(w, a):
        emb, _ = teammate.encode(enc, w)
        loss, _, _ = teammate.reconstruction_loss(dec, emb, a)
        return loss

    perm = np.array([1, 2, 0])
    rel_start = layout.evader_len + layout.self_len
    permuted = win.copy()
    rel = permuted[0, rel_start:].reshape(layout.n_teammates, 3)
    permuted[0, rel_start:] = rel[perm].reshape(-1)
    assert joint(win, actions) == pytest.approx(joint(permuted, actions[:, perm]), abs=1e-12)


def test_naht_actor_input_length():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=64, minibatch=32)
    model = teammate.init_naht_model(env, cfg, substream(0, "init"))
    assert model.ac.actor.weights[0].shape[0] == sim.obs_length(env) + 16
    assert model.encoder.embed_dim == 16
    assert model.ac.critic.weights[0].shape[0] == sim.central_obs_length(env, 2)


def test_naht_collector_shapes_and_determinism():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=64, minibatch=32)

    def collect():
        model = teammate.init_naht_model(env, cfg, substream(1, "init"))
        teammates = FixedTeammates([rl.ScriptedSlotPolicy("greedy"), rl.ScriptedSlotPolicy("greedy")])
        col = teammate.NahtCollector(env, model, cfg, substream(1, "roll"), teammates)
        return col.collect(64)

    b1, _ = collect()
    b2, _ = collect()
    assert len(b1.base) == 64
    assert b1.windows.shape == (64, teammate.WindowLayout(2, 4).step_len)
    assert b1.teammate_actions.shape == (64, 2)
    np.testing.assert_array_equal(b1.base.actor_in, b2.base.actor_in)
    np.testing.assert_array_equal(b1.windows, b2.windows)
    np.testing.assert_array_equal(b1.teammate_actions, b2.teammate_actions)
    # the first step reads an all-zero record
    np.testing.assert_array_equal(b1.windows[0], np.zeros_like(b1.windows[0]))


def test_joint_gradient_matches_finite_differences():
    # end-to-end PPO + RECON_BETA * recon gradient on a tiny model (64-bit)
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=8, minibatch=8, epochs=1, hidden=(6,), entropy_coef=0.01)
    layout = teammate.WindowLayout(num_e=2, num_p=4)
    obs_dim = sim.obs_length(env)
    critic_dim = sim.central_obs_length(env, 2)
    rng_init = substream(7, "init")
    ac = rl.init_actor_critic(obs_dim + 4, critic_dim, cfg, rng_init, dtype=np.float64)
    encoder = teammate.init_encoder(layout, rng_init, hidden=6, embed_dim=4, dtype=np.float64)
    decoder = teammate.init_decoder(4, rng_init, hidden=6, dtype=np.float64)
    model = teammate.NahtModel(ac=ac, encoder=encoder, decoder=decoder, obs_dim=obs_dim, embed_dim=4)
    model.encoder.mix_logits = np.array([0.3, -0.2, 0.1])

    rng = np.random.default_rng(8)
    B = 8
    obs = rng.normal(size=(B, obs_dim))
    windows = rng.normal(size=(B, layout.step_len))
    central = rng.normal(size=(B, critic_dim))
    emb0, _ = teammate.encode(model.encoder, windows)
    mean0 = model.ac.action_mean(model.actor_input(obs, emb0))
    actions = nn.gaussian_sample(mean0, model.ac.log_std, rng)
    old_logp = nn.gaussian_log_prob(mean0, model.ac.log_std, actions) + rng.normal(0, 0.02, B)
    adv = rng.normal(size=B)
    ret = rng.normal(size=B)
    mates = rng.uniform(-1, 1, size=(B, 2))
    beta = teammate.RECON_BETA

    base = rl.PpoBatch(obs, central, actions, old_logp, adv, ret)
    batch = teammate.NahtBatch(base=base, windows=windows, teammate_actions=mates)
    grads, diag = teammate.naht_loss_and_grads(model, batch, np.arange(B), cfg)

    def loss_fn():
        emb, _ = teammate.encode(model.encoder, windows)
        mean, _ = nn.mlp_forward(model.ac.actor, model.actor_input(obs, emb))
        logp = nn.gaussian_log_prob(mean, model.ac.log_std, actions)
        ratio = np.exp(logp - old_logp)
        surr = np.minimum(ratio * adv, np.clip(ratio, 0.8, 1.2) * adv)
        v, _ = nn.mlp_forward(model.ac.critic, central)
        value_loss = np.mean((v[:, 0] - ret) ** 2)
        entropy = nn.gaussian_entropy(model.ac.log_std)
        recon, _, _ = teammate.reconstruction_loss(model.decoder, emb, mates)
        return float(-np.mean(surr) + value_loss - cfg.entropy_coef * entropy + beta * recon)

    assert diag["loss"] == pytest.approx(loss_fn(), abs=1e-9)
    numeric = finite_difference(loss_fn, model.params())
    assert max_rel_error(grads, numeric) < 1e-3


def test_zero_embedding_matches_mappo_update():
    # no decoder and zeroed encoder output layers: the embedding is 0, so the
    # actor's embedding rows get no gradient and pass none back to the
    # encoder. The NAHT update on the obs-part of the actor then equals a
    # plain MAPPO (centralized-critic PPO) update on the same batch, and the
    # embedding rows and the encoder never move.
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=32, minibatch=16, epochs=2, hidden=(8,))
    obs_dim = sim.obs_length(env)
    critic_dim = sim.central_obs_length(env, 2)

    mappo = rl.init_actor_critic(obs_dim, critic_dim, cfg, substream(11, "init"), dtype=np.float64)
    # a float64 naht model with the mappo actor embedded
    layout = teammate.WindowLayout(2, 4)
    ac = rl.ActorCritic(
        actor=nn.Mlp(
            weights=[np.vstack([mappo.actor.weights[0], np.zeros((16, 8))]), mappo.actor.weights[1].copy()],
            biases=[b.copy() for b in mappo.actor.biases],
        ),
        log_std=mappo.log_std.copy(),
        critic=mappo.critic.copy(),
        obs_dim=obs_dim + 16,
        act_dim=1,
        critic_in_dim=critic_dim,
    )
    encoder = teammate.init_encoder(layout, substream(13, "enc"), embed_dim=16, dtype=np.float64)
    for net in (encoder.evader_net, encoder.self_net, encoder.relpos_net):
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = 0.0
    encoder_before = [p.copy() for p in encoder.params()]
    model = teammate.NahtModel(ac=ac, encoder=encoder, decoder=None, obs_dim=obs_dim, embed_dim=16)

    rng = np.random.default_rng(14)
    B = 32
    obs = rng.normal(size=(B, obs_dim))
    central = rng.normal(size=(B, critic_dim))
    mean0 = mappo.action_mean(obs)
    actions = nn.gaussian_sample(mean0, mappo.log_std, np.random.default_rng(1))
    old_logp = nn.gaussian_log_prob(mean0, mappo.log_std, actions)
    adv = rng.normal(size=B)
    ret = rng.normal(size=B)
    base = rl.PpoBatch(obs, central, actions, old_logp, adv, ret)
    nbatch = teammate.NahtBatch(
        base=base, windows=rng.normal(size=(B, layout.step_len)), teammate_actions=rng.normal(size=(B, 2))
    )

    opt_m = nn.adam_init(mappo.params(), lr=cfg.lr)
    rl.ppo_update(mappo, opt_m, base, cfg, substream(15, "upd"))

    opt_n = nn.adam_init(model.params(), lr=cfg.lr)
    teammate.naht_update(model, opt_n, nbatch, cfg, substream(15, "upd"))

    np.testing.assert_allclose(model.ac.actor.weights[0][:obs_dim], mappo.actor.weights[0], atol=1e-12)
    np.testing.assert_allclose(model.ac.actor.weights[0][obs_dim:], np.zeros((16, 8)), atol=0)
    np.testing.assert_allclose(model.ac.actor.biases[0], mappo.actor.biases[0], atol=1e-12)
    np.testing.assert_allclose(model.ac.critic.weights[0], mappo.critic.weights[0], atol=1e-12)
    np.testing.assert_allclose(model.ac.log_std, mappo.log_std, atol=1e-12)
    for after, before in zip(model.encoder.params(), encoder_before):
        np.testing.assert_array_equal(after, before)


def test_naht_train_smoke_and_checkpoint_roundtrip(tmp_path):
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=128, minibatch=64, epochs=1, total_steps=256)
    pool = [rl.ScriptedSlotPolicy("greedy")]
    res = teammate.naht_d_train(cfg, env, pool, seed=1, out_dir=tmp_path)
    assert (tmp_path / "final.zip").exists()
    assert all("recon_loss" in row for row in res.metrics)
    assert any(row["recon_loss"] != 0.0 for row in res.metrics)

    loaded, manifest = evalkit.load_checkpoint(tmp_path / "final.zip")
    assert manifest["extra"]["algo"] == "naht-d"
    for a, b in zip(res.model.params(), loaded.params()):
        np.testing.assert_array_equal(a, b)

    # the loaded policy drives a slot deterministically
    pol = teammate.NahtSlotPolicy(loaded)
    slot_state = pol.begin_episode(substream(0, "ep"))
    state, obs = sim.reset(env, 5)
    action = act_alone(pol, state, obs, 0, slot_state)
    assert np.isfinite(action)


def test_naht_ablation_recon_identically_zero():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(batch=128, minibatch=64, epochs=1, total_steps=256)
    pool = [rl.ScriptedSlotPolicy("greedy")]
    res = teammate.naht_d_train(cfg, env, pool, seed=2, no_decoder=True)
    assert res.model.decoder is None
    assert all(row["recon_loss"] == 0.0 for row in res.metrics)


@pytest.mark.parametrize(
    "name, shape",
    [
        ("actor.w0", (10, 128)),  # the actor reads the observation and the embedding
        ("enc_self.b0", (1,)),
        ("enc_relpos.w0", (4, 128)),
        ("enc_evader.w1", (127, 16)),  # widths do not chain
        ("decoder.b1", (3,)),
        ("mix_logits", (2,)),
    ],
)
def test_naht_checkpoint_array_shapes_are_checked(tmp_path, name, shape):
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    cfg = rl.PpoConfig(hidden=(128,))
    model = teammate.init_naht_model(env, cfg, substream(0, "init"))
    good = rl.RunDir(tmp_path).archive("good.zip", model, env, cfg, {})
    manifest, arrays = nn.load_arrays(good)
    named = [(n, np.zeros(shape, dtype=np.float32) if n == name else arrays[n]) for n in (a["name"] for a in manifest["arrays"])]
    bad = tmp_path / "bad.zip"
    nn.save_arrays(bad, "naht_d", named, extra=manifest["extra"])
    loaded, _ = evalkit.load_checkpoint(good)
    assert loaded.ac.obs_dim == model.ac.obs_dim == model.obs_dim + model.embed_dim
    with pytest.raises(ValueError, match=f"array {name} has"):
        evalkit.load_checkpoint(bad)


def test_naht_checkpoint_with_a_longer_history_is_rejected():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    model = teammate.init_naht_model(env, rl.PpoConfig(hidden=(8,)), substream(0, "init"))
    _kind, named, meta = model.checkpoint_arrays()
    assert meta["history_k"] == 1
    with pytest.raises(ValueError, match="history_k is 2"):
        teammate.naht_from_arrays(dict(named), {**meta, "history_k": 2})
