"""Whole updates against their oracle, bit for bit, and learners that
survive pickling between updates.

Every trainer's minibatch writes its gradients in place into the
optimizer's flat vector (`nn.AdamState.grad_flat`). `update_oracle` keeps
the list-returning losses and the concatenating Adam that this replaced;
each update kind runs on batches that its own collector gathered, at the
trained widths and dtype, and must give the oracle's parameters, Adam
state and diagnostics.
"""

import copy
import pickle

import pytest

import update_oracle
from pursuit_lab import nn, rl, sim, teammate
from pursuit_lab.config import with_control_split
from pursuit_lab.seeding import substream
from conftest import reduced_4p2e3o

CFG = rl.PpoConfig(batch=256, minibatch=64, epochs=3)
KINDS = ("selfplay", "mappo", "naht", "naht-nodec")


def setup(kind: str, seed: int):
    """(model, collector, update) of one trainer kind, built as its trainer builds them."""
    init, rollout = substream(seed, "init"), substream(seed, "rollout")
    if kind == "selfplay":
        env = with_control_split(reduced_4p2e3o(), 4, 0)
        model = rl.init_actor_critic(sim.obs_length(env), sim.obs_length(env), CFG, init)
        return model, rl.RolloutCollector(env, model, CFG, rollout), rl.ppo_update
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    teammates = rl.UniformTeammates([rl.ScriptedSlotPolicy("greedy")], 2)
    if kind == "mappo":
        model = rl.init_actor_critic(sim.obs_length(env), sim.central_obs_length(env, 2), CFG, init)
        return model, rl.RolloutCollector(env, model, CFG, rollout, teammates=teammates, central=True), rl.ppo_update
    model = teammate.init_naht_model(env, CFG, init, no_decoder=kind == "naht-nodec")
    return model, teammate.NahtCollector(env, model, CFG, rollout, teammates), teammate.naht_update


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_updates_equal_the_oracle_bitwise(kind, seed):
    model, collector, update = setup(kind, seed)
    batches = [collector.collect(CFG.batch)[0] for _ in range(2)]
    want_model = copy.deepcopy(model)
    want_update = update_oracle.naht_update if update is teammate.naht_update else update_oracle.ppo_update
    opt = nn.adam_init(model.params(), lr=CFG.lr)
    want_opt = update_oracle.adam_init(want_model.params(), lr=CFG.lr)
    rng, want_rng = substream(seed, "update"), substream(seed, "update")
    for i, batch in enumerate(batches, 1):
        diag = update(model, opt, batch, CFG, rng)
        want_diag = want_update(want_model, want_opt, batch, CFG, want_rng)
        assert_same_bytes(model.params(), want_model.params())
        assert_same_bytes([opt.m_flat, opt.v_flat], [want_opt.m_flat, want_opt.v_flat])
        assert opt.t == want_opt.t == i * CFG.epochs * (CFG.batch // CFG.minibatch)
        assert list(diag) == list(want_diag)
        assert [float(v).hex() for v in diag.values()] == [v.hex() for v in want_diag.values()]


def learner_state(learner: rl.Learner):
    return learner.model.params() + [learner.opt.m_flat, learner.opt.v_flat, learner.opt.grad_flat]


@pytest.mark.parametrize("kind", ["selfplay", "naht"])
def test_a_learner_pickled_between_updates_trains_on(kind):
    # pickle copies every array, a view included: a learner that kept views
    # of its optimizer's gradient vector would come back training on a
    # stale copy of it
    model, collector, update = setup(kind, 5)
    learner = rl.Learner(collector, model, CFG, substream(5, "update"), update)
    learner.step()
    restored = pickle.loads(pickle.dumps(learner))
    for _ in range(2):
        learner.step()
        restored.step()
        assert_same_bytes(learner_state(restored), learner_state(learner))
        assert restored.opt.t == learner.opt.t
        assert restored.metrics == learner.metrics
