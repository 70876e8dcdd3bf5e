import collections
import copy
import functools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pursuit_lab import config, evalkit, nn, rl, scripted, sim, teammate
from pursuit_lab.seeding import substream
from conftest import act_alone, reduced_4p2e3o


def make_record(terminal, steps=100, ret=1.0, block=0, index=0):
    return evalkit.EpisodeRecord(terminal=terminal, steps=steps, episode_return=ret, seed_block=block, index=index)


def test_metrics_fixture():
    # 3 successes at 100/200/300 steps, 1 collision, 1 timeout
    records = [
        make_record(sim.SUCCESS, 100, 10.0),
        make_record(sim.SUCCESS, 200, 11.0),
        make_record(sim.SUCCESS, 300, 12.0),
        make_record(sim.COLLISION, 40, -10.0),
        make_record(sim.TIMEOUT, 300, 2.0),
    ]
    report = evalkit.compute_metrics(records)
    assert report.suc == 60.0
    assert report.col == 1
    assert report.ast == 200.0
    assert report.rew == pytest.approx(np.mean([10, 11, 12, -10, 2]))


def test_metrics_all_success_and_all_collision():
    records = [make_record(sim.SUCCESS, 50 + i) for i in range(4)]
    report = evalkit.compute_metrics(records)
    assert report.suc == 100.0 and report.col == 0

    records = [make_record(sim.COLLISION, 10) for _ in range(4)]
    report = evalkit.compute_metrics(records)
    assert report.suc == 0.0
    assert report.col == 4
    assert report.ast is None


def test_metrics_partition_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        records = [
            make_record(rng.choice([sim.SUCCESS, sim.COLLISION, sim.TIMEOUT]), int(rng.integers(1, 300)))
            for _ in range(n)
        ]
        r = evalkit.compute_metrics(records)
        assert r.suc + r.col_pct + r.timeout_pct == pytest.approx(100.0)


def test_metrics_empty_rejected():
    with pytest.raises(ValueError):
        evalkit.compute_metrics([])


def test_zoo_compositions(tmp_path):
    assets = evalkit.ZooAssets()
    zoo1 = evalkit.build_zoo("zoo1", assets)
    assert zoo1.members == ("greedy",)

    with pytest.raises(ValueError):
        evalkit.build_zoo("zoo2", assets)  # needs two SP checkpoints

    # fabricate two SP checkpoints with recorded SUC
    cfg = rl.PpoConfig()
    env = reduced_4p2e3o()
    paths = []
    for i, suc in enumerate((54.0, 70.0, 60.0)):
        model = rl.init_actor_critic(sim.obs_length(env), sim.obs_length(env), cfg, substream(i, "init"))
        paths.append(rl.RunDir(tmp_path).archive(f"sp{i}.zip", model, env, cfg, {"selfplay_suc": suc}))
    assets = evalkit.ZooAssets(sp_checkpoints=paths)
    zoo2 = evalkit.build_zoo("zoo2", assets)
    # maximally separated pair: 70 (strong) and 54 (weak)
    assert zoo2.members == (f"ckpt:{paths[1]}", f"ckpt:{paths[0]}")
    zoo3 = evalkit.build_zoo("zoo3", assets)
    assert zoo3.members == ("greedy",) + zoo2.members
    with pytest.raises(ValueError):
        evalkit.build_zoo("zoo9", assets)

    # archives without a recorded score (a periodic checkpoint, a NAHT-D
    # model) are not ranked: they once became zoo 2's 0 % "weak" member
    model = rl.init_actor_critic(sim.obs_length(env), sim.obs_length(env), cfg, substream(3, "init"))
    unscored = rl.RunDir(tmp_path).archive("sp_000001024.zip", model, env, cfg, {"step": 1024})
    assets = evalkit.ZooAssets(sp_checkpoints=[paths[0], paths[1], unscored])
    assert evalkit.build_zoo("zoo2", assets).members == (f"ckpt:{paths[1]}", f"ckpt:{paths[0]}")
    with pytest.raises(ValueError, match="recorded SUC"):
        evalkit.build_zoo("zoo2", evalkit.ZooAssets(sp_checkpoints=[paths[0], unscored]))


def test_resolve_policy_checks_dims(tmp_path):
    env = reduced_4p2e3o()
    cfg = rl.PpoConfig()
    model = rl.init_actor_critic(7, 7, cfg, substream(0, "init"))  # wrong obs dim
    path = rl.RunDir(tmp_path).archive("bad.zip", model, env, cfg, {})
    with pytest.raises(ValueError):
        evalkit.resolve_policy(f"ckpt:{path}", env)
    # a NAHT-D checkpoint of a 3-evader arena: one more evader block
    naht_env = config.with_control_split(config.builtin_env("4p3e5o"), 2, 2, ("greedy",))
    naht_model = teammate.init_naht_model(naht_env, cfg, substream(0, "init"))
    naht_path = rl.RunDir(tmp_path).archive("naht.zip", naht_model, naht_env, cfg, {})
    with pytest.raises(ValueError, match="obs dim"):
        evalkit.resolve_policy(f"ckpt:{naht_path}", env)
    with pytest.raises(FileNotFoundError):
        evalkit.resolve_policy("ckpt:/nonexistent/x.zip", env)


def test_resolve_policy_rejects_a_naht_checkpoint_of_other_drone_counts(tmp_path):
    # 4 pursuers with 2 evaders and 3 pursuers with 3 evaders both give
    # 18-long observation rows, but the step records differ in layout
    trained_env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    other = replace(trained_env, players=replace(trained_env.players, num_p=3, num_e=3, num_ctrl=1))
    assert sim.obs_length(other) == sim.obs_length(trained_env)
    cfg = rl.PpoConfig(hidden=(8,))
    model = teammate.init_naht_model(trained_env, cfg, substream(0, "init"))
    path = rl.RunDir(tmp_path).archive("naht.zip", model, trained_env, cfg, {})
    assert isinstance(evalkit.resolve_policy(path, trained_env), teammate.NahtSlotPolicy)
    with pytest.raises(ValueError, match="4 pursuers and 2 evaders") as err:
        evalkit.resolve_policy(f"ckpt:{path}", other)
    assert path in str(err.value)


def test_resolve_policy_checks_an_archive_without_drone_counts_by_length(tmp_path):
    # archives written before trainers recorded the counts hold the model's
    # dims alone: any env of their observation length resolves them
    env = reduced_4p2e3o()
    other = replace(env, players=replace(env.players, num_p=3, num_e=3, num_ctrl=3))
    obs_dim = sim.obs_length(env)
    assert sim.obs_length(other) == obs_dim
    model = rl.init_actor_critic(obs_dim, obs_dim, rl.PpoConfig(hidden=(8,)), substream(0, "init"))
    kind, named, meta = model.checkpoint_arrays()
    path = str(tmp_path / "old.zip")
    nn.save_arrays(path, kind, named, extra=meta)
    assert "num_p" not in nn.load_manifest(path)["extra"]
    for env_cfg in (env, other):
        policy = evalkit.resolve_policy(f"ckpt:{path}", env_cfg)
        for a, b in zip(policy.model.params(), model.params()):
            np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError, match="obs dim"):
        evalkit.resolve_policy(path, config.builtin_env("4p3e5o"))


def test_run_evaluation_scripted_deterministic():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    zoo = evalkit.ZooSpec(zoo_id="zoo1", members=("greedy",))
    report1, records1 = evalkit.run_evaluation(["greedy"], zoo, env, n_episodes=10, seed=5)
    report2, records2 = evalkit.run_evaluation(["greedy"], zoo, env, n_episodes=10, seed=5)
    assert report1.to_json() == report2.to_json()
    assert [r.terminal for r in records1] == [r.terminal for r in records2]
    assert report1.n_episodes == 10
    # single-episode report equals that episode's literal outcome
    r_single, recs = evalkit.run_evaluation(["greedy"], zoo, env, n_episodes=1, seed=6)
    assert r_single.n_episodes == 1
    assert r_single.suc == (100.0 if recs[0].terminal == sim.SUCCESS else 0.0)
    assert r_single.rew == pytest.approx(recs[0].episode_return)


def test_run_evaluation_parallel_jobs_identical():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    zoo = evalkit.ZooSpec(zoo_id="zoo1", members=("greedy",))
    seq, _ = evalkit.run_evaluation(["greedy"], zoo, env, n_episodes=10, seed=7, jobs=1)
    par, _ = evalkit.run_evaluation(["greedy"], zoo, env, n_episodes=10, seed=7, jobs=4)
    assert seq.to_json() == par.to_json()


def count_loads(monkeypatch) -> list[str]:
    """The path of every later `nn.load_arrays` call, in order."""
    loads = []
    real_load = nn.load_arrays

    def counting_load(path, *args, **kwargs):
        loads.append(str(path))
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(nn, "load_arrays", counting_load)
    return loads


def test_run_evaluation_reads_each_checkpoint_once(tmp_path, monkeypatch):
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    obs_dim = sim.obs_length(env)
    refs = []
    for i in range(2):
        cfg = rl.PpoConfig(hidden=(16,))
        model = rl.init_actor_critic(obs_dim, obs_dim, cfg, substream(i, "init"))
        refs.append(f"ckpt:{rl.RunDir(tmp_path).archive(f'sp{i}.zip', model, env, cfg, {})}")
    loads = count_loads(monkeypatch)
    # the learner ref fills both learner slots; the zoo repeats a checkpoint
    zoo = evalkit.ZooSpec(zoo_id="zoo3", members=("greedy", refs[1], refs[0]))
    seq, _ = evalkit.run_evaluation([refs[0]], zoo, env, n_episodes=5, seed=4)
    assert sorted(loads) == sorted(ref[5:] for ref in refs)
    loads.clear()
    par, _ = evalkit.run_evaluation([refs[0]], zoo, env, n_episodes=5, seed=4, jobs=2)
    assert len(loads) == 2  # the workers receive the loaded policies
    assert par.to_json() == seq.to_json()


def test_zoo2_eval_loads_only_the_two_chosen_archives(tmp_path, monkeypatch):
    # ranking the zoo reads the manifests; only the chosen pair is loaded in full
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    obs_dim = sim.obs_length(env)
    paths = []
    for i, suc in enumerate((54.0, 70.0, 60.0)):
        cfg = rl.PpoConfig(hidden=(16,))
        model = rl.init_actor_critic(obs_dim, obs_dim, cfg, substream(i, "init"))
        paths.append(rl.RunDir(tmp_path).archive(f"sp{i}.zip", model, env, cfg, {"selfplay_suc": suc}))
    loads = count_loads(monkeypatch)
    zoo = evalkit.build_zoo("zoo2", evalkit.ZooAssets(sp_checkpoints=paths))
    evalkit.run_evaluation(["greedy"], zoo, env, n_episodes=2, seed=0)
    assert sorted(loads) == sorted([paths[0], paths[1]])


def test_zoo_ranking_checks_the_format_version(tmp_path, monkeypatch):
    env, cfg = reduced_4p2e3o(), rl.PpoConfig(hidden=(16,))
    obs_dim = sim.obs_length(env)
    model = rl.init_actor_critic(obs_dim, obs_dim, cfg, substream(0, "init"))
    good = rl.RunDir(tmp_path).archive("good.zip", model, env, cfg, {"selfplay_suc": 50.0})
    monkeypatch.setattr(nn, "CHECKPOINT_FORMAT_VERSION", 2)
    future = rl.RunDir(tmp_path).archive("future.zip", model, env, cfg, {"selfplay_suc": 60.0})
    monkeypatch.undo()
    with pytest.raises(ValueError, match="format_version 2"):
        evalkit.build_zoo("zoo2", evalkit.ZooAssets(sp_checkpoints=[good, future]))


def test_load_checkpoint_rejects_an_unknown_kind(tmp_path):
    path = tmp_path / "odd.zip"
    nn.save_arrays(path, "critic_only", [("w", np.zeros(3, dtype=np.float32))])
    with pytest.raises(ValueError, match="unknown checkpoint kind 'critic_only'"):
        evalkit.load_checkpoint(path)


def test_ast_bounded_by_horizon():
    env = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    zoo = evalkit.ZooSpec(zoo_id="zoo1", members=("greedy",))
    report, records = evalkit.run_evaluation(["greedy"], zoo, env, n_episodes=20, seed=8)
    if report.ast is not None:
        assert report.ast <= env.task.task_horizon
    for rec in records:
        assert rec.steps <= env.task.task_horizon


def test_zoo_sampling_uniformity():
    # selection frequency of each zoo3 member within 2% of uniform over 10k draws
    members = ("greedy", "ckpt:a", "ckpt:b")
    counts = {m: 0 for m in members}
    n = 10_000
    for e in range(n):
        zoo_rng = substream(9, "zoo", 0, e)
        for _slot in range(2):
            counts[members[int(zoo_rng.integers(0, len(members)))]] += 1
    total = sum(counts.values())
    for m in members:
        assert abs(counts[m] / total - 1 / 3) < 0.02


def test_report_serialization(tmp_path):
    records = [make_record(sim.SUCCESS, 100, 10.0, block=b) for b in range(5)]
    report = evalkit.compute_metrics(records, seed=3)
    text = report.to_json()
    assert '"suc": 100.0' in text
    path = tmp_path / "report.csv"
    row = report.row()
    rl.RunDir(tmp_path).csv("report.csv", list(row), [row])
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("suc,col,ast,rew")
    assert len(lines) == 2

    # both files hold the same rounded row; one seed block leaves the stds None
    records = [make_record(sim.SUCCESS, 100, 1.0), make_record(sim.COLLISION, 7, 0.5), make_record(sim.TIMEOUT, 9, 0.0)]
    report = evalkit.compute_metrics(records, seed=3)
    doc = json.loads(report.to_json())
    assert doc["suc"] == 33.333333 and doc["suc_std"] is None and doc["col"] == 1
    row = report.row()
    rl.RunDir(tmp_path).csv("report.csv", list(row), [row])
    header, values = path.read_text().strip().splitlines()
    assert header.split(",") == list(doc)
    assert values.split(",") == ["" if v is None else str(v) for v in doc.values()]


# ---------------------------------------------------------------------------
# Episodes whose slots read no observations skip building them
# ---------------------------------------------------------------------------

def reference_episode(env_cfg, slot_policies, seed):
    """`play_episode`'s loop with every step observing and every slot handed the rows."""
    state, obs = sim.reset(env_cfg, seed)
    ep_rng = substream(seed, "policies")
    slot_states = [pol.begin_episode(ep_rng) for pol in slot_policies]
    episode_return = 0.0
    while state.terminal == sim.RUNNING:
        actions = np.zeros(env_cfg.players.num_p)
        for i, (pol, slot_state) in enumerate(zip(slot_policies, slot_states)):
            actions[i] = act_alone(pol, state, obs, i, slot_state)
        out = sim.step(state, actions)
        episode_return += out.reward
        obs = sim.observe_all([state])[0]
    return evalkit.EpisodeRecord(state.terminal, state.step, episode_return, seed_block=0, index=0)


def scripted_team(kinds):
    make = {"greedy": lambda: rl.ScriptedSlotPolicy("greedy"), "vicsek": lambda: rl.ScriptedSlotPolicy("vicsek"),
            "random": rl.RandomSlotPolicy}
    return [make[kind]() for kind in kinds]


@pytest.mark.parametrize("name", config.BUILTIN_ENV_NAMES)
def test_scripted_episode_equals_the_observing_loop_and_observes_only_at_reset(name, monkeypatch):
    # alone, and side by side with six episodes of each seed
    cfg = config.builtin_env(name)
    real_observe_all = sim.observe_all
    calls = []

    def counting_observe_all(states):
        calls.append(len(states))
        return real_observe_all(states)

    teams = [(1, ["greedy"] * 4), (2, ["greedy", "vicsek", "random", "greedy"])]
    wants = [reference_episode(cfg, scripted_team(kinds), seed) for seed, kinds in teams]
    monkeypatch.setattr(sim, "observe_all", counting_observe_all)
    for (seed, kinds), want in zip(teams, wants):
        got = evalkit.play_episode(cfg, scripted_team(kinds), seed)
        assert got == want
        assert got.episode_return.hex() == want.episode_return.hex()
        assert calls == [1]  # the reset's
        calls.clear()
    copies = 6
    got = evalkit.play_episodes(cfg, [(scripted_team(kinds), seed) for seed, kinds in teams] * copies)
    assert got == wants * copies
    assert calls == [1] * len(teams)  # the resets', one per distinct seed


class RecordingNet(rl.NetSlotPolicy):
    def __init__(self, model):
        super().__init__(model)
        self.rows = []

    def act(self, seats):
        self.rows.extend(ep.obs[i].copy() for ep, slots, _ in seats for i in slots)
        return super().act(seats)


def test_a_team_with_a_net_slot_still_receives_its_observation_rows():
    cfg = config.builtin_env("4p3e5o")
    model = rl.init_actor_critic(sim.obs_length(cfg), sim.obs_length(cfg), rl.PpoConfig(), substream(0, "init"))
    want_net, got_net = RecordingNet(model), RecordingNet(model)
    want = reference_episode(cfg, [want_net] + scripted_team(["greedy", "random", "greedy"]), 3)
    got = evalkit.play_episode(cfg, [got_net] + scripted_team(["greedy", "random", "greedy"]), 3)
    assert got == want
    assert len(got_net.rows) == got.steps
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got_net.rows, want_net.rows))


# ---------------------------------------------------------------------------
# Only scripted slots run a team kernel, once per episode, kind and step
# ---------------------------------------------------------------------------

def test_kernels_run_once_per_episode_scripted_kind_and_step(monkeypatch):
    cfg = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    net = rl.init_actor_critic(sim.obs_length(cfg), sim.obs_length(cfg), rl.PpoConfig(), substream(0, "init"))
    naht = teammate.init_naht_model(cfg, rl.PpoConfig(), substream(0, "init"))
    calls = []
    for kind, real in list(scripted.PURSUER_KERNELS.items()):

        def counting(env_cfg, pursuers, evaders, captured, slots, kind=kind, real=real):
            calls.append((kind, tuple(slots)))
            return real(env_cfg, pursuers, evaders, captured, slots)

        monkeypatch.setitem(scripted.PURSUER_KERNELS, kind, counting)
    monkeypatch.setattr(sim, "pursuer_view", None)  # no slot builds a view
    learned = [rl.NetSlotPolicy(net), rl.RandomSlotPolicy(), teammate.NahtSlotPolicy(naht),
               rl.NetSlotPolicy(net, deterministic=False)]
    record = evalkit.play_episode(cfg, learned, 4)
    assert record.steps > 0 and calls == []

    record = evalkit.play_episode(cfg, scripted_team(["greedy", "vicsek", "greedy", "vicsek"]), 4)
    assert calls == [("greedy", (0, 2)), ("vicsek", (1, 3))] * record.steps
    calls.clear()

    # side by side, with other slots in between: a call per episode still
    # covers exactly that episode's slots of its kind
    teams = [
        ([rl.NetSlotPolicy(net)] + scripted_team(["vicsek", "random", "vicsek"]), 1),
        (scripted_team(["random", "greedy", "greedy", "greedy"]), 2),
        ([teammate.NahtSlotPolicy(naht)] + scripted_team(["greedy", "vicsek"]) + [rl.NetSlotPolicy(net)], 3),
    ]
    records = evalkit.play_episodes(cfg, teams)
    want = {("vicsek", (1, 3)): records[0].steps, ("greedy", (1, 2, 3)): records[1].steps,
            ("greedy", (1,)): records[2].steps, ("vicsek", (2,)): records[2].steps}
    assert collections.Counter(calls) == want


def test_each_policy_object_acts_once_per_step_for_its_slots_in_every_episode(monkeypatch):
    # one act call per policy object and step, whose seats are the running
    # episodes that hold it, in order, with its slots there; and one forward
    # of a deterministic net per step, however many slots and episodes it drives
    cfg = reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))
    obs_dim, ppo = sim.obs_length(cfg), rl.PpoConfig(hidden=(16,))
    net = rl.init_actor_critic(obs_dim, obs_dim, ppo, substream(0, "init"))
    det = rl.NetSlotPolicy(net)
    sto = rl.NetSlotPolicy(rl.init_actor_critic(obs_dim, obs_dim, ppo, substream(1, "init")), deterministic=False)
    naht = teammate.NahtSlotPolicy(teammate.init_naht_model(cfg, ppo, substream(0, "init")))
    rand, greedy, vicsek = rl.RandomSlotPolicy(), rl.ScriptedSlotPolicy("greedy"), rl.ScriptedSlotPolicy("vicsek")
    teams = [[det, greedy, det, rand], [sto, det, vicsek, naht], [greedy, vicsek, greedy, det], [naht, naht, sto, rand]]
    acts, forwards, running = [], [], []
    for cls in (rl.NetSlotPolicy, rl.RandomSlotPolicy, rl.ScriptedSlotPolicy, teammate.NahtSlotPolicy):

        def act(self, seats, real=cls.act):
            acts[-1].append((id(self), [(id(ep), slots) for ep, slots, _ in seats]))
            return real(self, seats)

        monkeypatch.setattr(cls, "act", act)

    def forward(mlp, x, real=nn.mlp_forward):
        forwards[-1] += mlp is net.actor
        return real(mlp, x)

    def step(episodes, real=rl.step_episodes):
        acts.append([])
        forwards.append(0)
        running.append([id(ep) for ep in episodes])
        return real(episodes)

    monkeypatch.setattr(nn, "mlp_forward", forward)
    monkeypatch.setattr(rl, "step_episodes", step)
    records = evalkit.play_episodes(cfg, [(team, seed) for seed, team in enumerate(teams)])
    assert len({r.steps for r in records}) > 1  # episodes end apart
    assert len(acts) == max(r.steps for r in records)
    team_of = dict(zip(running[0], teams))
    for step_acts, step_forwards, step_running in zip(acts, forwards, running):
        want = {}
        for ep in step_running:
            team = team_of[ep]
            for pol in dict.fromkeys(team):
                want.setdefault(id(pol), []).append((ep, [i for i, other in enumerate(team) if other is pol]))
        assert len(step_acts) == len(want) and dict(step_acts) == want
        assert step_forwards == (id(det) in want)


# ---------------------------------------------------------------------------
# A policy object in several slots plays like one object per slot
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["naht-d", "random"])
def test_one_policy_object_in_two_slots_plays_like_two_objects(kind):
    # a zoo draws with replacement and shares one object per ref, so a
    # stateful policy must keep one step record and rng per slot
    cfg = config.with_control_split(config.builtin_env("4p2e3o"), 2, 2, ("greedy",))
    model = teammate.init_naht_model(cfg, rl.PpoConfig(), substream(0, "init"))
    make = {"naht-d": lambda: teammate.NahtSlotPolicy(model), "random": rl.RandomSlotPolicy}[kind]
    greedy = [rl.ScriptedSlotPolicy("greedy")] * 2
    for seed in range(3):
        shared = make()
        want = evalkit.play_episode(cfg, greedy + [make(), make()], seed)
        got = evalkit.play_episode(cfg, greedy + [shared, shared], seed)
        assert got == want
        assert got.episode_return.hex() == want.episode_return.hex()


# ---------------------------------------------------------------------------
# Episodes played side by side equal each episode played alone
# ---------------------------------------------------------------------------

SLOT_KINDS = ("net", "other-net", "stochastic-net", "naht-d", "greedy", "vicsek", "random")


@functools.cache
def arena_policies(name):
    """(arena, slot policy of each kind), each policy one object that all
    slots and episodes share; the nets' heads are scaled up so that they
    steer."""
    cfg = config.builtin_env(name)
    obs_dim = sim.obs_length(cfg)
    ppo = rl.PpoConfig(hidden=(32, 32))
    nets = []
    for i in range(2):
        model = rl.init_actor_critic(obs_dim, obs_dim, ppo, substream(i, "init"))
        model.actor.weights[-1] *= 100.0
        nets.append(model)
    naht = teammate.init_naht_model(cfg, ppo, substream(2, "init"))
    policies = {
        "net": rl.NetSlotPolicy(nets[0]),
        "other-net": rl.NetSlotPolicy(nets[1]),
        "stochastic-net": rl.NetSlotPolicy(nets[0], deterministic=False),
        "naht-d": teammate.NahtSlotPolicy(naht),
        "greedy": rl.ScriptedSlotPolicy("greedy"),
        "vicsek": rl.ScriptedSlotPolicy("vicsek"),
        "random": rl.RandomSlotPolicy(),
    }
    return cfg, policies


def side_by_side_episodes(name):
    """(arena name, up to 6 (slot kinds, seed) episodes)."""
    num_p = config.builtin_env(name).players.num_p
    team = st.lists(st.sampled_from(SLOT_KINDS), min_size=num_p, max_size=num_p)
    return st.tuples(st.just(name), st.lists(st.tuples(team, st.integers(0, 2**63 - 1)), max_size=6))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(config.BUILTIN_ENV_NAMES).flatmap(side_by_side_episodes))
@example(("4p2e3o", []))  # no episodes give no records
@example(("4p3e5o", [(["net", "greedy", "other-net", "random"], seed) for seed in range(5)]))  # one pass builds five episodes' rows
def test_episodes_played_side_by_side_equal_each_played_alone(drawn):
    name, teams = drawn
    cfg, policies = arena_policies(name)
    episodes = [([policies[kind] for kind in kinds], seed) for kinds, seed in teams]
    got = evalkit.play_episodes(cfg, episodes)
    want = [reference_episode(cfg, slots, seed) for slots, seed in episodes]
    assert got == want
    assert [r.episode_return.hex() for r in got] == [r.episode_return.hex() for r in want]


# ---------------------------------------------------------------------------
# The episodes of one seed start from one reset, each from its own copy
# ---------------------------------------------------------------------------

def repeated_seed_episodes(name):
    """(arena, episodes of every slot kind on two seeds, each seed thrice)."""
    cfg, policies = arena_policies(name)
    teams = [
        (["net", "greedy", "other-net", "random"], 5),
        (["stochastic-net", "naht-d", "vicsek", "net"], 7),
        (["greedy", "vicsek", "greedy", "greedy"], 5),
        (["net", "net", "naht-d", "random"], 7),
        (["random", "stochastic-net", "net", "vicsek"], 5),
        (["naht-d", "other-net", "greedy", "net"], 7),
    ]
    return cfg, [([policies[kind] for kind in kinds], seed) for kinds, seed in teams]


def start_of(state, obs):
    """A snapshot of a start: its poses and flags and its rows' bytes."""
    return copy.deepcopy((state.pursuers, state.evaders, state.captured)), obs.tobytes()


@pytest.mark.parametrize("name", ["4p2e3o", "4p3e5o"])
def test_episodes_of_one_seed_reset_once_and_keep_the_records_played_alone(name, monkeypatch):
    cfg, episodes = repeated_seed_episodes(name)
    want = [evalkit.play_episode(cfg, slots, seed) for slots, seed in episodes]
    resets = []

    def counting_reset(env_cfg, seed, real=sim.reset):
        resets.append(seed)
        return real(env_cfg, seed)

    monkeypatch.setattr(sim, "reset", counting_reset)
    got = evalkit.play_episodes(cfg, episodes)
    assert got == want
    assert [r.episode_return.hex() for r in got] == [r.episode_return.hex() for r in want]
    assert resets == [5, 7]


@pytest.mark.parametrize("name", ["4p2e3o", "4p3e5o"])
def test_episodes_of_one_seed_share_no_pose_flag_or_rows(name, monkeypatch):
    # each episode starts where a reset of its seed does, and changing one
    # episode's start in place leaves every other episode's start as it was
    cfg, episodes = repeated_seed_episodes(name)
    started = []
    monkeypatch.setattr(evalkit, "_play", lambda built: started.extend(built) or [])
    evalkit.play_episodes(cfg, episodes)
    assert [start_of(ep.state, ep.obs) for ep in started] == [start_of(*sim.reset(cfg, seed)) for _, seed in episodes]
    for i, ep in enumerate(started):
        before = [start_of(other.state, other.obs) for other in started]
        for pose in ep.state.pursuers + ep.state.evaders:
            pose[0] += 1.0
        ep.state.captured[0] = not ep.state.captured[0]
        ep.obs += 1.0
        after = [start_of(other.state, other.obs) for other in started]
        changed = [[x != y for x, y in zip(a, b)] for a, b in zip(after, before)]
        assert changed == [[j == i] * 2 for j in range(len(started))]
