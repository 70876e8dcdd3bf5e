import json

import numpy as np

from pursuit_lab import config, render, sim


def fixture_log(env, seed=21, steps=40):
    state, _ = sim.reset(env, seed)
    log = sim.TrajectoryLog(env)
    log.record_reset(state)
    rng = np.random.default_rng(0)
    for _ in range(steps):
        if state.terminal != sim.RUNNING:
            break
        actions = rng.uniform(-1, 1, size=env.players.num_p)
        out = sim.step(state, actions)
        log.record_step(state, actions, out)
    return log


def test_empty_trajectory_renders_arena_only(env_4p2e3o):
    svg = render.render_episode([], env_4p2e3o)
    assert svg.startswith("<?xml")
    assert svg.count("<circle") == 1  # the lone obstacle circle
    assert svg.count("<rect") == 4  # background + arena + two rectangle obstacles
    assert "<polyline" not in svg


def test_single_step_log_has_markers(env_4p2e3o):
    state, _ = sim.reset(env_4p2e3o, 3)
    log = sim.TrajectoryLog(env_4p2e3o)
    log.record_reset(state)
    svg = render.render_episode(log.records, env_4p2e3o)
    # one start ring + one end dot per pursuer; start square + end square per evader
    assert svg.count('stroke="#c62828"') >= 1
    assert svg.count("<polyline") == 0  # single point draws no trail


def test_render_is_deterministic_bytes(env_4p2e3o, tmp_path):
    log = fixture_log(env_4p2e3o)
    a = render.render_episode(log.records, env_4p2e3o)
    b = render.render_episode(log.records, env_4p2e3o)
    assert a == b

    path = tmp_path / "traj.ndjson"
    path.write_text(log.dumps(), encoding="utf-8")
    assert render.render_episode(sim.load_trajectory(path), env_4p2e3o) == a


def test_golden_file(env_4p2e3o, tmp_path):
    import pathlib

    golden_path = pathlib.Path(__file__).parent / "golden" / "render_4p2e3o.svg"
    log = fixture_log(env_4p2e3o, seed=21, steps=40)
    svg = render.render_episode(log.records, env_4p2e3o)
    assert golden_path.exists(), "golden file missing; regenerate with tests/golden/regen.py"
    assert svg == golden_path.read_text()


def test_capture_and_collision_markers(env_4p2e3o):
    records = [
        {
            "schema_version": 1,
            "step": 0,
            "pursuers": [[1.0, 1.0, 0.0], [2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [2.0, 2.0, 0.0]],
            "evaders": [[1.5, 3.0, 0.0], [2.5, 3.0, 0.0]],
            "captured": [False, False],
            "actions": None,
            "reward": 0.0,
            "captures": [],
            "collisions": [],
            "terminal": "running",
        },
        {
            "schema_version": 1,
            "step": 1,
            "pursuers": [[1.1, 1.0, 0.0], [2.1, 1.0, 0.0], [1.0, 2.1, 0.0], [2.0, 2.1, 0.0]],
            "evaders": [[1.5, 3.0, 0.0], [2.5, 3.0, 0.0]],
            "captured": [True, False],
            "actions": [0, 0, 0, 0],
            "reward": 10.0,
            "captures": [[0, 2]],
            "collisions": [{"kind": "drone-drone", "agents": [0, 1], "obstacle": None}],
            "terminal": "collision",
        },
    ]
    svg = render.render_episode(records, env_4p2e3o)
    assert render.CAPTURE_COLOR in svg
    assert render.COLLISION_COLOR in svg


def test_log_embeds_env_for_self_describing_render(env_4p2e3o, tmp_path):
    log = fixture_log(env_4p2e3o, steps=5)
    assert "env" in log.records[0]
    round_trip = config.parse_config(json.dumps(log.records[0]["env"]))
    assert round_trip == env_4p2e3o
