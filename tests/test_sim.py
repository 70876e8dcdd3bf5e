import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from pursuit_lab import config, geometry, scripted, sim
import sim_oracle
from conftest import assert_states_equal, make_state, open_arena, reduced_4p2e3o


def collisions(state):
    return sim.detect_collisions(state.cfg, state.pursuers)[0]


def captures(state):
    return sim.detect_captures(state.cfg, state.pursuers, state.evaders, state.evader_gaps)[0]


def test_reset_is_deterministic(env_4p2e3o):
    s1, o1 = sim.reset(env_4p2e3o, seed=7)
    s2, o2 = sim.reset(env_4p2e3o, seed=7)
    assert_states_equal(s1, s2)
    np.testing.assert_array_equal(o1, o2)


def test_reset_seed_changes_layout(env_4p2e3o):
    s1, _ = sim.reset(env_4p2e3o, seed=7)
    s2, _ = sim.reset(env_4p2e3o, seed=8)
    assert s1.pursuers != s2.pursuers


def test_reset_poses_inside_regions(env_4p2e3o):
    region = env_4p2e3o.players.respawn_region.pursuer
    for seed in range(25):
        state, _ = sim.reset(env_4p2e3o, seed=seed)
        for x, y, _h in state.pursuers:
            assert region.x_min <= x <= region.x_max
            assert region.y_min <= y <= region.y_max
        eregion = env_4p2e3o.players.respawn_region.evader
        for x, y, _h in state.evaders:
            assert eregion.x_min <= x <= eregion.x_max
            assert eregion.y_min <= y <= eregion.y_max
        # no instant collisions or captures at spawn
        assert collisions(state) == []
        assert captures(state) == []


def test_fixed_respawn_layout(env_4p2e3o):
    cfg = config.EnvConfig(
        players=config.PlayersCfg(
            **{**env_4p2e3o.players.__dict__, "random_respawn": False}
        ),
        site=env_4p2e3o.site,
        task=env_4p2e3o.task,
    )
    state, _ = sim.reset(cfg, seed=0)
    region = cfg.players.respawn_region.pursuer
    expected_x = [region.x_min + (i + 0.5) * region.width / 4 for i in range(4)]
    pursuers, evaders = np.array(state.pursuers), np.array(state.evaders)
    np.testing.assert_allclose(pursuers[:, 0], expected_x)
    np.testing.assert_allclose(pursuers[:, 1], (region.y_min + region.y_max) / 2)
    np.testing.assert_allclose(pursuers[:, 2], math.pi / 2)  # facing arena center
    np.testing.assert_allclose(evaders[:, 2], -math.pi / 2)
    s2, _ = sim.reset(cfg, seed=99)
    assert_states_equal(state, s2)


def test_straight_step_displacement(env_4p2e3o):
    # velocity_p = 0.3 at fps 10 -> exactly 0.03 m along the heading.
    state = make_state(
        env_4p2e3o,
        pursuers=[[1.0, 1.0, 0.0], [1.0, 4.0, math.pi / 2], [2.6, 1.0, math.pi], [2.6, 4.0, -math.pi / 2]],
        evaders=[[0.3, 2.5, 0.0], [3.3, 2.5, 0.0]],
    )
    before = np.array(state.pursuers)
    sim.step(state, [0.0, 0.0, 0.0, 0.0])
    after = np.array(state.pursuers)
    moved = after[:, :2] - before[:, :2]
    for i, (dx, dy) in enumerate(moved):
        assert math.hypot(dx, dy) == pytest.approx(0.03, abs=1e-12)
        expected = (0.03 * math.cos(before[i, 2]), 0.03 * math.sin(before[i, 2]))
        assert (dx, dy) == pytest.approx(expected, abs=1e-12)
    np.testing.assert_array_equal(after[:, 2], before[:, 2])


def test_capture_within_range(env_4p2e3o):
    # After motion the pursuer sits 0.19 m from an uncaptured evader: the
    # pursuer moves 0.03 m north, the evader flees 0.06 m north.
    state = make_state(
        env_4p2e3o,
        pursuers=[[1.0, 2.28, math.pi / 2], [0.4, 0.5, 0.0], [1.8, 0.5, 0.0], [3.2, 0.5, 0.0]],
        evaders=[[1.0, 2.28 + 0.03 + 0.19 - 0.06, math.pi / 2], [3.0, 4.5, math.pi / 2]],
    )
    out = sim.step(state, [0.0, 0.0, 0.0, 0.0])
    assert any(ev.evader == 0 for ev in out.captures)
    assert state.captured[0]


def test_an_exact_capture_tie_goes_to_the_lower_pursuer():
    # the evader sits 0.125 m from pursuers 1 and 2, on dyadic coordinates,
    # so the two distances are equal to the bit; pursuer 0 is far away
    cfg = still(open_arena(num_p=3, num_e=1))
    state = make_state(cfg, [[3.0, 4.5, 0.0], [1.0, 2.5, 0.0], [1.25, 2.5, math.pi]], [[1.125, 2.5, 0.0]])
    assert state.evader_gaps == [0.125]
    out = sim.step(state, [0.0, 0.0, 0.0])
    assert out.captures == [sim.CaptureEvent(evader=0, pursuer=1)]
    assert (state.captured, state.evader_gaps) == ([True], [None])


def test_drone_drone_collision_terminates(env_4p2e3o):
    state = make_state(
        env_4p2e3o,
        pursuers=[[1.0, 2.5, 0.0], [1.25, 2.5, math.pi], [0.4, 0.5, 0.0], [3.2, 0.5, 0.0]],
        evaders=[[0.3, 4.5, math.pi / 2], [3.3, 4.5, math.pi / 2]],
    )
    # heads-on: gap 0.25 - 0.06 = 0.19 < 0.2 after the step
    out = sim.step(state, [0.0, 0.0, 0.0, 0.0])
    assert any(c.kind == "drone-drone" and c.agents == (0, 1) for c in out.collisions)
    assert out.terminal == sim.COLLISION
    assert out.reward == pytest.approx(-sim.R_COL)
    with pytest.raises(RuntimeError):
        sim.step(state, [0.0, 0.0, 0.0, 0.0])


def test_collision_thresholds_boundary(env_4p2e3o):
    state = make_state(
        env_4p2e3o,
        pursuers=[[1.0, 2.5, 0.0], [1.21, 2.5, 0.0], [0.4, 0.6, 0.0], [3.2, 0.6, 0.0]],
        evaders=[[0.3, 4.5, 0.0], [3.3, 4.5, 0.0]],
    )
    assert collisions(state) == []  # 0.21 m apart: no event

    # 0.09 m from obstacle1's edge (rectangle at (0.8, 1.8), hx=hy=0.2)
    state.pursuers[2] = [0.8, 1.8 - 0.2 - 0.09, 0.0]
    events = collisions(state)
    assert any(c.kind == "drone-obstacle" and c.agents == (2,) and c.obstacle == 0 for c in events)

    # wall clearance 0.09
    state.pursuers[2] = [0.09, 2.6, 0.0]
    events = collisions(state)
    assert any(c.kind == "drone-wall" and c.agents == (2,) for c in events)


def brute_force_events(state):
    """O(n^2) oracle over pursuers, obstacles, walls (python loops only)."""
    cfg = state.cfg
    found = set()
    n = cfg.players.num_p
    for i in range(n):
        xi, yi, _ = state.pursuers[i]
        for j in range(n):
            if j <= i:
                continue
            xj, yj, _ = state.pursuers[j]
            d = math.sqrt((xi - xj) ** 2 + (yi - yj) ** 2)
            if d < cfg.task.capture_range:
                found.add(("drone-drone", i, j))
        for k, ob in enumerate(cfg.site.obstacles):
            if ob.clearance(xi, yi) < cfg.task.safe_radius:
                found.add(("drone-obstacle", i, k))
        walls = min(xi, cfg.site.boundary_width - xi, yi, cfg.site.boundary_height - yi)
        if walls < cfg.task.safe_radius:
            found.add(("drone-wall", i))
    return found


def brute_force_captures(state):
    cfg = state.cfg
    found = set()
    for e in range(cfg.players.num_e):
        if state.captured[e]:
            continue
        best, best_p = None, None
        ex, ey, _ = state.evaders[e]
        for i, (px, py, _) in enumerate(state.pursuers):
            d = math.sqrt((px - ex) ** 2 + (py - ey) ** 2)
            if best is None or d < best:
                best, best_p = d, i
        if best < cfg.task.capture_range:
            found.add((e, best_p))
    return found


def random_scene(cfg, rng):
    num_p, num_e = cfg.players.num_p, cfg.players.num_e
    pursuers = np.column_stack(
        [
            rng.uniform(0, cfg.site.boundary_width, num_p),
            rng.uniform(0, cfg.site.boundary_height, num_p),
            rng.uniform(-math.pi, math.pi, num_p),
        ]
    )
    evaders = np.column_stack(
        [
            rng.uniform(0, cfg.site.boundary_width, num_e),
            rng.uniform(0, cfg.site.boundary_height, num_e),
            rng.uniform(-math.pi, math.pi, num_e),
        ]
    )
    captured = rng.random(num_e) < 0.2
    return make_state(cfg, pursuers, evaders, captured)


def test_collision_and_capture_match_brute_force(env_4p2e3o):
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        state = random_scene(env_4p2e3o, rng)
        got = {
            (("drone-drone",) + c.agents) if c.kind == "drone-drone"
            else (("drone-obstacle", c.agents[0], c.obstacle) if c.kind == "drone-obstacle" else ("drone-wall", c.agents[0]))
            for c in collisions(state)
        }
        assert got == brute_force_events(state)
        caps = {(ev.evader, ev.pursuer) for ev in captures(state)}
        assert caps == brute_force_captures(state)


def test_observation_masking_and_frame(env_4p2e3o):
    # Agent at arena center facing +x; evader 0 straight ahead at 1.0 m,
    # evader 1 out of reception range (2.5 m).
    state = make_state(
        env_4p2e3o,
        pursuers=[[1.3, 2.5, 0.0], [0.3, 0.5, 0.0], [1.8, 0.5, 0.0], [3.3, 0.5, 0.0]],
        evaders=[[2.3, 2.5, 0.0], [1.3, 5.0 - 0.0, 0.0]],
    )
    state.evaders[1] = [1.3 + 2.5, 2.5, 0.0]  # due east at 2.5 m, beyond range 2
    # keep it inside the arena: 1.3+2.5=3.8 > 3.6 -> move reference agent left
    state.pursuers[0] = [0.5, 2.5, 0.0]
    state.evaders[0] = [1.5, 2.5, 0.0]
    state.evaders[1] = [3.0, 2.5, 0.0]  # 2.5 m away
    obs = sim.observe_all([state])[0, 0]
    assert obs[0] == pytest.approx(1.0 / 2.0)  # distance 1.0 normalized by reception 2
    assert obs[1] == pytest.approx(0.0)  # dead ahead
    assert obs[2] == 1.0
    assert tuple(obs[3:6]) == (0.0, 0.0, 0.0)  # masked: 2.5 m > 2 m


def test_observation_components_bounded(env_4p2e3o):
    rng = np.random.default_rng(5)
    for _ in range(200):
        state = random_scene(env_4p2e3o, rng)
        obs = sim.observe_all([state])[0]
        assert np.all(obs <= 1.0 + 1e-12) and np.all(obs >= -1.0 - 1e-12)
        # masked triples are exactly zero
        for row in obs:
            for k in range(0, len(row), 3):
                if row[k + 2] == 0.0:
                    assert row[k] == 0.0 and row[k + 1] == 0.0


def test_nearest_obstacle_block_reflects_wall(env_4p2e3o):
    # 0.05 m from the left wall, every obstacle farther: brute-force min wins.
    state = make_state(
        env_4p2e3o,
        pursuers=[[0.05, 2.5, 0.0], [0.5, 0.5, 0.0], [1.8, 0.5, 0.0], [3.3, 0.5, 0.0]],
        evaders=[[0.3, 4.5, 0.0], [3.3, 4.5, 0.0]],
    )
    clear, points = sim.nearest_static_all(env_4p2e3o, np.array([[0.05, 2.5]]))
    clearance, point = clear[0], tuple(points[0])
    brute = min(
        [ob.clearance(0.05, 2.5) for ob in env_4p2e3o.site.obstacles]
        + [geometry.wall_clearance(0.05, 2.5, 3.6, 5.0)]
    )
    assert clearance == pytest.approx(brute) == pytest.approx(0.05)
    assert point == (0.0, 2.5)
    obs = sim.observe_all([state])[0, 0]
    num_e = env_4p2e3o.players.num_e
    block = obs[3 * num_e : 3 * num_e + 3]
    assert block[0] == pytest.approx(0.05 / 2.0)
    assert block[1] == pytest.approx(1.0)  # directly behind (agent faces +x): pi
    assert block[2] == 1.0


def still(cfg):
    """`cfg` with both drones' speeds at 0: a step keeps every position, so
    a test can place the drones where the reward is decided."""
    return replace(cfg, players=replace(cfg.players, velocity_p=0.0, velocity_e=0.0))


def stepped_reward(state, actions):
    # the float step's reward, with the bits of the array oracle's
    want = sim_oracle.step(copy.deepcopy(state), actions).reward
    got = sim.step(state, actions).reward
    assert got.hex() == want.hex()
    return got


def test_reward_stationary_zero():
    cfg = still(open_arena(num_p=2, num_e=1))
    state = make_state(cfg, [[1.0, 1.0, 0.0], [1.0, 4.0, math.pi]], [[3.0, 2.5, 0.0]])
    assert stepped_reward(state, [0.0, 0.0]) == 0.0


def test_reward_single_capture_is_r_cap():
    cfg = still(open_arena(num_p=1, num_e=1))
    state = make_state(cfg, [[1.0, 1.0, 0.0]], [[1.1, 1.0, 0.0]])
    assert stepped_reward(state, [0.0]) == sim.R_CAP == 10.0
    assert state.captured == [True]


def test_reward_shaping_fixture():
    # min-distance to the lone evader shrinks by 0.03 m (0.3 m/s at 10 fps) -> +0.03
    cfg = open_arena(num_p=1, num_e=1)
    cfg = replace(cfg, players=replace(cfg.players, velocity_e=0.0))
    towards = make_state(cfg, [[1.0, 2.5, 0.0]], [[3.0, 2.5, 0.0]])
    assert stepped_reward(towards, [0.0]) == pytest.approx(sim.C_SHAPE * 0.03)
    # moving away is not penalized by the one-sided shaping
    away = make_state(cfg, [[1.0, 2.5, math.pi]], [[3.0, 2.5, 0.0]])
    assert stepped_reward(away, [0.0]) == 0.0


def test_reward_proximity_band():
    cfg = still(open_arena(num_p=2, num_e=1))
    # drones 0.25 m apart: inside the [0.2, 0.3) band, both count
    state = make_state(cfg, [[1.0, 2.5, 0.0], [1.25, 2.5, 0.0]], [[3.0, 4.0, 0.0]])
    assert stepped_reward(state, [0.0, 0.0]) == pytest.approx(-2 * sim.C_PROX)


def test_terminal_precedence(env_4p2e3o):
    # capture-completing step that also collides -> collision wins
    state = make_state(
        env_4p2e3o,
        pursuers=[[1.0, 2.5, 0.0], [1.15, 2.5, 0.0], [0.4, 0.5, 0.0], [3.2, 0.5, 0.0]],
        evaders=[[1.05, 2.5, 0.0], [1.1, 2.6, 0.0]],
    )
    assert sim.is_terminal(state, collisions=collisions(state)) == sim.COLLISION
    state.captured = [True] * len(state.captured)
    assert sim.is_terminal(state, collisions=collisions(state)) == sim.COLLISION
    assert sim.is_terminal(state, collisions=[]) == sim.SUCCESS


def test_timeout_terminal(env_4p2e3o):
    state = make_state(
        env_4p2e3o,
        pursuers=[[1.0, 1.0, 0.0], [0.4, 0.5, 0.0], [1.8, 0.5, 0.0], [3.2, 0.5, 0.0]],
        evaders=[[0.3, 4.5, 0.0], [3.3, 4.5, 0.0]],
        step=env_4p2e3o.task.task_horizon,
    )
    assert sim.is_terminal(state, collisions=[]) == sim.TIMEOUT
    state.captured = [True] * len(state.captured)
    assert sim.is_terminal(state, collisions=[]) == sim.SUCCESS  # success beats timeout


def test_captured_evaders_stay_frozen():
    cfg = open_arena(num_p=2, num_e=2, velocity_e=0.6, horizon=50)
    state = make_state(
        cfg,
        [[1.0, 2.4, math.pi / 2], [2.6, 1.0, 0.0]],
        [[1.0, 2.55, math.pi / 2], [3.0, 4.0, math.pi / 2]],
    )
    out = sim.step(state, [0.0, 0.0])
    assert any(ev.evader == 0 for ev in out.captures)
    frozen = list(state.evaders[0])
    for _ in range(5):
        if state.terminal != sim.RUNNING:
            break
        sim.step(state, [0.0, 0.0])
        assert state.evaders[0] == frozen
        # captured evader is masked in observations
        assert tuple(sim.observe_all([state])[0, 0, 0:3]) == (0.0, 0.0, 0.0)


def test_headings_stay_normalized_positions_finite(env_4p2e3o):
    state, _ = sim.reset(env_4p2e3o, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(200):
        if state.terminal != sim.RUNNING:
            break
        sim.step(state, rng.uniform(-1, 1, size=4))
        for rows in (np.array(state.pursuers), np.array(state.evaders)):
            assert np.all(np.isfinite(rows))
            assert np.all(rows[:, 2] > -math.pi) and np.all(rows[:, 2] <= math.pi)


def test_action_validation(env_4p2e3o):
    state, _ = sim.reset(env_4p2e3o, seed=0)
    with pytest.raises(ValueError):
        sim.step(state, [0.0, 0.0])  # wrong length
    # out-of-range commands are clamped, not rejected
    before = state.pursuers[0][2]
    sim.step(state, [5.0, 0.0, 0.0, 0.0])
    turned = geometry.wrap_angle(state.pursuers[0][2] - before)
    assert turned == pytest.approx(sim.OMEGA_MAX / env_4p2e3o.task.fps)


@pytest.mark.parametrize("slot, bad", [(0, math.nan), (2, math.inf), (3, -math.inf)])
def test_step_rejects_non_finite_steer(env_4p2e3o, slot, bad):
    # a NaN pose would never collide or capture again, so the step refuses it
    state, _ = sim.reset(env_4p2e3o, seed=1)
    before = copy.deepcopy(state)
    actions = [0.0] * 4
    actions[slot] = bad
    with pytest.raises(ValueError, match="must be finite"):
        sim.step(state, actions)
    assert_states_equal(state, before)


def test_shaping_telescopes_on_monotone_approach():
    # Straight-line approach: total shaped reward is bounded by the initial
    # min distance (telescoping, no penalties, no captures).
    cfg = open_arena(num_p=1, num_e=1, velocity_e=1e-9, horizon=30)
    state = make_state(cfg, [[1.0, 2.5, 0.0]], [[3.0, 2.5, 0.0]])
    initial = 2.0
    total = 0.0
    for _ in range(30):
        if state.terminal != sim.RUNNING:
            break
        out = sim.step(state, [0.0])
        total += out.reward - sim.R_CAP * len(out.captures)
    assert total <= sim.C_SHAPE * initial + 1e-9


def test_trajectory_determinism_and_log(tmp_path, env_4p2e3o):
    def roll(seed):
        state, _ = sim.reset(env_4p2e3o, seed)
        log = sim.TrajectoryLog(env_4p2e3o)
        log.record_reset(state)
        rng = np.random.default_rng(seed)
        while state.terminal == sim.RUNNING and state.step < 120:
            actions = rng.uniform(-1, 1, size=4)
            out = sim.step(state, actions)
            log.record_step(state, actions, out)
        return log.dumps()

    assert roll(11) == roll(11)
    path = tmp_path / "traj.ndjson"
    path.write_text(roll(11))
    records = sim.load_trajectory(path)
    assert records[0]["step"] == 0
    assert records[0]["schema_version"] == sim.TRAJECTORY_SCHEMA_VERSION
    assert all(len(r["pursuers"]) == 4 for r in records)


def test_infeasible_respawn_region_is_value_error():
    # a valid 0.3 m x 0.3 m pursuer region cannot hold 4 drones 0.5 m apart
    doc = json.loads(config.builtin_env_text("4p2e3o"))
    doc["players"]["respawn_region"]["pursuer"] = {"x_min": 1.0, "y_min": 0.2, "x_max": 1.3, "y_max": 0.5}
    cfg = config.parse_config(json.dumps(doc))
    with pytest.raises(ValueError, match="infeasible"):
        sim.reset(cfg, seed=0)


@pytest.mark.parametrize("name", config.BUILTIN_ENV_NAMES)
def test_step_without_observations_changes_nothing_else(name):
    cfg = config.builtin_env(name)
    a, _ = sim.reset(cfg, seed=9)
    b, _ = sim.reset(cfg, seed=9)
    rng = np.random.default_rng(9)
    while a.terminal == sim.RUNNING and a.step < 300:
        actions = rng.uniform(-1, 1, size=cfg.players.num_p)
        (observed,) = sim.step_many([a], [actions], [True])
        skipped = sim.step(b, actions)
        assert observed.observations is not None and skipped.observations is None
        assert observed.reward.hex() == skipped.reward.hex()
        assert (observed.terminal, observed.captures, observed.collisions) == (
            skipped.terminal, skipped.captures, skipped.collisions
        )
        for x, y in [(a.pursuers, b.pursuers), (a.evaders, b.evaders), (a.captured, b.captured)]:
            assert np.array(x).tobytes() == np.array(y).tobytes()
        assert (a.step, a.terminal) == (b.step, b.terminal)
