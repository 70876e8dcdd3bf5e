"""`sim.step` on Python floats against its numpy oracle, bitwise.

`sim_oracle.step` is the array step that the float step replaced. Both run
from copies of one state; the outcome (reward bits, terminal, capture and
collision events, observation bytes) and the post-step arrays must be equal.
States are drawn on and near every threshold the step compares against:
capture range and the drone proximity band between drones, the safe radius
and its band at obstacle rims, rectangle corners and walls, points inside
obstacles and outside the arena, captured evaders, the last step of the
horizon, and steer commands outside [-1, 1].

The float step reproduces numpy's bits through libm: `abs(complex(dx, dy))`
and `np.hypot` both call `hypot`, `math.cos`/`math.sin` match `np.cos`/
`np.sin`. Those are facts of a numpy build and a CPU, so these tests run on
the platform that `tests/golden/hashes.json` was recorded on and skip
elsewhere, as the golden tests do.
"""

import copy
import json
import math
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuit_lab import config, sim
import sim_oracle
from conftest import make_state, open_arena, ties_arena

GOLDEN_PLATFORM = json.loads((Path(__file__).parent / "golden" / "hashes.json").read_text())["platform"]
pytestmark = pytest.mark.skipif(
    GOLDEN_PLATFORM != {"numpy": np.__version__, "machine": platform.machine()},
    reason=f"float rules were checked on {GOLDEN_PLATFORM}",
)

ARENAS = {name: config.builtin_env(name) for name in config.BUILTIN_ENV_NAMES}
ARENAS["open"] = open_arena(num_p=4, num_e=3)
ARENAS["ties"] = ties_arena()
EXAMPLES = settings(max_examples=100, deadline=None)


def jitter():
    return st.sampled_from([0.0, 1e-12, -1e-12, 1e-6, -1e-6]) | st.floats(-0.02, 0.02)


@st.composite
def points(draw, cfg, earlier):
    """(x, y) anywhere (up to 0.2 m outside the walls), at a threshold from a
    wall, an obstacle rim or corner, or an earlier drone."""
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    task = cfg.task
    static_gaps = [0.0, task.safe_radius, task.safe_radius + sim.PROX_BAND, -0.05]
    kinds = ["anywhere", "wall"] + (["obstacle"] if cfg.site.obstacles else []) + (["drone"] if earlier else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "anywhere":
        return draw(st.floats(-0.2, w + 0.2)), draw(st.floats(-0.2, h + 0.2))
    gap = draw(st.sampled_from(static_gaps)) + draw(jitter())
    if kind == "wall":
        x, y = draw(st.floats(0.0, w)), draw(st.floats(0.0, h))
        side = draw(st.sampled_from(["left", "right", "bottom", "top"]))
        return {"left": (gap, y), "right": (w - gap, y), "bottom": (x, gap), "top": (x, h - gap)}[side]
    if kind == "obstacle":
        ob = draw(st.sampled_from(cfg.site.obstacles))
        cx, cy = ob.center
        if ob.shape == "circle":
            angle = draw(st.floats(-math.pi, math.pi))
            r = ob.radius + gap
            return cx + r * math.cos(angle), cy + r * math.sin(angle)
        hx, hy = ob.half_extents
        sx, sy = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
        place = draw(st.sampled_from(["corner", "x-edge", "y-edge"]))
        if place == "corner":  # diagonal off the corner: both gaps positive
            return cx + sx * (hx + gap / math.sqrt(2.0)), cy + sy * (hy + gap / math.sqrt(2.0))
        if place == "x-edge":
            return cx + sx * (hx + gap), cy + draw(st.floats(-hy, hy))
        return cx + draw(st.floats(-hx, hx)), cy + sy * (hy + gap)
    ox, oy = draw(st.sampled_from(earlier))
    dist = draw(st.sampled_from([task.capture_range, task.capture_range + sim.PROX_BAND, 0.0])) + draw(jitter())
    angle = draw(st.floats(-math.pi, math.pi))
    return ox + dist * math.cos(angle), oy + dist * math.sin(angle)


@st.composite
def scenes(draw, cfg):
    """(state, actions): poses near thresholds, some evaders captured. With
    the drones' speeds at 0 the poses after the move are the drawn ones, so
    that the thresholds are met exactly."""
    if draw(st.booleans()):
        cfg = replace(cfg, players=replace(cfg.players, velocity_p=0.0, velocity_e=0.0))
    p = cfg.players
    placed = []
    for _ in range(p.num_p + p.num_e):
        placed.append(draw(points(cfg, placed)))
    headings = [draw(st.floats(-math.pi, math.pi)) for _ in placed]
    rows = [[x, y, a] for (x, y), a in zip(placed, headings)]
    captured = [draw(st.booleans()) for _ in range(p.num_e)]
    step = draw(st.sampled_from([0, 17, cfg.task.task_horizon - 1]))
    state = make_state(cfg, rows[: p.num_p], rows[p.num_p :], captured=captured, step=step)
    actions = [draw(st.sampled_from([-1.0, 1.0, 0.0, -0.0, 2.5, -7.0]) | st.floats(-3.0, 3.0)) for _ in range(p.num_p)]
    return state, actions


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_step(state, actions, observe=True):
    got_state, want_state = copy.deepcopy(state), copy.deepcopy(state)
    got = sim.step(got_state, actions, observe=observe)
    want = sim_oracle.step(want_state, actions, observe=observe)
    assert got.reward.hex() == want.reward.hex()
    assert got.terminal == want.terminal
    assert got.captures == want.captures
    assert got.collisions == want.collisions
    if observe:
        assert same_bytes(got.observations, want.observations)
    else:
        assert got.observations is None and want.observations is None
    for name in ("pursuers", "evaders", "captured"):
        assert same_bytes(getattr(got_state, name), getattr(want_state, name))
    assert (got_state.step, got_state.terminal) == (want_state.step, want_state.terminal)


@pytest.mark.parametrize("name", ARENAS)
def test_float_step_equals_the_numpy_oracle_bitwise(name):
    cfg = ARENAS[name]

    @EXAMPLES
    @given(scenes(cfg), st.booleans())
    def check(scene, observe):
        state, actions = scene
        assert_same_step(state, actions, observe)

    check()


@pytest.mark.parametrize("name", config.BUILTIN_ENV_NAMES)
def test_float_episodes_equal_the_numpy_oracle_bitwise(name):
    # whole episodes: every step of each, from a reset, random steering
    cfg = ARENAS[name]
    rng = np.random.default_rng(11)
    for seed in range(3):
        state, _ = sim.reset(cfg, seed)
        while state.terminal == sim.RUNNING and state.step < 150:
            actions = rng.uniform(-1.5, 1.5, cfg.players.num_p)
            assert_same_step(state, actions)
            sim.step(state, actions, observe=False)


def test_pairwise_sum_is_numpy_sum():
    rng = np.random.default_rng(3)
    for n in list(range(1, 40)) + [127, 128, 129, 300, 1000]:
        for _ in range(50):
            values = rng.random(n) * 10.0 ** rng.integers(-9, 9, n)
            want = float(values.sum())
            assert sim._pairwise_sum(values.tolist()).hex() == want.hex()


@pytest.mark.parametrize("gains", [[1.0, 1e-16, 1e-16], [1.0] + [1e-16] * 8])
def test_reward_sums_progress_in_numpy_order(gains):
    # three terms fold left (not compensated), nine go through numpy's eight running sums
    cfg = open_arena(num_p=1, num_e=len(gains))
    before, after = [(g, 0) for g in gains], [(0.0, 0)] * len(gains)
    geom = sim.pursuer_geometry(cfg, [[1.0, 2.5, 0.0]])
    reward = sim.compute_reward(cfg, before, after, [False] * len(gains), [], [], geom)
    assert reward.hex() == (sim.C_SHAPE * float(np.array(gains).sum())).hex()


def test_abs_complex_is_numpy_hypot():
    rng = np.random.default_rng(0)
    scale = 10.0 ** rng.integers(-8, 9, size=(200_000, 2))
    xy = rng.normal(size=(200_000, 2)) * scale
    edges = [0.0, -0.0, 1e-300, 5e-324, 1e300, 0.1, 0.2, 0.3, 3.0, 4.0, -4.0, math.inf, -math.inf]
    xy = np.concatenate([xy, np.array([(a, b) for a in edges for b in edges])])
    want = np.hypot(xy[:, 0], xy[:, 1])
    got = np.array([abs(complex(dx, dy)) for dx, dy in xy.tolist()])
    assert same_bytes(got, want)
