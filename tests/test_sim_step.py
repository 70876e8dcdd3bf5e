"""`sim.step` on Python floats and the observations' one array pass against
their numpy oracles, bitwise.

`sim_oracle.step` is the array step that the float step replaced, and
`sim_oracle.observe_all` the per-state array observations. Both steps run
from copies of one state; the outcome (reward bits, terminal, capture and
collision events), the post-step rows and flags, and the post-step
observation bytes (`sim.observe_all` of the stepped state against the
oracle's outcome) must be equal. States are drawn on and near every
threshold the step and the observations compare against: capture range and
the drone proximity band between drones, the safe radius and its band at
obstacle rims, rectangle corners and walls, the reception range, points
inside obstacles and outside the arena, coordinates of +-0.0, exact
clearance ties, captured evaders, the last step of the horizon, and steer
commands outside [-1, 1]. `sim.observe_all` must give each state of a batch
of 1 to 8 such states (random-walk states, and drones inside a rectangle or
on its clamp edges among them) the bytes of `sim_oracle.observe_all` of that
state alone, and `sim.step_many` each state the outcome of its own
`sim.step` with, where it observes, the oracle's rows.

The float step reproduces numpy's bits through libm: `abs(complex(dx, dy))`
and `np.hypot` both call `hypot`, and `math.cos`/`math.sin` match `np.cos`/
`np.sin`. The one pass and the oracle both take their bearings from libm's
`atan2`, one call per entry. Those are facts of a numpy build and a CPU, so
these tests run on the numpy version and machine that
`tests/golden/hashes.json` was recorded on and skip elsewhere.
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

from pursuit_lab import config, geometry, sim
import sim_oracle
from conftest import assert_states_equal, make_state, open_arena, ties_arena

GOLDEN_PLATFORM = json.loads((Path(__file__).parent / "golden" / "hashes.json").read_text())["platform"]
pytestmark = pytest.mark.skipif(
    (GOLDEN_PLATFORM["numpy"], GOLDEN_PLATFORM["machine"]) != (np.__version__, platform.machine()),
    reason=f"float rules were checked on numpy {GOLDEN_PLATFORM['numpy']} on {GOLDEN_PLATFORM['machine']}",
)

ARENAS = {name: config.builtin_env(name) for name in config.BUILTIN_ENV_NAMES}
ARENAS["open"] = open_arena(num_p=4, num_e=3)
ARENAS["ties"] = ties_arena()
EXAMPLES = settings(max_examples=100, deadline=None)


def jitter():
    return st.sampled_from([0.0, 1e-12, -1e-12, 1e-6, -1e-6]) | st.floats(-0.02, 0.02)


@st.composite
def points(draw, cfg, earlier):
    """(x, y) anywhere (up to 0.2 m outside the walls), on a 1/8 m grid, with
    a coordinate of +-0.0, or at a threshold (reception range included) from
    a wall, an obstacle rim or corner, or an earlier drone."""
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    task, reception = cfg.task, cfg.players.reception_range
    static_gaps = [0.0, task.safe_radius, task.safe_radius + sim.PROX_BAND, reception, -0.05]
    kinds = ["anywhere", "grid", "signed-zero", "wall"]
    kinds += (["obstacle"] if cfg.site.obstacles else []) + (["drone"] if earlier else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "anywhere":
        return draw(st.floats(-0.2, w + 0.2)), draw(st.floats(-0.2, h + 0.2))
    if kind == "grid":  # exact distances, and exact clearance ties in the ties arena
        return draw(st.integers(-1, int(8 * w) + 1)) / 8.0, draw(st.integers(-1, int(8 * h) + 1)) / 8.0
    if kind == "signed-zero":  # differences of +-0.0, and a wall clearance of -0.0
        zero, other = draw(st.sampled_from([0.0, -0.0])), draw(st.floats(0.0, min(w, h)))
        return (zero, other) if draw(st.booleans()) else (other, zero)
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
    dist = draw(st.sampled_from([task.capture_range, task.capture_range + sim.PROX_BAND, reception, 0.0]))
    dist += draw(jitter())
    angle = draw(st.sampled_from([0.0, math.pi]) | st.floats(-math.pi, math.pi))
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


def assert_same_step(state, actions):
    got_state, want_state = copy.deepcopy(state), copy.deepcopy(state)
    got = sim.step(got_state, actions)
    want = sim_oracle.step(want_state, actions)
    assert got.reward.hex() == want.reward.hex()
    assert got.terminal == want.terminal
    assert got.captures == want.captures
    assert got.collisions == want.collisions
    assert got.observations is None
    assert same_bytes(sim.observe_all([got_state])[0], want.observations)
    for name in ("pursuers", "evaders", "captured"):
        assert same_bytes(getattr(got_state, name), getattr(want_state, name))
    assert (got_state.step, got_state.terminal) == (want_state.step, want_state.terminal)


@pytest.mark.parametrize("name", ARENAS)
def test_float_step_equals_the_numpy_oracle_bitwise(name):
    cfg = ARENAS[name]

    @EXAMPLES
    @given(scenes(cfg))
    def check(scene):
        assert_same_step(*scene)

    check()


def with_reception(cfg, reception):
    return replace(cfg, players=replace(cfg.players, reception_range=reception))


@pytest.mark.parametrize("name", ARENAS)
def test_observations_equal_the_numpy_oracle_bitwise(name):
    # below the arena's half width a static clearance can equal the range
    cfg = ARENAS[name]
    ranges = [cfg.players.reception_range, 1.0, 0.5]

    @EXAMPLES
    @given(st.sampled_from(ranges).flatmap(lambda r: scenes(with_reception(cfg, r))))
    def check(scene):
        state, _ = scene
        want = sim_oracle.observe_all(state)
        assert same_bytes(sim.observe_all([state])[0], want)
        learner_obs = want[:2]
        assert same_bytes(sim.central_observation(state, learner_obs), sim_oracle.central_observation(state, learner_obs))

    check()


@st.composite
def walked_states(draw, cfg):
    """A state of a seeded random walk: a reset, then up to 40 steps of
    random steering (fewer if the episode ends)."""
    seed = draw(st.integers(0, 2**32 - 1))
    state, _ = sim.reset(cfg, seed)
    rng = np.random.default_rng(seed)
    for _ in range(draw(st.integers(0, 40))):
        if state.terminal != sim.RUNNING:
            break
        sim.step(state, rng.uniform(-1.0, 1.0, cfg.players.num_p))
    return state


@st.composite
def rectangle_states(draw, cfg):
    """A state whose drones sit inside a rectangle (its edges included) or
    on one of its clamp edges: at x = cx +- hx with y beyond the rectangle,
    or at y = cy +- hy with x beyond it, where the closest point keeps the
    drone's own coordinate."""
    rects = [ob for ob in cfg.site.obstacles if ob.shape == "rectangle"]
    p = cfg.players
    rows = []
    for _ in range(p.num_p + p.num_e):
        (cx, cy), (hx, hy) = draw(st.sampled_from([(ob.center, ob.half_extents) for ob in rects]))
        gap = draw(st.sampled_from([0.0, 0.01, 0.05]) | st.floats(0.0, 0.3))
        side = draw(st.sampled_from([-1.0, 1.0]))
        place = draw(st.sampled_from(["inside", "x-clamp", "y-clamp"]))
        if place == "inside":
            x, y = draw(st.floats(cx - hx, cx + hx)), draw(st.floats(cy - hy, cy + hy))
        elif place == "x-clamp":
            x, y = draw(st.sampled_from([cx - hx, cx + hx])), cy + side * (hy + gap)
        else:
            x, y = cx + side * (hx + gap), draw(st.sampled_from([cy - hy, cy + hy]))
        rows.append([x, y, draw(st.floats(-math.pi, math.pi))])
    captured = [draw(st.booleans()) for _ in range(p.num_e)]
    return make_state(cfg, rows[: p.num_p], rows[p.num_p :], captured=captured)


def observed_batches(cfg):
    """1 to 8 states of `cfg`: random-walk states, the threshold states of
    `scenes` (captured evaders, entries at the reception range, drones on
    obstacle rims, wall and obstacle ties) and drones inside a rectangle or
    on its clamp edges."""
    state = walked_states(cfg) | scenes(cfg).map(lambda scene: replace(scene[0], cfg=cfg))
    if any(ob.shape == "rectangle" for ob in cfg.site.obstacles):
        state |= rectangle_states(cfg)
    return st.lists(state, min_size=1, max_size=8)


def assert_observed_alone(states):
    rows = sim.observe_all(states)
    cfg = states[0].cfg
    assert rows.shape == (len(states), cfg.players.num_p, sim.obs_length(cfg))
    for b, state in enumerate(states):
        assert same_bytes(rows[b], sim_oracle.observe_all(state))


@pytest.mark.parametrize("name", ARENAS)
def test_observed_batches_equal_the_numpy_oracle_per_state_bitwise(name):
    cfg = ARENAS[name]
    ranges = [cfg.players.reception_range, 1.0, 0.5]

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(ranges).flatmap(lambda r: observed_batches(with_reception(cfg, r))))
    def check(states):
        assert_observed_alone(states)

    check()


def test_observations_break_exact_static_ties_as_the_oracle():
    # on the ties arena: a drone as far from the first square as from the
    # left wall, one between the two squares, one between the second square
    # and the circle, and one as far from the left wall as from the bottom
    # wall; the wall wins the first, the lower obstacle index the next two
    cfg = ARENAS["ties"]
    drones = [[0.375, 2.5, 0.3], [1.5, 2.5, -1.0], [2.5, 2.5, 2.0], [0.125, 0.125, -2.5]]
    tied = make_state(cfg, drones, [[3.5, 4.0, 0.0], [0.5, 4.5, 1.0]], captured=[False, True])
    walked, _ = sim.reset(cfg, 3)
    assert_observed_alone([tied, walked, tied])


@pytest.mark.parametrize("name", ARENAS)
def test_step_many_gives_each_state_its_own_step(name):
    # with every, some or no state observing
    cfg = ARENAS[name]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(walked_states(cfg), st.booleans()), max_size=6), st.integers(0, 2**32 - 1))
    def check(drawn, seed):
        running = [(state, flag) for state, flag in drawn if state.terminal == sim.RUNNING]
        states, flags = [state for state, _ in running], [flag for _, flag in running]
        rng = np.random.default_rng(seed)
        actions = [rng.uniform(-1.5, 1.5, cfg.players.num_p) for _ in running]
        want_states = copy.deepcopy(states)
        want = [sim.step(state, a) for state, a in zip(want_states, actions)]
        got = sim.step_many(states, actions, flags)
        assert len(got) == len(want)
        for g, w, flag, state in zip(got, want, flags, want_states):
            assert (g.reward.hex(), g.terminal, g.captures, g.collisions) == (
                w.reward.hex(), w.terminal, w.captures, w.collisions
            )
            assert w.observations is None
            if flag:
                assert same_bytes(g.observations, sim_oracle.observe_all(state))
            else:
                assert g.observations is None
        for g, w in zip(states, want_states):
            assert_states_equal(g, w)

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
            sim.step(state, actions)


def test_pairwise_sum_is_numpy_sum():
    rng = np.random.default_rng(3)
    for n in list(range(1, 40)) + [127, 128, 129, 300, 1000]:
        for _ in range(50):
            values = rng.random(n) * 10.0 ** rng.integers(-9, 9, n)
            want = float(values.sum())
            assert sim._pairwise_sum(values.tolist()).hex() == want.hex()


def left_fold(values):
    total = -0.0
    for v in values:
        total += v
    return total


def progress_scene(num_e):
    """(state, gains): one pursuer among `num_e` still evaders, far from
    them and from the walls, and the progress terms of its next straight
    1 m move, on the first layout whose terms numpy sums to other bits than
    the exact sum (`math.fsum`, which Python's `sum` nears from 3.12 on)
    and, from 8 terms on, than a left fold. Terms near 1 m sum past 2, where
    their low bits round."""
    cfg = open_arena(num_p=1, num_e=num_e)
    cfg = replace(cfg, players=replace(cfg.players, velocity_p=10.0, velocity_e=0.0))
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    rng = np.random.default_rng(0)
    for _ in range(1000):
        pursuer = [w / 2.0, h / 2.0, rng.uniform(-math.pi, math.pi)]
        evaders = []
        while len(evaders) < num_e:
            x, y = rng.uniform(0.3, w - 0.3), rng.uniform(0.3, h - 0.3)
            if math.hypot(x - pursuer[0], y - pursuer[1]) > 0.6:
                evaders.append([x, y, 0.0])
        state = make_state(cfg, [pursuer], evaders)
        moved = copy.deepcopy(state)
        sim_oracle.step(moved, [0.0], observe=False)
        ev = np.array(evaders)[:, :2]
        before = np.hypot(ev[:, 0] - pursuer[0], ev[:, 1] - pursuer[1])
        after = np.hypot(ev[:, 0] - moved.pursuers[0][0], ev[:, 1] - moved.pursuers[0][1])
        gains = np.maximum(0.0, before - after)
        total = float(gains.sum())
        tells_apart = total != math.fsum(gains.tolist()) and (num_e < 8 or total != left_fold(gains.tolist()))
        if after.min() > 0.3 and tells_apart:
            return state, gains
    raise AssertionError("no layout tells the summation orders apart")


@pytest.mark.parametrize("num_e", [3, 9])
def test_reward_sums_progress_in_numpy_order(num_e):
    # three terms fold left (not compensated), nine go through numpy's eight
    # running sums: the step's reward is the oracle's np.sum of the terms
    state, gains = progress_scene(num_e)
    want = sim_oracle.step(copy.deepcopy(state), [0.0], observe=False)
    got = sim.step(state, [0.0])
    assert (got.captures, got.collisions) == ([], [])
    assert got.reward.hex() == want.reward.hex() == (sim.C_SHAPE * float(gains.sum())).hex()


def test_abs_complex_is_numpy_hypot():
    rng = np.random.default_rng(0)
    scale = 10.0 ** rng.integers(-8, 9, size=(200_000, 2))
    xy = rng.normal(size=(200_000, 2)) * scale
    edges = [0.0, -0.0, 1e-300, 5e-324, 1e300, 0.1, 0.2, 0.3, 3.0, 4.0, -4.0, math.inf, -math.inf]
    xy = np.concatenate([xy, np.array([(a, b) for a in edges for b in edges])])
    want = np.hypot(xy[:, 0], xy[:, 1])
    got = np.array([abs(complex(dx, dy)) for dx, dy in xy.tolist()])
    assert same_bytes(got, want)


def bearing_inputs(n):
    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.integers(-8, 3, size=(n, 2))
    dydx = rng.normal(size=(n, 2)) * scale
    edges = [0.0, -0.0, 1e-300, -1e-300, 2.0, -2.0, math.inf, -math.inf]
    dydx = np.concatenate([dydx, np.array([(a, b) for a in edges for b in edges])])
    return dydx[:, 0].copy(), dydx[:, 1].copy()


def test_scalar_wrap_angle_is_the_array_form():
    # the float step wraps headings with the scalar form, the oracle step
    # with the array form
    dy, dx = bearing_inputs(200_000)
    rng = np.random.default_rng(6)
    headings = rng.uniform(-math.pi, math.pi, len(dy))
    for angles in (np.arctan2(dy, dx) - headings, rng.uniform(-4 * math.pi, 4 * math.pi, len(dy))):
        want = geometry.wrap_angle(angles)
        assert same_bytes(np.array([geometry.wrap_angle(a) for a in angles.tolist()]), want)
