"""The simulator's geometry against per-obstacle loops.

The oracles below are the scalar-loop versions of `nearest_static_all`,
`detect_collisions` and `_proximity_count`: one obstacle at a time, one
pursuer at a time. The simulator's versions, on float rows, and the array
`nearest_static_all` of `sim_oracle` must give the same bytes on any pursuer
layout, including points inside obstacles, points outside the walls,
pursuers within `capture_range` of each other, and exact ties between two
obstacles or between an obstacle and a wall (the `ties` arena, whose
dyadic sizes make such ties exact).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuit_lab import config, sim
import sim_oracle
from conftest import make_state, open_arena, ties_arena


ARENAS = {name: config.builtin_env(name) for name in config.BUILTIN_ENV_NAMES}
ARENAS["open"] = open_arena(num_p=4, num_e=2)
ARENAS["ties"] = ties_arena()
EXAMPLES = settings(max_examples=100, deadline=None)


# ---------------------------------------------------------------------------
# Oracles: one obstacle and one pursuer at a time
# ---------------------------------------------------------------------------

def oracle_obstacle_clearances(ob, pts):
    if ob.shape == "circle":
        return np.hypot(pts[:, 0] - ob.center[0], pts[:, 1] - ob.center[1]) - ob.radius
    dx = np.abs(pts[:, 0] - ob.center[0]) - ob.half_extents[0]
    dy = np.abs(pts[:, 1] - ob.center[1]) - ob.half_extents[1]
    outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
    inside = np.maximum(dx, dy)
    return np.where((dx > 0) & (dy > 0), outside, inside)


def oracle_clearance_matrix(cfg, pts):
    if not cfg.site.obstacles:
        return np.zeros((len(pts), 0))
    return np.stack([oracle_obstacle_clearances(ob, pts) for ob in cfg.site.obstacles], axis=1)


def oracle_wall_clearances(cfg, pts):
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    return np.min(np.stack([pts[:, 0], w - pts[:, 0], pts[:, 1], h - pts[:, 1]]), axis=0)


def oracle_wall_closest_points(cfg, pts):
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    which = np.argmin(np.stack([pts[:, 0], w - pts[:, 0], pts[:, 1], h - pts[:, 1]]), axis=0)
    out = pts.copy()
    out[which == 0, 0] = 0.0
    out[which == 1, 0] = w
    out[which == 2, 1] = 0.0
    out[which == 3, 1] = h
    return out


def oracle_nearest_static_all(cfg, pts):
    best = oracle_wall_clearances(cfg, pts)
    best_pts = oracle_wall_closest_points(cfg, pts)
    for ob in cfg.site.obstacles:
        c = oracle_obstacle_clearances(ob, pts)
        better = c < best
        if np.any(better):
            best_pts[better] = np.array([ob.closest_point(px, py) for px, py in pts[better]])
            best[better] = c[better]
    return best, best_pts


def oracle_detect_collisions(cfg, pursuers):
    events = []
    num_p = cfg.players.num_p
    d = sim_oracle.pair_distances(pursuers, pursuers)
    for i in range(num_p):
        for j in range(i + 1, num_p):
            if d[i, j] < cfg.task.capture_range:
                events.append(sim.CollisionEvent(kind="drone-drone", agents=(i, j)))
    oc = oracle_clearance_matrix(cfg, pursuers[:, :2])
    wc = oracle_wall_clearances(cfg, pursuers[:, :2])
    for i in range(num_p):
        for k in range(oc.shape[1]):
            if oc[i, k] < cfg.task.safe_radius:
                events.append(sim.CollisionEvent(kind="drone-obstacle", agents=(i,), obstacle=k))
        if wc[i] < cfg.task.safe_radius:
            events.append(sim.CollisionEvent(kind="drone-wall", agents=(i,)))
    return events


def oracle_proximity_count(cfg, pursuers):
    dd = cfg.task.capture_range
    d = sim_oracle.pair_distances(pursuers, pursuers)
    np.fill_diagonal(d, np.inf)
    drone_band = np.any((d >= dd) & (d < dd + sim.PROX_BAND), axis=1)
    oc = oracle_clearance_matrix(cfg, pursuers[:, :2])
    wc = oracle_wall_clearances(cfg, pursuers[:, :2])
    static = np.min(np.column_stack([oc, wc]), axis=1) if oc.shape[1] else wc
    static_band = (static >= cfg.task.safe_radius) & (static < cfg.task.safe_radius + sim.PROX_BAND)
    return int(np.sum(drone_band | static_band))


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------

def extents(ob):
    return (ob.radius, ob.radius) if ob.shape == "circle" else ob.half_extents


@st.composite
def layouts(draw, cfg):
    """(num_p, 3) pursuer poses; each point anywhere (walls included, and up
    to 0.5 m outside), on a 1/8 m grid, inside or near an obstacle, or within
    capture range of an earlier point."""
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    kinds = ["anywhere", "grid"] + (["obstacle"] if cfg.site.obstacles else [])
    rows = []
    for i in range(cfg.players.num_p):
        kind = draw(st.sampled_from(kinds + (["near"] if rows else [])))
        if kind == "anywhere":
            x, y = draw(st.floats(-0.5, w + 0.5)), draw(st.floats(-0.5, h + 0.5))
        elif kind == "grid":
            x, y = draw(st.integers(-4, int(8 * w) + 4)) / 8.0, draw(st.integers(-4, int(8 * h) + 4)) / 8.0
        elif kind == "obstacle":
            ob = draw(st.sampled_from(cfg.site.obstacles))
            ex, ey = extents(ob)
            x = ob.center[0] + draw(st.floats(-1.5, 1.5)) * ex
            y = ob.center[1] + draw(st.floats(-1.5, 1.5)) * ey
        else:
            r = cfg.task.capture_range + sim.PROX_BAND
            px, py, _ = draw(st.sampled_from(rows))
            x, y = px + draw(st.floats(-r, r)), py + draw(st.floats(-r, r))
        rows.append((x, y, draw(st.floats(-math.pi, math.pi))))
    return np.array(rows)


def scene(cfg, pursuers):
    evaders = [[cfg.site.boundary_width / 2.0, cfg.site.boundary_height / 2.0, 0.0]] * cfg.players.num_e
    return make_state(cfg, pursuers, evaders)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The simulator's versions == oracles, bitwise
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ARENAS)
def test_geometry_equals_the_per_obstacle_oracles(name):
    cfg = ARENAS[name]

    @EXAMPLES
    @given(layouts(cfg))
    def check(pursuers):
        state = scene(cfg, pursuers)
        pts = pursuers[:, :2]
        geom = sim.pursuer_geometry(cfg, state.pursuers)
        obstacle, wall = np.array(geom.obstacle), np.array(geom.wall)
        assert same_bytes(np.array(geom.pair), sim_oracle.pair_distances(pursuers, pursuers))
        assert same_bytes(obstacle, oracle_clearance_matrix(cfg, pts))
        assert same_bytes(wall, oracle_wall_clearances(cfg, pts))

        want_clear, want_pts = oracle_nearest_static_all(cfg, pts)
        clear, points = sim.nearest_static_all(cfg, state.pursuers, geom.obstacle, geom.wall)
        assert same_bytes(clear, want_clear)
        assert same_bytes(points, want_pts)
        clear, points = sim_oracle.nearest_static_all(cfg, pts, obstacle, wall)
        assert same_bytes(clear, want_clear)
        assert same_bytes(points, want_pts)

        assert sim.detect_collisions(cfg, geom) == oracle_detect_collisions(cfg, pursuers)
        pair = np.array(geom.pair)
        assert sim._proximity_count(cfg, geom) == oracle_proximity_count(cfg, pursuers)
        assert same_bytes(np.array(geom.pair), pair)  # the shared matrix is left as it was

    check()


def test_ties_go_to_the_wall_then_to_the_lowest_obstacle():
    cfg = ARENAS["ties"]
    pursuers = np.array([[1.5, 2.5, 0.0], [2.5, 2.5, 0.0], [0.375, 2.5, 0.0], [0.375, 2.375, 0.0]])
    state = scene(cfg, pursuers)
    geom = sim.pursuer_geometry(cfg, state.pursuers)
    assert geom.obstacle[0][0] == geom.obstacle[0][1] == 0.25
    assert geom.obstacle[1][1] == geom.obstacle[1][2] == 0.25
    assert geom.obstacle[2][0] == geom.wall[2] == 0.375
    clear, points = sim.nearest_static_all(cfg, pursuers.tolist(), geom.obstacle, geom.wall)
    assert clear == [0.25, 0.25, 0.375, 0.375]
    assert points == [(1.25, 2.5), (2.25, 2.5), (0.0, 2.5), (0.0, 2.375)]
    want_clear, want_points = oracle_nearest_static_all(cfg, pursuers[:, :2])
    assert same_bytes(clear, want_clear) and same_bytes(points, want_points)


def inside(ob, x, y):
    if ob.shape == "circle":
        return (x - ob.center[0]) ** 2 + (y - ob.center[1]) ** 2 < ob.radius**2
    hx, hy = ob.half_extents
    return ob.center[0] - hx < x < ob.center[0] + hx and ob.center[1] - hy < y < ob.center[1] + hy


@pytest.mark.parametrize("name", config.BUILTIN_ENV_NAMES)
def test_clearance_matrix_is_the_scalar_clearance_with_the_inside_sign(name):
    cfg = ARENAS[name]

    @EXAMPLES
    @given(layouts(cfg))
    def check(pursuers):
        matrix = sim.obstacle_clearance_matrix(cfg, pursuers.tolist())
        assert np.array(matrix).shape == (cfg.players.num_p, len(cfg.site.obstacles))
        for (x, y, _), row in zip(pursuers.tolist(), matrix):
            for ob, c in zip(cfg.site.obstacles, row):
                assert abs(c - ob.clearance(x, y)) <= 1e-12
                if abs(c) > 1e-9:  # away from the rim, where rounding decides
                    assert (c < 0) == inside(ob, x, y)

    check()


def test_wall_clearance_keeps_numpy_signed_zero():
    # np.minimum keeps the second of two equal values, Python's min the
    # first: at (0.0, -0.0) numpy's running minimum ends at -0.0
    cfg = ARENAS["open"]
    pursuers = np.array([[0.0, -0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [-0.0, 0.0, 0.0]])
    wall = np.array(sim.pursuer_geometry(cfg, pursuers.tolist()).wall)
    assert math.copysign(1.0, wall[0]) == -1.0
    assert same_bytes(wall, sim_oracle.wall_clearances(cfg, pursuers[:, :2]))
    assert same_bytes(wall, oracle_wall_clearances(cfg, pursuers[:, :2]))
