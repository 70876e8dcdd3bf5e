"""The simulator's geometry against per-obstacle loops.

The oracles below are the scalar-loop versions of `nearest_static_all` and
of `detect_collisions`' events and proximity count: one obstacle at a time,
one pursuer at a time. The simulator's versions (the observations' array
`obstacle_clearance_matrix` and `nearest_static_all`, the step's pass on
float rows) and the array `nearest_static_all` of `sim_oracle` must give the
same bytes on any pursuer layout, including points inside obstacles, points outside the walls,
pursuers within `capture_range` of each other, and exact ties between two
obstacles or between an obstacle and a wall (the `ties` arena, whose
dyadic sizes make such ties exact). The observations' array closest points
(`sim._closest_points`) must have the bits of `Obstacle.closest_point` for
points outside a rectangle, on its edges and corners, inside it, and with a
coordinate of +-0.0 tied against an edge at 0.0.

Every static query but the observations' nearest static entry skips the
obstacles whose culling box (`scripted.arena`) does not hold its point. The
last tests hold each culled query to its full scan, and every path that
takes a clearance to the one rule (`Obstacle.clearance` and
`geometry.wall_clearance`), bitwise with the sign, on the points where a
rounding could tell them apart: obstacle rims, the rims at each threshold,
the culling-box edges, one and two `math.nextafter` steps either side of
them, arena corners and points just outside the arena. The step's
geometry pass (`detect_collisions`) keeps its distances and clearances to
itself, so its bits are held through its decisions: with a collision
threshold set to each distance or clearance, or to the float after it, and
with a proximity band ending at each, its events and proximity count must
be those of the full scan.
"""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pursuit_lab import config, geometry, scripted, sim
import sim_oracle
from conftest import make_state, open_arena, ties_arena


ARENAS = {name: config.builtin_env(name) for name in config.BUILTIN_ENV_NAMES}
ARENAS["open"] = open_arena(num_p=4, num_e=2)
ARENAS["ties"] = ties_arena()
# safe_radius + PROX_BAND beyond STATIC_RANGE: the proximity band sets the reach
_BASE = config.builtin_env("4p2e5o")
ARENAS["wide"] = replace(_BASE, task=replace(_BASE.task, safe_radius=0.45))
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


def band_start(end):
    """The threshold t with t + PROX_BAND == end, or None where no float has it."""
    t = end - sim.PROX_BAND
    for candidate in (t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)):
        if candidate + sim.PROX_BAND == end:
            return candidate
    return None


def at_thresholds(cfg, field, terms):
    """Copies of `cfg` whose task `field` (capture_range or safe_radius)
    puts each of `terms` at the threshold and one float below it, and at
    the proximity band's outer edge and one float below that edge: where a
    term one ulp off would flip a collision or a proximity decision."""
    out = []
    for c in sorted(set(terms)):
        after = math.nextafter(c, math.inf)
        for limit in (c, after, band_start(c), band_start(after)):
            if limit is not None:
                out.append(replace(cfg, task=replace(cfg.task, **{field: limit})))
    return out


def assert_pass_is_full_scan(state, full, configs):
    """`detect_collisions` under each config: the events and proximity
    count of the oracle's full scan `full` (`sim_oracle.pursuer_geometry`)."""
    for cfg in configs:
        at = replace(state, cfg=cfg)
        want = sim_oracle.detect_collisions(at, full), sim_oracle.proximity_count(at, full)
        assert sim.detect_collisions(cfg, state.pursuers) == want


def walls_of(cfg, poses):
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    return [geometry.wall_clearance(p[0], p[1], w, h) for p in poses]


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
        obstacle, wall = sim.obstacle_clearance_matrix(cfg, pts), np.array(walls_of(cfg, state.pursuers))
        assert same_bytes(obstacle, oracle_clearance_matrix(cfg, pts))
        assert same_bytes(wall, oracle_wall_clearances(cfg, pts))

        want_clear, want_pts = oracle_nearest_static_all(cfg, pts)
        clear, points = sim.nearest_static_all(cfg, pts)
        assert same_bytes(clear, want_clear)
        assert same_bytes(points, want_pts)
        clear, points = sim_oracle.nearest_static_all(cfg, pts, obstacle, wall)
        assert same_bytes(clear, want_clear)
        assert same_bytes(points, want_pts)

        poses = copy.deepcopy(state.pursuers)
        events, banded = sim.detect_collisions(cfg, state.pursuers)
        assert events == oracle_detect_collisions(cfg, pursuers)
        assert banded == oracle_proximity_count(cfg, pursuers)
        assert state.pursuers == poses  # the pass only reads the poses
        # the pair distances: each at capture_range, and one float below it
        pair = sim_oracle.pair_distances(pursuers, pursuers)
        terms = pair[np.triu_indices(len(pair), 1)].tolist()
        assert_pass_is_full_scan(state, sim_oracle.pursuer_geometry(state), at_thresholds(cfg, "capture_range", terms))

    check()


def test_ties_go_to_the_wall_then_to_the_lowest_obstacle():
    cfg = ARENAS["ties"]
    pursuers = np.array([[1.5, 2.5, 0.0], [2.5, 2.5, 0.0], [0.375, 2.5, 0.0], [0.375, 2.375, 0.0]])
    walls = walls_of(cfg, pursuers.tolist())
    matrix = sim.obstacle_clearance_matrix(cfg, pursuers[:, :2])
    assert matrix[0, 0] == matrix[0, 1] == 0.25
    assert matrix[1, 1] == matrix[1, 2] == 0.25
    assert matrix[2, 0] == walls[2] == 0.375
    clear, points = sim.nearest_static_all(cfg, pursuers[:, :2])
    assert clear.tolist() == [0.25, 0.25, 0.375, 0.375]
    assert points.tolist() == [[1.25, 2.5], [2.25, 2.5], [0.0, 2.5], [0.0, 2.375]]
    want_clear, want_points = oracle_nearest_static_all(cfg, pursuers[:, :2])
    assert same_bytes(clear, want_clear) and same_bytes(points, want_points)


# ---------------------------------------------------------------------------
# The observations' array closest points == Obstacle.closest_point, bitwise
# ---------------------------------------------------------------------------

def probe_coordinates(c, h):
    """A coordinate at the rectangle's edges c - h and c + h (as
    `geometry.closest_point_on_rect` computes them) and one float either
    side, at +-0.0, at the center, between the edges, or beyond them."""
    lo, hi = c - h, c + h
    edges = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
             math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf)]
    return st.sampled_from(edges + [0.0, -0.0, c]) | st.floats(lo, hi) | st.floats(c - 3.0 * h - 1.0, c + 3.0 * h + 1.0)


@st.composite
def rectangle_probes(draw):
    """(rectangle, points, obstacle index per point): some rectangles have
    an edge at exactly 0.0 (center +-half extent), where +-0.0 ties the
    clamp; points lie outside, on the edges, at the corners, inside, and on
    +-0.0. The rectangle is obstacle 1, between two circles."""
    hx, hy = (draw(st.sampled_from([0.15, 0.25, 0.5]) | st.floats(0.01, 1.0)) for _ in range(2))
    cx = draw(st.sampled_from([hx, -hx]) | st.floats(-3.0, 3.0))
    cy = draw(st.sampled_from([hy, -hy]) | st.floats(-3.0, 3.0))
    rect = config.Obstacle("rectangle", (cx, cy), half_extents=(hx, hy))
    pts = draw(st.lists(st.tuples(probe_coordinates(cx, hx), probe_coordinates(cy, hy)), min_size=1, max_size=12))
    ks = draw(st.lists(st.sampled_from([1, 1, 0, 2]), min_size=len(pts), max_size=len(pts)))
    return rect, pts, ks


@settings(max_examples=300, deadline=None)
@given(rectangle_probes())
@example((config.Obstacle("rectangle", (0.5, 0.5), half_extents=(0.5, 0.5)), [(-0.0, 2.0), (2.0, -0.0)], [1, 1]))
@example((config.Obstacle("rectangle", (-0.5, -0.5), half_extents=(0.5, 0.5)), [(-0.0, -2.0), (-2.0, -0.0)], [1, 1]))
@example((config.Obstacle("rectangle", (1.0, 2.5), half_extents=(0.25, 0.25)), [(1.0, 2.5), (1.125, 2.5)], [1, 1]))
def test_array_closest_points_have_the_bits_of_closest_point(probe):
    # a tie of +-0.0 at an edge keeps the point's coordinate, as Python's
    # max and min do (the first two examples); a point inside projects to
    # the nearest edge (the third)
    rect, pts, ks = probe
    circles = [config.Obstacle("circle", (x, 1.0), radius=0.3) for x in (-1.0, 1.0)]
    obstacles = (circles[0], rect, circles[1])
    cfg = replace(ARENAS["ties"], site=replace(ARENAS["ties"].site, obstacles=obstacles))
    got = sim._closest_points(cfg, np.array(ks, dtype=np.intp), np.array(pts, dtype=np.float64))
    want = np.array([obstacles[k].closest_point(x, y) for k, (x, y) in zip(ks, pts)], dtype=np.float64)
    assert same_bytes(got, want)


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
        matrix = sim.obstacle_clearance_matrix(cfg, pursuers[:, :2])
        assert matrix.shape == (cfg.players.num_p, len(cfg.site.obstacles))
        for (x, y, _), row in zip(pursuers.tolist(), matrix.tolist()):
            for ob, c in zip(cfg.site.obstacles, row):
                assert c.hex() == ob.clearance(x, y).hex()
                if abs(c) > 1e-9:  # away from the rim, where rounding decides
                    assert (c < 0) == inside(ob, x, y)

    check()


def test_wall_clearance_keeps_numpy_signed_zero():
    # np.minimum keeps the second of two equal values, Python's min the
    # first: at (0.0, -0.0) numpy's running minimum ends at -0.0
    cfg = ARENAS["open"]
    pursuers = np.array([[0.0, -0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [-0.0, 0.0, 0.0]])
    wall = np.array(walls_of(cfg, pursuers.tolist()))
    assert math.copysign(1.0, wall[0]) == -1.0
    assert same_bytes(wall, sim_oracle.wall_clearances(cfg, pursuers[:, :2]))
    assert same_bytes(wall, oracle_wall_clearances(cfg, pursuers[:, :2]))


# ---------------------------------------------------------------------------
# Culled static queries == their full scans, bitwise
# ---------------------------------------------------------------------------

def reach(cfg):
    """The largest threshold a static query compares a clearance with."""
    return max(scripted.STATIC_RANGE, cfg.task.safe_radius + sim.PROX_BAND)


def nudged(draw, v):
    """v, or one or two `math.nextafter` steps either side of it."""
    steps = draw(st.integers(-2, 2))
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.copysign(math.inf, steps))
    return v


@st.composite
def edge_points(draw, cfg):
    """(x, y) where a culled query and its full scan could part: on an
    obstacle's rim or at a threshold's distance from it, on or at a corner
    of a culling box, at an arena corner (with +-0.0) or just outside a
    wall, each nudged by up to two ulps."""
    rows, w, h, _ = scripted.arena(cfg)
    sr = cfg.task.safe_radius
    kinds = ["corner", "wall"] + (["rim", "box"] if rows else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "corner":
        x, y = draw(st.sampled_from([0.0, -0.0, w])), draw(st.sampled_from([0.0, -0.0, h]))
    elif kind == "wall":
        out = draw(st.floats(-0.2, 0.0))
        along = draw(st.floats(0.0, 1.0))
        x, y = draw(st.sampled_from([(out, along * h), (w - out, along * h), (along * w, out), (along * w, h - out)]))
    else:
        circle, cx, cy, sx, sy, x0, x1, y0, y1 = draw(st.sampled_from(rows))
        if kind == "box":
            xs, ys = [x0, x1, cx], [y0, y1, cy]
            x = draw(st.sampled_from(xs) | st.floats(x0, x1))
            y = draw(st.sampled_from(ys)) if x not in (x0, x1) else draw(st.sampled_from(ys) | st.floats(y0, y1))
        else:
            thresholds = [0.0, sr, sr + sim.PROX_BAND, scripted.STATIC_RANGE, reach(cfg)]
            t = draw(st.sampled_from(thresholds) | st.floats(-0.05, reach(cfg) + 0.05))
            a = draw(st.floats(0.0, 2.0 * math.pi))
            if circle:
                x, y = cx + (sx + t) * math.cos(a), cy + (sx + t) * math.sin(a)
            else:
                side = draw(st.sampled_from(["x", "y", "corner"]))
                u = draw(st.floats(-1.0, 1.0))
                sgn_x, sgn_y = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
                if side == "x":
                    x, y = cx + sgn_x * (sx + t), cy + u * sy
                elif side == "y":
                    x, y = cx + u * sx, cy + sgn_y * (sy + t)
                else:
                    x, y = cx + sgn_x * (sx + t * abs(math.cos(a))), cy + sgn_y * (sy + t * abs(math.sin(a)))
    return nudged(draw, x), nudged(draw, y)


@pytest.mark.parametrize("name", ARENAS)
def test_culled_static_queries_equal_the_full_scans(name):
    cfg = ARENAS[name]
    rows, w, h, _ = scripted.arena(cfg)
    sr = cfg.task.safe_radius
    num_p = cfg.players.num_p

    @settings(max_examples=300, deadline=None)
    @given(st.lists(edge_points(cfg), min_size=num_p, max_size=num_p))
    def check(pts):
        for x, y in pts:
            # scripted steering: the (clearance, closest point) entries of a view
            view = scripted.AgentView(x, y, 0.0, (), (), cfg.site.obstacles, (w, h), 1.0, 1.0, 0.1)
            want = [(d.hex(), px.hex(), py.hex()) for d, (px, py) in scripted._static_entries(view)]
            assert [tuple(v.hex() for v in e) for e in scripted._statics(rows, w, h, x, y)] == want
            # the evaders' keep-out and the spawn test
            clear = sim_oracle.keep_out_clearance(cfg, x, y)
            assert scripted.static_below(rows, w, h, x, y, 0.0) == (clear < 0.0)
            assert scripted.static_below(rows, w, h, x, y, sr) == (clear < sr)
        # the step's collision events and proximity count
        state = scene(cfg, np.array([[x, y, 0.0] for x, y in pts]))
        full = sim_oracle.pursuer_geometry(state)
        assert sim.detect_collisions(cfg, state.pursuers) == (
            sim_oracle.detect_collisions(state, full), sim_oracle.proximity_count(state, full)
        )

    check()


@pytest.mark.parametrize("name", ARENAS)
def test_every_static_clearance_has_the_bits_of_the_one_rule(name):
    # the float obstacle and wall forms against the observations' matrix,
    # the array oracle, the step's geometry pass (through its decisions),
    # the scripted entries, the keep-out and spawn tests and the
    # observations' nearest clearance
    cfg = ARENAS[name]
    obstacles = cfg.site.obstacles
    rows, w, h, _ = scripted.arena(cfg)
    sr = cfg.task.safe_radius

    @settings(max_examples=300, deadline=None)
    @given(st.lists(edge_points(cfg), min_size=cfg.players.num_p, max_size=cfg.players.num_p))
    def check(pts):
        clears = [[ob.clearance(x, y) for ob in obstacles] for x, y in pts]
        walls = [geometry.wall_clearance(x, y, w, h) for x, y in pts]
        want = [[c.hex() for c in row] for row in clears]
        poses, xy = [[x, y, 0.0] for x, y in pts], np.array(pts)
        assert [[c.hex() for c in row] for row in sim.obstacle_clearance_matrix(cfg, xy).tolist()] == want
        assert [[c.hex() for c in row] for row in sim_oracle.obstacle_clearance_matrix(cfg, xy).tolist()] == want
        assert [c.hex() for c in sim_oracle.wall_clearances(cfg, xy).tolist()] == [c.hex() for c in walls]
        least = []
        for (x, y), row, wall in zip(pts, clears, walls):
            # every obstacle left out of a culled query is at least STATIC_RANGE away
            entries = [c for c in row if c < scripted.STATIC_RANGE] + [d for d in (x, w - x, y, h - y) if d < scripted.STATIC_RANGE]
            assert [d.hex() for d, _, _ in scripted._statics(rows, w, h, x, y)] == [d.hex() for d in entries]
            # at the thresholds, and at each clearance below the reach and the
            # float after it, where a term one ulp off would decide otherwise
            terms = [c for c in [wall] + row if c < reach(cfg)]
            for limit in [0.0, sr] + terms + [math.nextafter(c, math.inf) for c in terms]:
                assert scripted.static_below(rows, w, h, x, y, limit) == (min([wall] + row) < limit)
            # the nearest static entry: an obstacle wins on a strictly lower clearance
            best = wall
            for c in row:
                if c < best:
                    best = c
            least.append(best.hex())
        assert [c.hex() for c in sim.nearest_static_all(cfg, xy)[0].tolist()] == least
        # the step's culled pass, with each clearance below the reach at
        # safe_radius and at safe_radius + PROX_BAND, and the float after each
        terms = [c for row, wall in zip(clears, walls) for c in [wall] + row if c < reach(cfg)]
        state = scene(cfg, np.array(poses))
        assert_pass_is_full_scan(state, sim_oracle.pursuer_geometry(state), at_thresholds(cfg, "safe_radius", terms))

    check()


@pytest.mark.parametrize("name", ARENAS)
def test_the_step_and_observation_clearances_are_the_one_rule_around_every_obstacle(name):
    # 2000 points around each obstacle: two hypots part in about 0.5 % of
    # inputs, so a sweep this dense finds a path that leaves the rule
    cfg = ARENAS[name]
    rng = np.random.default_rng(0)
    for ob in cfg.site.obstacles:
        (cx, cy), (ex, ey) = ob.center, (e + reach(cfg) for e in extents(ob))
        xy = np.column_stack([cx + ex * rng.uniform(-1.2, 1.2, 2000), cy + ey * rng.uniform(-1.2, 1.2, 2000)])
        poses = [[x, y, 0.0] for x, y in xy.tolist()]
        want = [[o.clearance(x, y).hex() for o in cfg.site.obstacles] for x, y, _ in poses]
        assert [[c.hex() for c in row] for row in sim.obstacle_clearance_matrix(cfg, xy).tolist()] == want
        assert [[c.hex() for c in row] for row in sim_oracle.obstacle_clearance_matrix(cfg, xy).tolist()] == want
        # the step's pass, one drone at a time, with safe_radius at the
        # swept obstacle's clearance and at the float after it
        wall = walls_of(cfg, poses)
        for pose, row, w in zip(poses, want, wall):
            c = ob.clearance(pose[0], pose[1])
            if c >= reach(cfg):
                continue
            for sr in (c, math.nextafter(c, math.inf)):
                at = replace(cfg, task=replace(cfg.task, safe_radius=sr))
                events = [
                    sim.CollisionEvent(kind="drone-obstacle", agents=(0,), obstacle=k)
                    for k, h in enumerate(row)
                    if float.fromhex(h) < sr
                ]
                events += [sim.CollisionEvent(kind="drone-wall", agents=(0,))] * (w < sr)
                assert sim.detect_collisions(at, [pose])[0] == events
