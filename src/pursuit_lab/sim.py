"""Deterministic discrete-time kinematic pursuit simulator.

One step, in this fixed order, one pass per concern: each uncaptured
evader's distance to its nearest pursuer; pursuers turn/advance by their
steer commands; evaders turn/advance by the scripted escape policy
(`scripted.evader_steers`, which steers every evader before the first one
moves, as no evader's steer reads another evader); one pass over the evaders
(`detect_captures`) gives the captures, which are applied, and the reward's
progress terms; one geometry pass over the pursuers' final positions
(`detect_collisions`: pair distances, the clearances to the obstacles near
each pursuer and wall clearances) gives the collisions and the proximity
count; the reward is summed and termination is decided (`is_terminal`). A
step builds no observation rows (its outcome carries None): `step_many`
builds those of the states that observe, in one `observe_all` pass. All
randomness is confined to `reset` (respawn sampling); given (config, seed,
action sequence) the whole trajectory is bitwise reproducible on a single
thread.

Steer commands are finite scalars, clipped to [-1, 1] (a non-finite one is a
ValueError); one unit of steer turns the drone at OMEGA_MAX rad/s. Distances
and thresholds come from the config: drone-drone collision and capture both
trigger below `capture_range`, drone-obstacle and drone-wall collision below
`safe_radius` clearance.

The state is Python floats: one [x, y, heading] list per drone and one
bool per evader, which a step updates in place. Its bits are those of the
same arithmetic on numpy arrays (the oracle in `tests/sim_oracle.py`), by
these rules, checked for numpy 2.4 on x86_64:

- every distance where numpy would call `np.hypot` (pair distances, circle
  clearances, rectangle-corner clearances) is `abs(complex(dx, dy))`, which
  calls the C library's `hypot` as `np.hypot` does; the clearances are those
  of `Obstacle.clearance` and `geometry.wall_clearance`;
- `math.cos`/`math.sin` give the bits of `np.cos`/`np.sin`, and Python's
  `%` those of `np.mod`;
- `np.minimum(a, b)` is `a if a < b else b` and `np.maximum(a, b)` is
  `a if a > b else b`: on a tie the second argument wins, which shows when
  +0.0 meets -0.0, whereas Python's `min` and `max` keep the first; so the
  step writes these conditionals where numpy took a minimum or maximum,
  except over distances, which are never -0.0;
- a move is written out in the step as `geometry.wrap_angle(heading +
  steer * OMEGA_MAX * dt)`, then `x + speed * cos(heading) * dt` and the
  same with `sin` for y, each product evaluated left to right as numpy
  does: a precomputed `OMEGA_MAX * dt` or `speed * dt` rounds otherwise;
- the progress terms of the reward are summed in numpy's pairwise order
  (`_pairwise_sum`), which below 8 terms is a left fold from -0.0; Python's
  `sum` is compensated from 3.12 on;
- the nearest-pursuer distances before a move are recomputed from the
  pre-step poses, never cached on the state, which callers may edit.

Every static query but the observations' nearest static entry culls: it
skips each obstacle whose culling box (`scripted.arena`) does not hold its
point, and computes the others as the full scan does. The box is the
obstacle's bounding box widened by the reach, max(`scripted.STATIC_RANGE`,
safe_radius + `PROX_BAND`), plus `scripted.CULL_MARGIN`. A point outside
it is farther than reach + margin from the obstacle along one axis, and a
computed clearance is never below that axis distance by more than a few
ulps, far less than the margin; so the skipped clearance is at least the
reach, and every query compares its clearances with a threshold no larger:
`STATIC_RANGE` for the scripted entries, 0.0 for the keep-out, safe_radius
for the spawn test and collisions, safe_radius + `PROX_BAND` for the
proximity band. A culled query thus takes each decision, and yields each
value, with the bits of the full scan; `tests/test_sim_geometry.py` holds
every one to its full scan on rims and box edges.

The observation rows, which `central_observation` reads too, come from one
array pass over the states of one config (`observe_all`). Each state's rows
have the bits of the per-state array code in `tests/sim_oracle.py`: the
pass's ufuncs give an element the same bits whatever the array's shape. Distances are
`np.hypot`; the bearings of the visible entries, the static ones included,
come from libm's `atan2` per element (`math.atan2`, as numpy's float64
two-argument arctan takes other bits at other SIMD levels) and pass through
the array `wrap_angle` and `/ np.pi`; masked entries are not computed and
are written as (0.0, 0.0, 0.0). The nearest static
entry (`nearest_static_all`) needs the true minimum over the obstacles,
which no culling box bounds, so it takes the full `obstacle_clearance_matrix`.
Its wall point is at the `argmin` of (x, w - x, y, h - y), its obstacle at
the first minimum of the point's clearance row, and an obstacle wins only on
a clearance strictly below the wall's; its term is `np.maximum(clear, 0.0)`,
which turns -0.0 into 0.0. The closest points of the rows that an obstacle
wins come from one array pass (`_closest_points`): a rectangle's clamp of a
point outside it follows `geometry.closest_point_on_rect` with Python's
`max` and `min` tie rule, `np.where(lo > px, lo, px)` and then
`np.where(hi < q, hi, q)`, which keep the point's own coordinate on a tie
(+0.0 against -0.0 shows it; `np.maximum` and `np.minimum` keep the other).
Only the rows that a circle wins, whose `geometry.unit` takes `math.hypot`'s
bits, and points inside a rectangle ask `Obstacle.closest_point`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import geometry, scripted
from .config import EnvConfig, per_config
from .seeding import substream

# Terminal states of an episode.
RUNNING = "running"
SUCCESS = "success"
COLLISION = "collision"
TIMEOUT = "timeout"

#: Maximum turn rate (rad/s) at |steer| = 1, which the scripted drones'
#: steers are scaled by.
OMEGA_MAX = scripted.OMEGA_MAX

# Reward constants: capture bonus, shaped progress per meter, proximity
# penalty per offending agent per step, terminal collision penalty, and the
# width of the proximity band beyond each collision threshold.
R_CAP = 10.0
C_SHAPE = 1.0
C_PROX = 0.1
R_COL = 10.0
PROX_BAND = scripted.PROX_BAND

#: Minimum spacing enforced between drones at respawn: clear of the 0.2 m
#: drone-drone collision threshold, the proximity band, and two steps of
#: head-on closure.
SPAWN_SEPARATION = 0.5

TRAJECTORY_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CaptureEvent:
    evader: int
    pursuer: int


@dataclass(frozen=True)
class CollisionEvent:
    kind: str  # "drone-drone" | "drone-obstacle" | "drone-wall"
    agents: tuple[int, ...]  # pursuer indices involved (two for drone-drone)
    obstacle: int | None = None  # obstacle index for drone-obstacle


@dataclass
class WorldState:
    """Joint simulator state: one [x, y, heading] list of floats per drone
    and one capture flag per evader, which `step` updates in place."""

    cfg: EnvConfig
    step: int
    pursuers: list[list[float]]  # num_p rows
    evaders: list[list[float]]  # num_e rows
    captured: list[bool]  # num_e flags
    terminal: str


@dataclass
class StepOutcome:
    observations: np.ndarray | None  # (num_p, obs_len) from step_many; None from step
    reward: float
    terminal: str
    captures: list[CaptureEvent] = field(default_factory=list)
    collisions: list[CollisionEvent] = field(default_factory=list)


def obs_length(cfg: EnvConfig) -> int:
    """Observation vector length: per-evader, nearest-obstacle, per-teammate blocks."""
    return 3 * cfg.players.num_e + 3 + 3 * (cfg.players.num_p - 1)


# ---------------------------------------------------------------------------
# Reset
# ---------------------------------------------------------------------------

def _sample_positions(cfg: EnvConfig, rng, region, count, existing, min_sep) -> list[tuple[float, float]]:
    rows, w, h, _ = scripted.arena(cfg)
    sr = cfg.task.safe_radius
    placed = list(existing)
    out = []
    for _ in range(count):
        for attempt in range(10_000):
            x = rng.uniform(region.x_min, region.x_max)
            y = rng.uniform(region.y_min, region.y_max)
            if scripted.static_below(rows, w, h, x, y, sr):
                continue
            if any(math.hypot(x - px, y - py) < min_sep for px, py in placed):
                continue
            break
        else:
            raise ValueError("respawn region infeasible after 10000 rejection attempts")
        placed.append((x, y))
        out.append((x, y))
    return out


def _fixed_positions(region, count) -> list[tuple[float, float]]:
    # Documented fixed layout: evenly spaced along the region's horizontal
    # midline, in agent-index order from x_min to x_max.
    yc = (region.y_min + region.y_max) / 2.0
    return [(region.x_min + (i + 0.5) * region.width / count, yc) for i in range(count)]


def reset(cfg: EnvConfig, seed: int) -> tuple[WorldState, np.ndarray]:
    """Fresh episode state plus the initial observations for all pursuers."""
    rng = substream(seed, "env")
    p = cfg.players
    region_p = p.respawn_region.pursuer
    region_e = p.respawn_region.evader
    arena_cy = cfg.site.boundary_height / 2.0
    # Initial headings face the arena's vertical center from the spawn side.
    head_p = math.pi / 2.0 if region_p.center[1] < arena_cy else -math.pi / 2.0
    head_e = math.pi / 2.0 if region_e.center[1] < arena_cy else -math.pi / 2.0

    if p.random_respawn:
        pos_p = _sample_positions(cfg, rng, region_p, p.num_p, [], SPAWN_SEPARATION)
        pos_e = _sample_positions(cfg, rng, region_e, p.num_e, pos_p, max(SPAWN_SEPARATION, cfg.task.capture_range + 0.1))
        # Headings face the arena interior with +-30 degrees of jitter; a
        # drone spawned pointing at the nearby wall would be dead on arrival.
        jitter = math.pi / 6.0
        headings_p = [geometry.wrap_angle(head_p + rng.uniform(-jitter, jitter)) for _ in range(p.num_p)]
        headings_e = [geometry.wrap_angle(head_e + rng.uniform(-jitter, jitter)) for _ in range(p.num_e)]
    else:
        pos_p = _fixed_positions(region_p, p.num_p)
        pos_e = _fixed_positions(region_e, p.num_e)
        headings_p = [head_p] * p.num_p
        headings_e = [head_e] * p.num_e

    state = WorldState(
        cfg=cfg,
        step=0,
        pursuers=[[x, y, h] for (x, y), h in zip(pos_p, headings_p)],
        evaders=[[x, y, h] for (x, y), h in zip(pos_e, headings_e)],
        captured=[False] * p.num_e,
        terminal=RUNNING,
    )
    return state, observe_all([state])[0]


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

class _ShapeColumns(NamedTuple):
    """The obstacles of one shape, stacked: their columns in config order
    and their parameters, as 1-D arrays."""

    cols: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    sx: np.ndarray  # radius of a circle, x half extent of a rectangle
    sy: np.ndarray  # y half extent of a rectangle (0 for a circle)


@per_config
def _stacked_obstacles(cfg: EnvConfig) -> tuple[_ShapeColumns, _ShapeColumns]:
    """(circles, rectangles) of an arena's obstacles, stacked once per
    config object (`config.per_config`)."""
    obstacles = cfg.site.obstacles

    def columns(shape: str) -> _ShapeColumns:
        picked = [(k, ob) for k, ob in enumerate(obstacles) if ob.shape == shape]
        sizes = [(ob.radius, 0.0) if shape == "circle" else ob.half_extents for _, ob in picked]
        return _ShapeColumns(
            cols=np.array([k for k, _ in picked], dtype=np.intp),
            cx=np.array([ob.center[0] for _, ob in picked]),
            cy=np.array([ob.center[1] for _, ob in picked]),
            sx=np.array([sx for sx, _ in sizes]),
            sy=np.array([sy for _, sy in sizes]),
        )

    return columns("circle"), columns("rectangle")


def obstacle_clearance_matrix(cfg: EnvConfig, xy: np.ndarray) -> np.ndarray:
    """(n, k): the `Obstacle.clearance` of each (x, y) row of `xy` to each of
    the k obstacles, in config order."""
    circles, rects = _stacked_obstacles(cfg)
    matrix = np.empty((len(xy), len(cfg.site.obstacles)))
    x, y = xy[:, 0:1], xy[:, 1:2]
    if circles.cols.size:
        matrix[:, circles.cols] = np.hypot(x - circles.cx, y - circles.cy) - circles.sx
    if rects.cols.size:
        dx = np.abs(x - rects.cx) - rects.sx
        dy = np.abs(y - rects.cy) - rects.sy
        outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
        matrix[:, rects.cols] = np.where((dx > 0) & (dy > 0), outside, np.maximum(dx, dy))
    return matrix


def nearest_static_all(cfg: EnvConfig, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(clearance, closest point) of the nearest wall or obstacle of each
    (x, y) row of `xy`. A tie goes to the wall, then to the lowest obstacle
    index."""
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    x, y = xy[:, 0], xy[:, 1]
    which = np.array([x, w - x, y, h - y]).argmin(axis=0)  # left, right, bottom, top
    points = xy.copy()
    rows = np.arange(len(xy))
    points[rows, which >> 1] = np.array((0.0, w, 0.0, h))[which]
    clear = np.minimum(np.minimum(np.minimum(x, w - x), y), h - y)
    if not cfg.site.obstacles:
        return clear, points
    matrix = obstacle_clearance_matrix(cfg, xy)
    nearest = matrix.argmin(axis=1)
    ob_clear = matrix[rows, nearest]
    wins = ob_clear < clear
    if wins.any():
        points[wins] = _closest_points(cfg, nearest[wins], xy[wins])
    return np.where(wins, ob_clear, clear), points


def _closest_points(cfg: EnvConfig, nearest: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """The closest point on obstacle `nearest[r]` to each (x, y) row `xy[r]`,
    with the bits of `Obstacle.closest_point`: a rectangle's clamp in one
    array pass, `Obstacle.closest_point` for circles and for points inside a
    rectangle."""
    _, rects = _stacked_obstacles(cfg)
    points = np.empty_like(xy)
    rest = np.arange(len(xy))
    if rects.cols.size:
        # `geometry.closest_point_on_rect`'s clamp: Python's max(p, lo) and
        # min(q, hi) keep p and q on a tie, which np.maximum and np.minimum do not
        j = np.searchsorted(rects.cols, nearest).clip(max=rects.cols.size - 1)
        px, py = xy[:, 0], xy[:, 1]
        cx, cy, hx, hy = rects.cx[j], rects.cy[j], rects.sx[j], rects.sy[j]
        qx = np.where(cx - hx > px, cx - hx, px)
        qx = np.where(cx + hx < qx, cx + hx, qx)
        qy = np.where(cy - hy > py, cy - hy, py)
        qy = np.where(cy + hy < qy, cy + hy, qy)
        clamped = (rects.cols[j] == nearest) & ((qx != px) | (qy != py))
        points[:, 0], points[:, 1] = qx, qy
        rest = rest[~clamped]
    if rest.size:
        obstacles = cfg.site.obstacles
        points[rest] = [obstacles[k].closest_point(*p) for k, p in zip(nearest[rest].tolist(), xy[rest].tolist())]
    return points


@lru_cache(maxsize=16)
def _entry_columns(num_e: int, num_p: int) -> np.ndarray:
    """(num_p, num_e + num_p): the targets of each drone's row entries among
    (the evaders, each drone's nearest static point, the drones): the
    evaders, its own static point, the other drones in index order."""
    return np.array(
        [
            list(range(num_e)) + [num_e + i] + [num_e + num_p + j for j in range(num_p) if j != i]
            for i in range(num_p)
        ],
        dtype=np.intp,
    )


def observe_all(states) -> np.ndarray:
    """The (B, num_p, obs_len) observation rows of B states of one config,
    from one array pass (see the module notes): one row per pursuer.

    Row layout (all components in [-1, 1], masked entries exactly 0, mask 0):
      [per evader: dist/reception, bearing/pi, mask] * num_e
      [nearest obstacle or wall: clearance/reception, angle/pi, mask]
      [per teammate (index order, skipping self): dist/reception, bearing/pi, mask] * (num_p-1)
    """
    cfg = states[0].cfg
    reception = cfg.players.reception_range
    poses = np.array([s.pursuers for s in states])  # (B, num_p, 3)
    evaders = np.array([s.evaders for s in states])  # (B, num_e, 3)
    captured = np.array([s.captured for s in states], dtype=bool)  # (B, num_e)
    b, n, _ = poses.shape
    ne = evaders.shape[1]
    clear, static = nearest_static_all(cfg, poses[..., :2].reshape(-1, 2))
    targets = np.concatenate([evaders[..., :2], static.reshape(b, n, 2), poses[..., :2]], axis=1)
    delta = targets[:, _entry_columns(ne, n)] - poses[:, :, None, :2]  # (B, num_p, num_e + num_p, 2)
    dx, dy = delta[..., 0], delta[..., 1]
    dist = np.hypot(dx, dy)
    # the static entry reads its clearance; visible where the clearance is, as reception > 0
    dist[..., ne] = np.maximum(clear, 0.0).reshape(b, n)
    visible = dist <= reception
    visible[..., :ne] &= ~captured[:, None, :]
    angle = np.zeros(dy.shape)
    angle[visible] = list(map(math.atan2, dy[visible].tolist(), dx[visible].tolist()))
    bearing = geometry.wrap_angle(angle - poses[..., 2:3]) / np.pi
    rows = np.empty(dist.shape + (3,))
    rows[..., 0] = np.where(visible, dist / reception, 0.0)
    rows[..., 1] = np.where(visible, bearing, 0.0)
    rows[..., 2] = visible
    return rows.reshape(b, n, -1)


def central_observation(state: WorldState, learner_obs: np.ndarray) -> np.ndarray:
    """Centralized-critic input: learner observations plus global evader positions.

    `learner_obs` holds the learner slots' rows of the state's `observe_all`
    pass, in slot order. Evader positions are normalized to [-1, 1] over the
    arena; captured evaders are zeroed.
    """
    w, h = state.cfg.site.boundary_width, state.cfg.site.boundary_height
    ev = []
    for (x, y, _), done in zip(state.evaders, state.captured):
        ev += (0.0, 0.0) if done else (2.0 * x / w - 1.0, 2.0 * y / h - 1.0)
    return np.concatenate([learner_obs.reshape(-1), np.array(ev, dtype=np.float64)])


def central_obs_length(cfg: EnvConfig, n_learners: int) -> int:
    return n_learners * obs_length(cfg) + 2 * cfg.players.num_e


# ---------------------------------------------------------------------------
# Views for scripted policies
# ---------------------------------------------------------------------------

def pursuer_view(state: WorldState, agent_id: int) -> scripted.AgentView:
    cfg = state.cfg
    pursuers = state.pursuers
    x, y, heading = pursuers[agent_id]
    evaders = zip(state.evaders, state.captured)
    return scripted.AgentView(
        x=x,
        y=y,
        heading=heading,
        targets=tuple((ex, ey) for (ex, ey, _), captured in evaders if not captured),
        other_drones=tuple((px, py) for j, (px, py, _) in enumerate(pursuers) if j != agent_id),
        obstacles=cfg.site.obstacles,
        boundary=(cfg.site.boundary_width, cfg.site.boundary_height),
        reception_range=cfg.players.reception_range,
        omega_max=OMEGA_MAX,
        dt=1.0 / cfg.task.fps,
    )


def evader_view(cfg: EnvConfig, evader, drones) -> scripted.AgentView:
    """View of the evader at pose `evader` ([x, y, heading]) among the
    pursuers at `drones` ((x, y) each)."""
    x, y, heading = evader
    return scripted.AgentView(
        x=x,
        y=y,
        heading=heading,
        targets=(),
        other_drones=drones,
        obstacles=cfg.site.obstacles,
        boundary=(cfg.site.boundary_width, cfg.site.boundary_height),
        reception_range=cfg.players.reception_range,
        omega_max=OMEGA_MAX,
        dt=1.0 / cfg.task.fps,
    )


# ---------------------------------------------------------------------------
# Step
# ---------------------------------------------------------------------------

@per_config
def _stepping(cfg: EnvConfig) -> tuple:
    """What a step reads of its config, looked up by the config's identity
    (`config.per_config`): the arena rows and size (`scripted.arena`), dt,
    the drones' speeds and count, the collision thresholds and the outer
    edges of their proximity bands."""
    rows, w, h, _ = scripted.arena(cfg)
    players, task = cfg.players, cfg.task
    cr, sr, dt = task.capture_range, task.safe_radius, 1.0 / task.fps
    return rows, w, h, dt, players.velocity_p, players.velocity_e, players.num_p, cr, sr, cr + PROX_BAND, sr + PROX_BAND


def detect_captures(cfg: EnvConfig, pursuers, evaders, before) -> tuple[list[CaptureEvent], list[float]]:
    """The captures and progress terms of a step, from the poses after its
    moves.

    `before` holds each evader's distance to its nearest pursuer before the
    moves, None for an evader captured before them; only the others are
    looked at. Each one within capture_range of its nearest pursuer is
    captured by it (the lowest index on a tie); each other one gives the
    progress term max(0, before - distance now), in evader order.
    """
    cr = cfg.task.capture_range
    captures, progress = [], []
    for e, ((ex, ey, _), b) in enumerate(zip(evaders, before)):
        if b is None:
            continue
        dists = [abs(complex(px - ex, py - ey)) for px, py, _ in pursuers]
        d = min(dists)
        if d < cr:
            captures.append(CaptureEvent(evader=e, pursuer=dists.index(d)))
        else:
            gain = b - d
            progress.append(0.0 if 0.0 > gain else gain)
    return captures, progress


def detect_collisions(cfg: EnvConfig, pursuers) -> tuple[list[CollisionEvent], int]:
    """The step's one geometry pass over the pursuers' positions ([x, y,
    ...] rows): their collision events and how many are in a proximity band.

    Only pursuers collide: a pair at center distance < capture_range, a
    pursuer with an obstacle or a wall at clearance < safe_radius. Events
    come as drone-drone pairs (i < j), then per pursuer its obstacles by
    index and then its wall. A pursuer is in the band when its least static
    clearance is in [safe_radius, safe_radius + `PROX_BAND`) or another
    pursuer's distance in [capture_range, capture_range + `PROX_BAND`).
    The clearances are `geometry.wall_clearance` and `Obstacle.clearance`,
    written inline, to the obstacles whose culling box (`scripted.arena`)
    holds the pursuer: each one left out is at least the reach, so every
    test reads as on the full scan.
    """
    rows, w, h, _, _, _, _, cr, sr, cr_band, sr_band = _stepping(cfg)
    n = len(pursuers)
    events = []
    banded = [False] * n
    for i in range(n):
        xi, yi, _ = pursuers[i]
        for j in range(i + 1, n):
            xj, yj, _ = pursuers[j]
            d = abs(complex(xi - xj, yi - yj))
            if d < cr:
                events.append(CollisionEvent(kind="drone-drone", agents=(i, j)))
            elif d < cr_band:
                banded[i] = banded[j] = True
    count = 0
    wall_clearance = geometry.wall_clearance
    for i, (x, y, _) in enumerate(pursuers):
        wall = static = wall_clearance(x, y, w, h)
        for k, (circle, cx, cy, sx, sy, x0, x1, y0, y1) in enumerate(rows):
            if x0 < x < x1 and y0 < y < y1:
                if circle:
                    clear = abs(complex(x - cx, y - cy)) - sx
                else:
                    dx = abs(x - cx) - sx
                    dy = abs(y - cy) - sy
                    clear = abs(complex(dx, dy)) if dx > 0.0 and dy > 0.0 else (dx if dx > dy else dy)
                if clear < sr:
                    events.append(CollisionEvent(kind="drone-obstacle", agents=(i,), obstacle=k))
                if clear < static:
                    static = clear
        if wall < sr:
            events.append(CollisionEvent(kind="drone-wall", agents=(i,)))
        if banded[i] or sr <= static < sr_band:
            count += 1
    return events, count


def is_terminal(state: WorldState, collisions=()) -> str:
    """Terminal classification with precedence collision > success > timeout."""
    if collisions:
        return COLLISION
    if all(state.captured):
        return SUCCESS
    if state.step >= state.cfg.task.task_horizon:
        return TIMEOUT
    return RUNNING


def _pairwise_sum(values: list[float]) -> float:
    """numpy's `sum` of a contiguous float64 array, in its order: a left fold
    from -0.0 below 8 terms, eight running sums in blocks of up to 128
    terms, and halves (at a multiple of 8) above that."""
    n = len(values)
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        acc = values[:8]
        stop = n - n % 8
        for i in range(8, stop, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[stop:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def step(state: WorldState, actions) -> StepOutcome:
    """Advance the world one tick. Mutates `state` and returns the outcome,
    whose observations are None (`step_many` builds them)."""
    cfg = state.cfg
    if state.terminal != RUNNING:
        raise RuntimeError(f"step() on a terminal state ({state.terminal})")
    steer = np.asarray(actions, dtype=np.float64).reshape(-1).tolist()
    rows, w, h, dt, speed_p, speed_e, num_p, _, _, _, _ = _stepping(cfg)
    if len(steer) != num_p:
        raise ValueError(f"expected {num_p} actions, got {len(steer)}")
    if not all(map(math.isfinite, steer)):
        raise ValueError(f"steer commands must be finite, got {steer}")

    pursuers, evaders, captured = state.pursuers, state.evaders, state.captured
    before = [
        None if done else min([abs(complex(px - ex, py - ey)) for px, py, _ in pursuers])
        for (ex, ey, _), done in zip(evaders, captured)
    ]

    # turn by the steer (wrapped as `geometry.wrap_angle`), then move along the new heading
    pi, two_pi, omega, cos, sin = math.pi, geometry.TWO_PI, OMEGA_MAX, math.cos, math.sin
    for pose, s in zip(pursuers, steer):
        s = -1.0 if s < -1.0 else (1.0 if s > 1.0 else s)
        pose[2] = a = pi - (pi - (pose[2] + s * omega * dt)) % two_pi
        pose[0] += speed_p * cos(a) * dt
        pose[1] += speed_p * sin(a) * dt
    moving = [pose for pose, done in zip(evaders, captured) if not done]
    for pose, s in zip(moving, scripted.evader_steers(cfg, pursuers, evaders, captured)):
        pose[2] = a = pi - (pi - (pose[2] + s * omega * dt)) % two_pi
        x = pose[0] + speed_e * cos(a) * dt
        y = pose[1] + speed_e * sin(a) * dt
        # Evaders never terminate the episode, so block them from entering
        # obstacles or leaving the arena instead (heading still updates).
        if not scripted.static_below(rows, w, h, x, y, 0.0):
            pose[0], pose[1] = x, y

    captures, progress = detect_captures(cfg, pursuers, evaders, before)
    for ev in captures:
        captured[ev.evader] = True
    collisions, banded = detect_collisions(cfg, pursuers)
    reward = R_CAP * len(captures)
    if progress:
        reward += C_SHAPE * _pairwise_sum(progress)
    reward -= C_PROX * banded
    if collisions:
        reward -= R_COL

    state.step += 1
    state.terminal = is_terminal(state, collisions)

    return StepOutcome(
        observations=None,
        reward=reward,
        terminal=state.terminal,
        captures=captures,
        collisions=collisions,
    )


def step_many(states, actions, observe: list[bool]) -> list[StepOutcome]:
    """`step(state, action)` for each state with its actions, in order: the
    outcomes of those calls, with the observation rows of each state whose
    `observe` flag is set. One `observe_all` pass over those states builds
    them, each row a view into its array; none is made when no state
    observes.
    """
    outcomes = [step(state, a) for state, a in zip(states, actions)]
    if any(observe):
        observing = [i for i, flag in enumerate(observe) if flag]
        for i, rows in zip(observing, observe_all([states[i] for i in observing])):
            outcomes[i].observations = rows
    return outcomes


# ---------------------------------------------------------------------------
# Trajectory logging (newline-delimited JSON, one record per step)
# ---------------------------------------------------------------------------

class TrajectoryLog:
    """Accumulates per-step records; record 0 is the initial state."""

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self.records: list[dict] = []

    def record_reset(self, state: WorldState) -> None:
        rec = self._record(state, None, 0.0, [], [])
        # the reset record carries the scenario so logs are self-describing
        from .config import serialize_config

        rec["env"] = json.loads(serialize_config(state.cfg))
        self.records.append(rec)

    def record_step(self, state: WorldState, actions, outcome: StepOutcome) -> None:
        self.records.append(
            self._record(
                state,
                [float(a) for a in np.asarray(actions).reshape(-1)],
                outcome.reward,
                outcome.captures,
                outcome.collisions,
            )
        )

    def _record(self, state, actions, reward, captures, collisions) -> dict:
        return {
            "schema_version": TRAJECTORY_SCHEMA_VERSION,
            "step": state.step,
            "pursuers": [list(row) for row in state.pursuers],
            "evaders": [list(row) for row in state.evaders],
            "captured": list(state.captured),
            "actions": actions,
            "reward": float(reward),
            "captures": [[ev.evader, ev.pursuer] for ev in captures],
            "collisions": [
                {"kind": ev.kind, "agents": list(ev.agents), "obstacle": ev.obstacle} for ev in collisions
            ],
            "terminal": state.terminal,
        }

    def dumps(self) -> str:
        return "".join(json.dumps(rec) + "\n" for rec in self.records)


def load_trajectory(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
