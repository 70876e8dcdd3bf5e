"""Deterministic discrete-time kinematic pursuit simulator.

One step, in this fixed order: pursuers turn/advance by their steer commands;
evaders turn/advance by the scripted escape policy; captures are detected and
applied; one geometry pass (`pursuer_geometry`) measures the pursuers' final
positions: pursuer-pursuer distances, the pursuer-obstacle clearance matrix
and wall clearances; from that one pass come the collisions, the reward and
the observations, with termination decided before the observations. A step
called with `observe=False` skips the observations (its outcome carries
None), for callers whose policies act from views alone. All
randomness is confined to `reset` (respawn sampling); given (config, seed,
action sequence) the whole trajectory is bitwise reproducible on a single
thread.

Steer commands are scalars in [-1, 1]; one unit of steer turns the drone at
OMEGA_MAX rad/s. Distances and thresholds come from the config: drone-drone
collision and capture both trigger below `capture_range`, drone-obstacle and
drone-wall collision below `safe_radius` clearance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import geometry, scripted
from .config import EnvConfig, Obstacle
from .seeding import substream

# Terminal states of an episode.
RUNNING = "running"
SUCCESS = "success"
COLLISION = "collision"
TIMEOUT = "timeout"

#: Maximum turn rate (rad/s) at |steer| = 1. Lets a drone reverse heading in
#: one second at the default 10 fps.
OMEGA_MAX = math.pi

# Reward constants: capture bonus, shaped progress per meter, proximity
# penalty per offending agent per step, terminal collision penalty, and the
# width of the proximity band beyond each collision threshold.
R_CAP = 10.0
C_SHAPE = 1.0
C_PROX = 0.1
R_COL = 10.0
PROX_BAND = 0.1

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
    """Joint simulator state. Arrays are row-per-agent [x, y, heading]."""

    cfg: EnvConfig
    step: int
    pursuers: np.ndarray  # (num_p, 3) float64
    evaders: np.ndarray  # (num_e, 3) float64
    captured: np.ndarray  # (num_e,) bool
    terminal: str
    rng: np.random.Generator


@dataclass
class StepOutcome:
    observations: np.ndarray | None  # (num_p, obs_len); None from step(..., observe=False)
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

def _wall_and_obstacle_clearance(cfg: EnvConfig, x: float, y: float) -> float:
    clear = geometry.boundary_clearance(x, y, cfg.site.boundary_width, cfg.site.boundary_height)
    for ob in cfg.site.obstacles:
        clear = min(clear, ob.clearance(x, y))
    return clear


def _sample_positions(cfg: EnvConfig, rng, region, count, existing, min_sep) -> list[tuple[float, float]]:
    placed = list(existing)
    out = []
    for _ in range(count):
        for attempt in range(10_000):
            x = rng.uniform(region.x_min, region.x_max)
            y = rng.uniform(region.y_min, region.y_max)
            if _wall_and_obstacle_clearance(cfg, x, y) < cfg.task.safe_radius:
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
        pursuers=np.array([[x, y, h] for (x, y), h in zip(pos_p, headings_p)], dtype=np.float64),
        evaders=np.array([[x, y, h] for (x, y), h in zip(pos_e, headings_e)], dtype=np.float64),
        captured=np.zeros(p.num_e, dtype=bool),
        terminal=RUNNING,
        rng=rng,
    )
    return state, observe_all(state)


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

def _wall_clearances(cfg: EnvConfig, pts: np.ndarray) -> np.ndarray:
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    x, y = pts[:, 0], pts[:, 1]
    return np.minimum(np.minimum(np.minimum(x, w - x), y), h - y)


def _wall_closest_points(cfg: EnvConfig, pts: np.ndarray) -> np.ndarray:
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    x, y = pts[:, 0], pts[:, 1]
    which = np.stack([x, w - x, y, h - y]).argmin(axis=0)  # left, right, bottom, top
    out = pts.copy()
    out[np.arange(len(pts)), which >> 1] = np.array((0.0, w, 0.0, h))[which]
    return out


class _ShapeColumns(NamedTuple):
    """Parameters of the obstacles of one shape, as (1, n) rows."""

    cols: np.ndarray  # their columns in the clearance matrix (config order)
    cx: np.ndarray
    cy: np.ndarray
    sx: np.ndarray  # radius of a circle, x half extent of a rectangle
    sy: np.ndarray  # y half extent of a rectangle (0 for a circle)


@lru_cache(maxsize=16)
def _stacked_obstacles(obstacles: tuple[Obstacle, ...]) -> tuple[_ShapeColumns, _ShapeColumns]:
    """(circles, rectangles) of an obstacle tuple, stacked once per tuple."""

    def columns(shape: str) -> _ShapeColumns:
        picked = [(k, ob) for k, ob in enumerate(obstacles) if ob.shape == shape]
        sizes = [(ob.radius, 0.0) if shape == "circle" else ob.half_extents for _, ob in picked]
        return _ShapeColumns(
            cols=np.array([k for k, _ in picked], dtype=np.intp),
            cx=np.array([[ob.center[0] for _, ob in picked]]),
            cy=np.array([[ob.center[1] for _, ob in picked]]),
            sx=np.array([[sx for sx, _ in sizes]]),
            sy=np.array([[sy for _, sy in sizes]]),
        )

    return columns("circle"), columns("rectangle")


def obstacle_clearance_matrix(cfg: EnvConfig, pts: np.ndarray) -> np.ndarray:
    """(n_points, n_obstacles) signed clearances, columns in config order.

    One array pass over all circles and one over all rectangles, with the
    elementwise operations of `Obstacle.clearance`; the second axis is empty
    without obstacles.
    """
    circles, rects = _stacked_obstacles(cfg.site.obstacles)
    out = np.empty((len(pts), len(cfg.site.obstacles)))
    x, y = pts[:, 0:1], pts[:, 1:2]
    if circles.cols.size:
        out[:, circles.cols] = np.hypot(x - circles.cx, y - circles.cy) - circles.sx
    if rects.cols.size:
        dx = np.abs(x - rects.cx) - rects.sx
        dy = np.abs(y - rects.cy) - rects.sy
        outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
        out[:, rects.cols] = np.where((dx > 0) & (dy > 0), outside, np.maximum(dx, dy))
    return out


def nearest_static_all(
    cfg: EnvConfig, pts: np.ndarray, obstacle: np.ndarray, wall: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per point: (clearance, closest point) over all obstacles and walls.

    `obstacle` and `wall` are the points' `obstacle_clearance_matrix` and wall
    clearances. A tie goes to the wall, then to the lowest obstacle index.
    """
    best_pts = _wall_closest_points(cfg, pts)
    if not obstacle.shape[1]:
        return wall.copy(), best_pts
    nearest = obstacle.argmin(axis=1)
    clear = obstacle[np.arange(len(pts)), nearest]
    wins = clear < wall
    xy = pts.tolist()
    for i in np.flatnonzero(wins).tolist():
        best_pts[i] = cfg.site.obstacles[nearest[i]].closest_point(*xy[i])
    return np.where(wins, clear, wall), best_pts


def _relative_blocks(origins: np.ndarray, headings: np.ndarray, targets: np.ndarray, reception: float, visible_mask=None):
    """(n_origins, n_targets, 3) blocks of (dist/reception, bearing/pi, mask)."""
    dx = targets[None, :, 0] - origins[:, None, 0]
    dy = targets[None, :, 1] - origins[:, None, 1]
    d = np.hypot(dx, dy)
    vis = d <= reception
    if visible_mask is not None:
        vis &= visible_mask[None, :]
    bearing = geometry.wrap_angle(np.arctan2(dy, dx) - headings[:, None])
    block = np.zeros(d.shape + (3,))
    block[..., 0] = np.where(vis, d / reception, 0.0)
    block[..., 1] = np.where(vis, bearing / np.pi, 0.0)
    block[..., 2] = vis
    return block


def observe_all(state: WorldState, geom: PursuerGeometry | None = None) -> np.ndarray:
    """Observations for every pursuer, one row per agent.

    `geom` is the state's `pursuer_geometry`, when the caller has it.

    Row layout (all components in [-1, 1], masked entries exactly 0, mask 0):
      [per evader: dist/reception, bearing/pi, mask] * num_e
      [nearest obstacle or wall: clearance/reception, angle/pi, mask]
      [per teammate (index order, skipping self): dist/reception, bearing/pi, mask] * (num_p-1)
    """
    cfg = state.cfg
    reception = cfg.players.reception_range
    P = state.pursuers
    n = cfg.players.num_p
    headings = P[:, 2]

    ev_block = _relative_blocks(P, headings, state.evaders, reception, visible_mask=~state.captured)

    if geom is None:
        geom = pursuer_geometry(state)
    clear, pts = nearest_static_all(cfg, P[:, :2], geom.obstacle, geom.wall)
    angle = geometry.wrap_angle(np.arctan2(pts[:, 1] - P[:, 1], pts[:, 0] - P[:, 0]) - headings)
    o_vis = clear <= reception
    ob_block = np.zeros((n, 3))
    ob_block[:, 0] = np.where(o_vis, np.maximum(clear, 0.0) / reception, 0.0)
    ob_block[:, 1] = np.where(o_vis, angle / np.pi, 0.0)
    ob_block[:, 2] = o_vis

    tm_block = _relative_blocks(P, headings, P, reception)
    off_diag = ~np.eye(n, dtype=bool)
    tm_block = tm_block[off_diag].reshape(n, n - 1, 3)

    return np.concatenate([ev_block.reshape(n, -1), ob_block, tm_block.reshape(n, -1)], axis=1)


def central_observation(state: WorldState, learner_obs: np.ndarray) -> np.ndarray:
    """Centralized-critic input: learner observations plus global evader positions.

    `learner_obs` holds the `observe_all(state)` rows of the learner slots, in
    slot order. Evader positions are normalized to [-1, 1] over the arena;
    captured evaders are zeroed.
    """
    cfg = state.cfg
    ev = np.zeros(2 * cfg.players.num_e, dtype=np.float64)
    for e in range(cfg.players.num_e):
        if not state.captured[e]:
            ev[2 * e] = 2.0 * state.evaders[e, 0] / cfg.site.boundary_width - 1.0
            ev[2 * e + 1] = 2.0 * state.evaders[e, 1] / cfg.site.boundary_height - 1.0
    return np.concatenate([learner_obs.reshape(-1), ev])


def central_obs_length(cfg: EnvConfig, n_learners: int) -> int:
    return n_learners * obs_length(cfg) + 2 * cfg.players.num_e


# ---------------------------------------------------------------------------
# Views for scripted policies
# ---------------------------------------------------------------------------

def pursuer_view(state: WorldState, agent_id: int) -> scripted.AgentView:
    cfg = state.cfg
    pursuers = state.pursuers.tolist()
    x, y, heading = pursuers[agent_id]
    evaders = zip(state.evaders.tolist(), state.captured.tolist())
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


def evader_view(state: WorldState, evader_id: int) -> scripted.AgentView:
    cfg = state.cfg
    x, y, heading = state.evaders[evader_id].tolist()
    return scripted.AgentView(
        x=x,
        y=y,
        heading=heading,
        targets=(),
        other_drones=tuple((px, py) for px, py, _ in state.pursuers.tolist()),
        obstacles=cfg.site.obstacles,
        boundary=(cfg.site.boundary_width, cfg.site.boundary_height),
        reception_range=cfg.players.reception_range,
        omega_max=OMEGA_MAX,
        dt=1.0 / cfg.task.fps,
    )


# ---------------------------------------------------------------------------
# Step
# ---------------------------------------------------------------------------

def _advance(row: np.ndarray, steer: float, speed: float, omega_max: float, dt: float) -> None:
    row[2] = geometry.wrap_angle(row[2] + steer * omega_max * dt)
    row[0] += speed * math.cos(row[2]) * dt
    row[1] += speed * math.sin(row[2]) * dt


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])


class PursuerGeometry(NamedTuple):
    """Static geometry of the pursuers' positions."""

    pair: np.ndarray  # (num_p, num_p) center distances
    obstacle: np.ndarray  # (num_p, n_obstacles) signed clearances, config order
    wall: np.ndarray  # (num_p,) signed clearance to the nearest wall


def pursuer_geometry(state: WorldState) -> PursuerGeometry:
    """The geometry pass that a step's collisions, reward and observations share."""
    pts = state.pursuers[:, :2]
    return PursuerGeometry(
        pair=_pair_distances(state.pursuers, state.pursuers),
        obstacle=obstacle_clearance_matrix(state.cfg, pts),
        wall=_wall_clearances(state.cfg, pts),
    )


def _min_pursuer_distances(pursuers: np.ndarray, evaders: np.ndarray, captured: np.ndarray) -> np.ndarray:
    """Per-evader min distance to any pursuer (captured evaders get nan)."""
    d = _pair_distances(pursuers, evaders).min(axis=0)
    return np.where(captured, np.nan, d)


def detect_captures(state: WorldState) -> list[CaptureEvent]:
    """Uncaptured evaders within capture_range of any pursuer (nearest wins)."""
    d = _pair_distances(state.pursuers, state.evaders)
    events = []
    for e in range(state.cfg.players.num_e):
        if state.captured[e]:
            continue
        if float(d[:, e].min()) < state.cfg.task.capture_range:
            events.append(CaptureEvent(evader=e, pursuer=int(d[:, e].argmin())))
    return events


def _static_clearances(geom: PursuerGeometry) -> np.ndarray:
    """(num_p, n_obstacles + 1): the obstacle clearances, then the wall's."""
    return np.concatenate([geom.obstacle, geom.wall[:, None]], axis=1)


def detect_collisions(state: WorldState, geom: PursuerGeometry) -> list[CollisionEvent]:
    """Drone-drone, drone-obstacle, and drone-wall collision events.

    Only pursuers collide; evaders are excluded from collision failure.
    Thresholds: center distance < capture_range for drone-drone, clearance
    < safe_radius for obstacles and walls. `geom` is the state's
    `pursuer_geometry`. Order: drone-drone pairs (i < j), then per pursuer
    its obstacles by index and then its wall.
    """
    task = state.cfg.task
    rows, cols = (a.tolist() for a in np.nonzero(geom.pair < task.capture_range))  # row-major
    events = [CollisionEvent(kind="drone-drone", agents=(i, j)) for i, j in zip(rows, cols) if i < j]
    wall_col = geom.obstacle.shape[1]
    rows, cols = (a.tolist() for a in np.nonzero(_static_clearances(geom) < task.safe_radius))
    for i, k in zip(rows, cols):
        if k == wall_col:
            events.append(CollisionEvent(kind="drone-wall", agents=(i,)))
        else:
            events.append(CollisionEvent(kind="drone-obstacle", agents=(i,), obstacle=k))
    return events


def is_terminal(state: WorldState, collisions=()) -> str:
    """Terminal classification with precedence collision > success > timeout."""
    if collisions:
        return COLLISION
    if bool(np.all(state.captured)):
        return SUCCESS
    if state.step >= state.cfg.task.task_horizon:
        return TIMEOUT
    return RUNNING


def _proximity_count(state: WorldState, geom: PursuerGeometry) -> int:
    """Agents inside the penalty band beyond a collision threshold."""
    task = state.cfg.task
    dd = task.capture_range
    drone = (geom.pair >= dd) & (geom.pair < dd + PROX_BAND)
    np.fill_diagonal(drone, False)  # a drone is not its own neighbour
    static = _static_clearances(geom).min(axis=1)
    static_band = (static >= task.safe_radius) & (static < task.safe_radius + PROX_BAND)
    return int(np.sum(drone.any(axis=1) | static_band))


def compute_reward(
    prev_pursuers, prev_evaders, prev_captured, nxt: WorldState, captures, collisions, geom: PursuerGeometry
) -> float:
    """Shared team reward for the transition from the previous poses to `nxt`,
    whose `pursuer_geometry` is `geom`.

    capture bonus + one-sided min-distance progress shaping on evaders that
    stay uncaptured - proximity-band penalty - terminal collision penalty.
    """
    reward = R_CAP * len(captures)
    prev_d = _min_pursuer_distances(prev_pursuers, prev_evaders, prev_captured)
    next_d = _min_pursuer_distances(nxt.pursuers, nxt.evaders, nxt.captured)
    live = ~(prev_captured | nxt.captured)
    if np.any(live):
        progress = np.maximum(0.0, prev_d[live] - next_d[live])
        reward += C_SHAPE * float(progress.sum())
    reward -= C_PROX * _proximity_count(nxt, geom)
    if collisions:
        reward -= R_COL
    return reward


def step(state: WorldState, actions, observe: bool = True) -> StepOutcome:
    """Advance the world one tick. Mutates `state` and returns the outcome.

    With `observe=False` the outcome's observations are None and the rest is
    unchanged: the observations are the last thing a step computes.
    """
    cfg = state.cfg
    if state.terminal != RUNNING:
        raise RuntimeError(f"step() on a terminal state ({state.terminal})")
    steer = np.clip(np.asarray(actions, dtype=np.float64).reshape(-1), -1.0, 1.0)
    if steer.shape[0] != cfg.players.num_p:
        raise ValueError(f"expected {cfg.players.num_p} actions, got {steer.shape[0]}")

    prev_pursuers = state.pursuers.copy()
    prev_evaders = state.evaders.copy()
    prev_captured = state.captured.copy()
    dt = 1.0 / cfg.task.fps

    state.pursuers[:, 2] = geometry.wrap_angle(state.pursuers[:, 2] + steer * OMEGA_MAX * dt)
    state.pursuers[:, 0] += cfg.players.velocity_p * np.cos(state.pursuers[:, 2]) * dt
    state.pursuers[:, 1] += cfg.players.velocity_p * np.sin(state.pursuers[:, 2]) * dt

    for e in range(cfg.players.num_e):
        if state.captured[e]:
            continue
        esteer = scripted.evader_action(evader_view(state, e))
        old_xy = state.evaders[e, :2].copy()
        _advance(state.evaders[e], esteer, cfg.players.velocity_e, OMEGA_MAX, dt)
        # Evaders never terminate the episode, so block them from entering
        # obstacles or leaving the arena instead (heading still updates).
        if _wall_and_obstacle_clearance(cfg, state.evaders[e, 0], state.evaders[e, 1]) < 0.0:
            state.evaders[e, :2] = old_xy

    captures = detect_captures(state)
    for ev in captures:
        state.captured[ev.evader] = True
    # Pursuer poses are final from here on: one geometry pass serves the rest.
    geom = pursuer_geometry(state)
    collisions = detect_collisions(state, geom)
    reward = compute_reward(prev_pursuers, prev_evaders, prev_captured, state, captures, collisions, geom)
    state.step += 1
    state.terminal = is_terminal(state, collisions)

    return StepOutcome(
        observations=observe_all(state, geom) if observe else None,
        reward=reward,
        terminal=state.terminal,
        captures=captures,
        collisions=collisions,
    )


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
            "pursuers": [[float(v) for v in row] for row in state.pursuers],
            "evaders": [[float(v) for v in row] for row in state.evaders],
            "captured": [bool(c) for c in state.captured],
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

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())


def load_trajectory(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
