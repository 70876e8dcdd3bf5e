"""The simulator step and observations on numpy arrays: the bitwise oracles
of `sim.step`, `sim.observe_all` and `sim.central_observation`.

`sim` runs on Python floats. This module keeps the array versions they
replaced, operation for operation, so that the tests can require equal
bytes: the same `StepOutcome` fields, the same post-step rows and the same
observation rows. Its entry points take the `sim.WorldState` that `sim`
keeps and compute on an array copy of it (`arrays`); `step` writes the
result back as `sim` keeps it: float rows, flags and each evader's
nearest-pursuer distance, measured afresh. It shares with `sim` only what
the two paths have in common: termination (`sim.is_terminal`) and the
per-view evader policy (`scripted.evader_action`), which `sim` runs as its
team kernel.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from pursuit_lab import geometry, scripted, sim
from pursuit_lab.config import Obstacle


def arrays(state) -> sim.WorldState:
    """`state` with its rows as a (num, 3) float64 array each and its flags
    as a bool array: copies of float rows, the same arrays when they are
    arrays already."""
    return replace(
        state,
        pursuers=np.asarray(state.pursuers, dtype=np.float64).reshape(-1, 3),
        evaders=np.asarray(state.evaders, dtype=np.float64).reshape(-1, 3),
        captured=np.asarray(state.captured, dtype=bool),
    )


#: libm's `atan2` per element, as `sim.observe_all` takes the bearings
atan2 = np.vectorize(math.atan2, otypes=[np.float64])


def pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])


class ShapeColumns(NamedTuple):
    """Parameters of the obstacles of one shape, as (1, n) rows."""

    cols: np.ndarray  # their columns in the clearance matrix (config order)
    cx: np.ndarray
    cy: np.ndarray
    sx: np.ndarray  # radius of a circle, x half extent of a rectangle
    sy: np.ndarray  # y half extent of a rectangle (0 for a circle)


@lru_cache(maxsize=16)
def stacked_obstacles(obstacles: tuple[Obstacle, ...]) -> tuple[ShapeColumns, ShapeColumns]:
    """(circles, rectangles) of an obstacle tuple, stacked once per tuple."""

    def columns(shape: str) -> ShapeColumns:
        picked = [(k, ob) for k, ob in enumerate(obstacles) if ob.shape == shape]
        sizes = [(ob.radius, 0.0) if shape == "circle" else ob.half_extents for _, ob in picked]
        return ShapeColumns(
            cols=np.array([k for k, _ in picked], dtype=np.intp),
            cx=np.array([[ob.center[0] for _, ob in picked]]),
            cy=np.array([[ob.center[1] for _, ob in picked]]),
            sx=np.array([[sx for sx, _ in sizes]]),
            sy=np.array([[sy for _, sy in sizes]]),
        )

    return columns("circle"), columns("rectangle")


def obstacle_clearance_matrix(cfg, pts: np.ndarray) -> np.ndarray:
    """(n_points, n_obstacles) signed clearances, columns in config order."""
    circles, rects = stacked_obstacles(cfg.site.obstacles)
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


def wall_clearances(cfg, pts: np.ndarray) -> np.ndarray:
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    x, y = pts[:, 0], pts[:, 1]
    return np.minimum(np.minimum(np.minimum(x, w - x), y), h - y)


class ArrayGeometry(NamedTuple):
    pair: np.ndarray  # (num_p, num_p) center distances
    obstacle: np.ndarray  # (num_p, n_obstacles) signed clearances, config order
    wall: np.ndarray  # (num_p,) signed clearance to the nearest wall


def pursuer_geometry(state) -> ArrayGeometry:
    state = arrays(state)
    pts = state.pursuers[:, :2]
    return ArrayGeometry(
        pair=pair_distances(state.pursuers, state.pursuers),
        obstacle=obstacle_clearance_matrix(state.cfg, pts),
        wall=wall_clearances(state.cfg, pts),
    )


def wall_closest_points(cfg, pts: np.ndarray) -> np.ndarray:
    w, h = cfg.site.boundary_width, cfg.site.boundary_height
    x, y = pts[:, 0], pts[:, 1]
    which = np.stack([x, w - x, y, h - y]).argmin(axis=0)  # left, right, bottom, top
    out = pts.copy()
    out[np.arange(len(pts)), which >> 1] = np.array((0.0, w, 0.0, h))[which]
    return out


def nearest_static_all(cfg, pts: np.ndarray, obstacle: np.ndarray, wall: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point: (clearance, closest point) over all obstacles and walls.

    `obstacle` and `wall` are the points' `obstacle_clearance_matrix` and wall
    clearances. A tie goes to the wall, then to the lowest obstacle index.
    """
    best_pts = wall_closest_points(cfg, pts)
    if not obstacle.shape[1]:
        return wall.copy(), best_pts
    nearest = obstacle.argmin(axis=1)
    clear = obstacle[np.arange(len(pts)), nearest]
    wins = clear < wall
    xy = pts.tolist()
    for i in np.flatnonzero(wins).tolist():
        best_pts[i] = cfg.site.obstacles[nearest[i]].closest_point(*xy[i])
    return np.where(wins, clear, wall), best_pts


def relative_blocks(origins: np.ndarray, headings: np.ndarray, targets: np.ndarray, reception: float, visible_mask=None):
    """(n_origins, n_targets, 3) blocks of (dist/reception, bearing/pi, mask)."""
    dx = targets[None, :, 0] - origins[:, None, 0]
    dy = targets[None, :, 1] - origins[:, None, 1]
    d = np.hypot(dx, dy)
    vis = d <= reception
    if visible_mask is not None:
        vis &= visible_mask[None, :]
    bearing = geometry.wrap_angle(atan2(dy, dx) - headings[:, None])
    block = np.zeros(d.shape + (3,))
    block[..., 0] = np.where(vis, d / reception, 0.0)
    block[..., 1] = np.where(vis, bearing / np.pi, 0.0)
    block[..., 2] = vis
    return block


def observe_all(state, geom: ArrayGeometry | None = None) -> np.ndarray:
    """The rows of one state's `sim.observe_all` pass, per block on numpy
    arrays."""
    state = arrays(state)
    cfg = state.cfg
    reception = cfg.players.reception_range
    P = state.pursuers
    n = cfg.players.num_p
    headings = P[:, 2]

    ev_block = relative_blocks(P, headings, state.evaders, reception, visible_mask=~state.captured)

    if geom is None:
        geom = pursuer_geometry(state)
    clear, pts = nearest_static_all(cfg, P[:, :2], geom.obstacle, geom.wall)
    angle = geometry.wrap_angle(atan2(pts[:, 1] - P[:, 1], pts[:, 0] - P[:, 0]) - headings)
    o_vis = clear <= reception
    ob_block = np.zeros((n, 3))
    ob_block[:, 0] = np.where(o_vis, np.maximum(clear, 0.0) / reception, 0.0)
    ob_block[:, 1] = np.where(o_vis, angle / np.pi, 0.0)
    ob_block[:, 2] = o_vis

    tm_block = relative_blocks(P, headings, P, reception)
    off_diag = ~np.eye(n, dtype=bool)
    tm_block = tm_block[off_diag].reshape(n, n - 1, 3)

    return np.concatenate([ev_block.reshape(n, -1), ob_block, tm_block.reshape(n, -1)], axis=1)


def central_observation(state, learner_obs: np.ndarray) -> np.ndarray:
    """`sim.central_observation` on numpy arrays."""
    state = arrays(state)
    cfg = state.cfg
    ev = np.zeros(2 * cfg.players.num_e, dtype=np.float64)
    for e in range(cfg.players.num_e):
        if not state.captured[e]:
            ev[2 * e] = 2.0 * state.evaders[e, 0] / cfg.site.boundary_width - 1.0
            ev[2 * e + 1] = 2.0 * state.evaders[e, 1] / cfg.site.boundary_height - 1.0
    return np.concatenate([learner_obs.reshape(-1), ev])


def min_pursuer_distances(pursuers: np.ndarray, evaders: np.ndarray, captured: np.ndarray) -> np.ndarray:
    """Per-evader min distance to any pursuer (captured evaders get nan)."""
    d = pair_distances(pursuers, evaders).min(axis=0)
    return np.where(captured, np.nan, d)


def detect_captures(state) -> list[sim.CaptureEvent]:
    d = pair_distances(state.pursuers, state.evaders)
    events = []
    for e in range(state.cfg.players.num_e):
        if state.captured[e]:
            continue
        if float(d[:, e].min()) < state.cfg.task.capture_range:
            events.append(sim.CaptureEvent(evader=e, pursuer=int(d[:, e].argmin())))
    return events


def static_clearances(geom: ArrayGeometry) -> np.ndarray:
    """(num_p, n_obstacles + 1): the obstacle clearances, then the wall's."""
    return np.concatenate([geom.obstacle, geom.wall[:, None]], axis=1)


def detect_collisions(state, geom: ArrayGeometry) -> list[sim.CollisionEvent]:
    task = state.cfg.task
    rows, cols = (a.tolist() for a in np.nonzero(geom.pair < task.capture_range))  # row-major
    events = [sim.CollisionEvent(kind="drone-drone", agents=(i, j)) for i, j in zip(rows, cols) if i < j]
    wall_col = geom.obstacle.shape[1]
    rows, cols = (a.tolist() for a in np.nonzero(static_clearances(geom) < task.safe_radius))
    for i, k in zip(rows, cols):
        if k == wall_col:
            events.append(sim.CollisionEvent(kind="drone-wall", agents=(i,)))
        else:
            events.append(sim.CollisionEvent(kind="drone-obstacle", agents=(i,), obstacle=k))
    return events


def proximity_count(state, geom: ArrayGeometry) -> int:
    """Agents inside the penalty band beyond a collision threshold."""
    task = state.cfg.task
    dd = task.capture_range
    drone = (geom.pair >= dd) & (geom.pair < dd + sim.PROX_BAND)
    np.fill_diagonal(drone, False)  # a drone is not its own neighbour
    static = static_clearances(geom).min(axis=1)
    static_band = (static >= task.safe_radius) & (static < task.safe_radius + sim.PROX_BAND)
    return int(np.sum(drone.any(axis=1) | static_band))


def compute_reward(prev_pursuers, prev_evaders, prev_captured, nxt, captures, collisions, geom: ArrayGeometry) -> float:
    reward = sim.R_CAP * len(captures)
    prev_d = min_pursuer_distances(prev_pursuers, prev_evaders, prev_captured)
    next_d = min_pursuer_distances(nxt.pursuers, nxt.evaders, nxt.captured)
    live = ~(prev_captured | nxt.captured)
    if np.any(live):
        progress = np.maximum(0.0, prev_d[live] - next_d[live])
        reward += sim.C_SHAPE * float(progress.sum())
    reward -= sim.C_PROX * proximity_count(nxt, geom)
    if collisions:
        reward -= sim.R_COL
    return reward


def evader_view(state, evader_id: int) -> scripted.AgentView:
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
        omega_max=sim.OMEGA_MAX,
        dt=1.0 / cfg.task.fps,
    )


def keep_out_clearance(cfg, x, y) -> float:
    """Signed clearance of (x, y) to the nearest wall or obstacle, the least
    of its `obstacle_clearance_matrix` row and its wall clearance: the full
    scan that `scripted.static_below` culls, which the evaders' keep-out
    compares with 0.0 and `sim.reset`'s spawn test with safe_radius."""
    pts = np.array([[x, y]], dtype=np.float64)
    return float(np.append(obstacle_clearance_matrix(cfg, pts), wall_clearances(cfg, pts)).min())


def advance(row: np.ndarray, steer: float, speed: float, omega_max: float, dt: float) -> None:
    row[2] = geometry.wrap_angle(row[2] + steer * omega_max * dt)
    row[0] += speed * math.cos(row[2]) * dt
    row[1] += speed * math.sin(row[2]) * dt


def step(state, actions, observe: bool = True) -> sim.StepOutcome:
    """`sim.step` on numpy arrays: steps an array copy of `state`, then
    writes its rows, flags and nearest-pursuer distances (None for a
    captured evader) back into `state` as `sim` keeps them."""
    arr = arrays(state)
    out = step_arrays(arr, actions, observe)
    state.pursuers, state.evaders, state.captured = arr.pursuers.tolist(), arr.evaders.tolist(), arr.captured.tolist()
    gaps = min_pursuer_distances(arr.pursuers, arr.evaders, arr.captured).tolist()
    state.evader_gaps = [None if done else gap for gap, done in zip(gaps, state.captured)]
    state.step, state.terminal = arr.step, arr.terminal
    return out


def step_arrays(state, actions, observe: bool = True) -> sim.StepOutcome:
    """The array step, in place on an `arrays` state."""
    cfg = state.cfg
    if state.terminal != sim.RUNNING:
        raise RuntimeError(f"step() on a terminal state ({state.terminal})")
    steer = np.clip(np.asarray(actions, dtype=np.float64).reshape(-1), -1.0, 1.0)
    if steer.shape[0] != cfg.players.num_p:
        raise ValueError(f"expected {cfg.players.num_p} actions, got {steer.shape[0]}")

    prev_pursuers = state.pursuers.copy()
    prev_evaders = state.evaders.copy()
    prev_captured = state.captured.copy()
    dt = 1.0 / cfg.task.fps

    state.pursuers[:, 2] = geometry.wrap_angle(state.pursuers[:, 2] + steer * sim.OMEGA_MAX * dt)
    state.pursuers[:, 0] += cfg.players.velocity_p * np.cos(state.pursuers[:, 2]) * dt
    state.pursuers[:, 1] += cfg.players.velocity_p * np.sin(state.pursuers[:, 2]) * dt

    for e in range(cfg.players.num_e):
        if state.captured[e]:
            continue
        esteer = scripted.evader_action(evader_view(state, e))
        old_xy = state.evaders[e, :2].copy()
        advance(state.evaders[e], esteer, cfg.players.velocity_e, sim.OMEGA_MAX, dt)
        if keep_out_clearance(cfg, state.evaders[e, 0], state.evaders[e, 1]) < 0.0:
            state.evaders[e, :2] = old_xy

    captures = detect_captures(state)
    for ev in captures:
        state.captured[ev.evader] = True
    geom = pursuer_geometry(state)
    collisions = detect_collisions(state, geom)
    reward = compute_reward(prev_pursuers, prev_evaders, prev_captured, state, captures, collisions, geom)
    state.step += 1
    state.terminal = sim.is_terminal(state, collisions)

    return sim.StepOutcome(
        observations=observe_all(state, geom) if observe else None,
        reward=reward,
        terminal=state.terminal,
        captures=captures,
        collisions=collisions,
    )
