"""Rule-based drones: greedy pursuer, Vicsek-style pursuer, and the evader.

All three are pure functions of the world (no internal state), which keeps
replays deterministic. Outputs are steer commands in [-1, 1]; only the
desired orientation is controlled, never the speed. Each comes in two forms:

- the per-view functions (`greedy_action`, `vicsek_action`, `evader_action`)
  steer one drone from an `AgentView` snapshot (`sim.pursuer_view`,
  `sim.evader_view`); they define the policies, and the tests and the
  benchmark's tracer keep them as the oracles;
- the team kernels (`greedy_steers`, `vicsek_steers`, `evader_steers`) steer
  many drones of one world in one call, from its [x, y, heading] rows and
  capture flags, and build no view. `sim.step` steers its evaders with one
  `evader_steers` call, and an episode steers the scripted slots of each
  policy kind with one kernel call (`rl.ScriptedSlotPolicy.act`).

A kernel's steer has the bits of the per-view function on that drone's
view: it runs the same float operations in the same order, by these rules:

- `math.hypot` for target and drone distances and in `geometry.unit`, and
  the lines of `Obstacle.clearance` for the clearances;
- `math.atan2` and the scalar `wrap_angle` in the steer, divided by
  `OMEGA_MAX * (1.0 / fps)`, the product `steer_towards` takes of a view's
  `omega_max` and `dt` (at some frame rates `OMEGA_MAX / fps` differs);
- where the view code takes Python's `min` or `max` of floats, a
  conditional that returns what the builtin returns: `max(a, b)` is
  `b if b > a else a` and `min(a, b)` is `b if b < a else a`, so a tie keeps
  the first argument, +0.0 against -0.0 too; the nearest target is the
  first at the least distance;
- closest points only for the static entries inside `STATIC_RANGE`, listed
  as `_static_entries` lists them: obstacles in config order, then the
  walls (left, right, bottom, top);
- greedy flees the first entry inside its hard radius, drones before static
  entries;
- no `sum`, which Python compensates from 3.12 on.

The obstacle parameters are stacked as float rows with their culling boxes
once per config object, and looked up by its identity (`arena`). Each
static query of a kernel, `_statics` for the steering entries and
`static_below` for the evaders' keep-out and `sim.reset`'s spawn test,
skips the obstacles whose box does not hold its point: their clearances are
at least the reach, beyond every threshold these queries compare with (the
culling rule in `sim`'s module notes).

A kernel calls no helper per drone or per entry besides `_statics`: the
attraction, `geometry.unit`, `_away_from` and `steer_towards` are written
out in each kernel, as a Python call costs about as much as the arithmetic
it wraps. Greedy takes each pursuer pair's `math.hypot` once per call and
files it under both drones, in index order, and every kernel takes a
drone's distance again as the norm of the direction away from it: the bits
are the same, as fl(a - b) == -fl(b - a) and `math.hypot` ignores signs.
`_away_from`'s fixed direction (1, 0) is taken exactly when that norm is
below `geometry.unit`'s 1e-12, as the two quotients of a larger norm cannot
both be 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry
from .config import EnvConfig, Obstacle, per_config

#: Maximum turn rate (rad/s) at |steer| = 1. Lets a drone reverse heading in
#: one second at the default 10 fps.
OMEGA_MAX = math.pi

# Default behavior constants. Avoid ranges clear the 0.1/0.2 m collision
# thresholds with margin. The drone evasion range exceeds the static one
# because two drones close at twice the speed of a drone approaching a wall.
GREEDY_EVASION_RANGE = 0.5
GREEDY_DRONE_EVASION_RANGE = 0.8
GREEDY_AVOID_GAIN = 3.0
GREEDY_TANGENT_GAIN = 0.6
GREEDY_HARD_DRONE = 0.30
GREEDY_HARD_STATIC = 0.16
VICSEK_AGENT_RANGE = 0.5
VICSEK_OBSTACLE_RANGE = 0.4
VICSEK_GAIN = 1.0
EVADER_OBSTACLE_RANGE = 0.5
#: Every policy ignores an obstacle or wall at or beyond its own range, and
#: no range exceeds this one, so the views report nothing farther away.
STATIC_RANGE = max(GREEDY_EVASION_RANGE, VICSEK_OBSTACLE_RANGE, EVADER_OBSTACLE_RANGE)
#: Width of the step's proximity band beyond each collision threshold
#: (`sim.PROX_BAND`), kept here because the culling boxes of `arena` cover it.
PROX_BAND = 0.1


@dataclass(frozen=True)
class AgentView:
    """Egocentric world snapshot handed to a scripted policy.

    `targets` are positions to chase (uncaptured evaders; empty for the
    evader policy). `other_drones` are drones to avoid: teammates for a
    pursuer, all pursuers for an evader.
    """

    x: float
    y: float
    heading: float
    targets: tuple[tuple[float, float], ...]
    other_drones: tuple[tuple[float, float], ...]
    obstacles: tuple[Obstacle, ...]
    boundary: tuple[float, float]
    reception_range: float
    omega_max: float
    dt: float


def steer_towards(view: AgentView, vx: float, vy: float) -> float:
    """Convert a desired direction into a clamped steer command."""
    if math.hypot(vx, vy) < 1e-9:
        return 0.0
    error = geometry.wrap_angle(math.atan2(vy, vx) - view.heading)
    return max(-1.0, min(1.0, error / (view.omega_max * view.dt)))


def _nearest_target(view: AgentView) -> tuple[float, float]:
    if not view.targets:
        return view.boundary[0] / 2.0, view.boundary[1] / 2.0
    # Ties break toward the lowest index for replay determinism.
    return min(view.targets, key=lambda t: (math.hypot(t[0] - view.x, t[1] - view.y)))


def _static_entries(view: AgentView):
    """(clearance, closest point) of each obstacle and wall whose clearance is
    below `STATIC_RANGE`: obstacles in config order, then the walls (left,
    right, bottom, top). Closest points are computed for these alone."""
    x, y = view.x, view.y
    w, h = view.boundary
    out = []
    for ob in view.obstacles:
        clear = ob.clearance(x, y)
        if clear < STATIC_RANGE:
            out.append((clear, ob.closest_point(x, y)))
    if x < STATIC_RANGE:
        out.append((x, (0.0, y)))
    if w - x < STATIC_RANGE:
        out.append((w - x, (w, y)))
    if y < STATIC_RANGE:
        out.append((y, (x, 0.0)))
    if h - y < STATIC_RANGE:
        out.append((h - y, (x, h)))
    return out


def _away_from(view: AgentView, point) -> tuple[float, float]:
    ux, uy = geometry.unit(view.x - point[0], view.y - point[1])
    if ux == 0.0 and uy == 0.0:
        return 1.0, 0.0
    return ux, uy


def greedy_action(view: AgentView) -> float:
    """Chase the nearest target, deflecting away from threats in evasion range.

    Three-part avoidance: inside a hard radius the drone flees the threat
    outright; otherwise each threat in range cancels the toward-threat part
    of the attraction, pushes radially outward, and adds a deterministic
    tangential swirl (toward whichever tangent is closer to the current
    heading) so head-on encounters break symmetry.
    """
    tx, ty = _nearest_target(view)
    attract = geometry.unit(tx - view.x, ty - view.y)
    vx, vy = attract

    entries = [(math.hypot(q[0] - view.x, q[1] - view.y), q, True) for q in view.other_drones]
    entries += [(d, p, False) for d, p in _static_entries(view)]

    for d, point, is_drone in entries:
        if d < (GREEDY_HARD_DRONE if is_drone else GREEDY_HARD_STATIC):
            ux, uy = _away_from(view, point)
            return steer_towards(view, ux, uy)

    for d, point, is_drone in entries:
        rng = GREEDY_DRONE_EVASION_RANGE if is_drone else GREEDY_EVASION_RANGE
        if d >= rng:
            continue
        s = (rng - max(d, 0.0)) / rng
        ux, uy = _away_from(view, point)
        inward = max(0.0, -(attract[0] * ux + attract[1] * uy))
        vx += s * inward * ux + GREEDY_AVOID_GAIN * s * s * ux
        vy += s * inward * uy + GREEDY_AVOID_GAIN * s * s * uy
        tangent_x, tangent_y = -uy, ux
        if tangent_x * math.cos(view.heading) + tangent_y * math.sin(view.heading) < 0:
            tangent_x, tangent_y = uy, -ux
        vx += GREEDY_TANGENT_GAIN * s * tangent_x
        vy += GREEDY_TANGENT_GAIN * s * tangent_y

    return steer_towards(view, vx, vy)


def vicsek_action(view: AgentView) -> float:
    """Unit attraction plus (1/d - 1/range) repulsion from every nearby threat."""
    tx, ty = _nearest_target(view)
    vx, vy = geometry.unit(tx - view.x, ty - view.y)

    for qx, qy in view.other_drones:
        d = math.hypot(qx - view.x, qy - view.y)
        if d < VICSEK_AGENT_RANGE:
            mag = VICSEK_GAIN * (1.0 / max(d, 1e-6) - 1.0 / VICSEK_AGENT_RANGE)
            ax, ay = _away_from(view, (qx, qy))
            vx += mag * ax
            vy += mag * ay

    for d, point in _static_entries(view):
        if d < VICSEK_OBSTACLE_RANGE:
            mag = VICSEK_GAIN * (1.0 / max(d, 1e-6) - 1.0 / VICSEK_OBSTACLE_RANGE)
            ax, ay = _away_from(view, point)
            vx += mag * ax
            vy += mag * ay

    return steer_towards(view, vx, vy)


def evader_action(view: AgentView) -> float:
    """Potential-field flee: 1/d^2 from pursuers in range, wall/obstacle repulsion.

    With nothing in range the evader holds its heading (steer 0).
    """
    fx = fy = 0.0
    for qx, qy in view.other_drones:
        d = math.hypot(qx - view.x, qy - view.y)
        if d <= view.reception_range:
            ax, ay = _away_from(view, (qx, qy))
            mag = 1.0 / max(d, 1e-3) ** 2
            fx += mag * ax
            fy += mag * ay

    for d, point in _static_entries(view):
        if d < EVADER_OBSTACLE_RANGE:
            mag = 1.0 / max(d, 1e-3) - 1.0 / EVADER_OBSTACLE_RANGE
            ax, ay = _away_from(view, point)
            fx += mag * ax
            fy += mag * ay

    return steer_towards(view, fx, fy)


PURSUER_POLICIES = {
    "greedy": greedy_action,
    "vicsek": vicsek_action,
}


# ---------------------------------------------------------------------------
# Team kernels: the policies above for many drones of one world at once
# ---------------------------------------------------------------------------

#: The margin by which a culling box exceeds the reach: far above the
#: rounding error of a clearance in an arena up to 1e5 m across (a few ulps,
#: under 1e-10), so a point outside the box has a computed clearance of at
#: least the reach.
CULL_MARGIN = 1e-9


@per_config
def arena(cfg: EnvConfig):
    """(rows, width, height, omega_max * dt) of an arena, the last as
    `steer_towards` multiplies a view's fields, looked up by the config's
    identity (`config.per_config`).

    `rows` holds (is a circle, cx, cy, sx, sy, x0, x1, y0, y1) per obstacle,
    in config order, as floats: `sx` is a circle's radius or a rectangle's x
    half extent, `sy` a rectangle's y half extent (0.0 for a circle), and
    (x0, x1, y0, y1) its culling box, the obstacle's bounding box widened by
    the reach max(`STATIC_RANGE`, safe_radius + `PROX_BAND`) plus
    `CULL_MARGIN`. The reach is the largest threshold any static query
    compares a clearance with, and a point outside the box is at least the
    reach from the obstacle, so each query skips the obstacles whose box
    does not hold its point and computes the others as the full scan would.
    """
    site = cfg.site
    reach = max(STATIC_RANGE, cfg.task.safe_radius + PROX_BAND) + CULL_MARGIN
    rows = []
    for ob in site.obstacles:
        cx, cy = float(ob.center[0]), float(ob.center[1])
        if ob.shape == "circle":
            sx, sy = float(ob.radius), 0.0
            ex = ey = sx + reach
        else:
            sx, sy = float(ob.half_extents[0]), float(ob.half_extents[1])
            ex, ey = sx + reach, sy + reach
        rows.append((ob.shape == "circle", cx, cy, sx, sy, cx - ex, cx + ex, cy - ey, cy + ey))
    return tuple(rows), site.boundary_width, site.boundary_height, OMEGA_MAX * (1.0 / cfg.task.fps)


def static_below(rows, w: float, h: float, x: float, y: float, limit: float) -> bool:
    """Whether the clearance of (x, y) to some wall of the w x h arena or
    obstacle of `arena` `rows` is below `limit`, at most the rows' reach:
    the test `clear < limit` of the fold of `geometry.wall_clearance` and
    each `Obstacle.clearance`, as a minimum is below the limit exactly when
    one of its terms is. The evaders' keep-out asks it with limit 0.0 and
    `sim.reset`'s spawn test with safe_radius."""
    if geometry.wall_clearance(x, y, w, h) < limit:
        return True
    for circle, cx, cy, sx, sy, x0, x1, y0, y1 in rows:
        if x0 < x < x1 and y0 < y < y1:
            if circle:
                if abs(complex(x - cx, y - cy)) - sx < limit:
                    return True
            else:
                dx = abs(x - cx) - sx
                dy = abs(y - cy) - sy
                if (abs(complex(dx, dy)) if dx > 0.0 and dy > 0.0 else (dx if dx > dy else dy)) < limit:
                    return True
    return False


def _statics(rows, w: float, h: float, x: float, y: float) -> list[tuple[float, float, float]]:
    """`_static_entries` of a view at (x, y), as (clearance, px, py) triples,
    over the obstacles whose culling box holds the point.

    The box test and the lines of `Obstacle.clearance` are written here, not
    called per drone: a helper call per drone cost about 6 % of an eval step."""
    out = []
    for circle, cx, cy, sx, sy, x0, x1, y0, y1 in rows:
        if x0 < x < x1 and y0 < y < y1:
            if circle:
                clear = abs(complex(x - cx, y - cy)) - sx
                if clear < STATIC_RANGE:
                    out.append((clear, *geometry.closest_point_on_circle(x, y, cx, cy, sx)))
            else:
                dx = abs(x - cx) - sx
                dy = abs(y - cy) - sy
                clear = abs(complex(dx, dy)) if dx > 0.0 and dy > 0.0 else (dx if dx > dy else dy)
                if clear < STATIC_RANGE:
                    out.append((clear, *geometry.closest_point_on_rect(x, y, cx, cy, sx, sy)))
    if x < STATIC_RANGE:
        out.append((x, 0.0, y))
    if w - x < STATIC_RANGE:
        out.append((w - x, w, y))
    if y < STATIC_RANGE:
        out.append((y, x, 0.0))
    if h - y < STATIC_RANGE:
        out.append((h - y, x, h))
    return out


def greedy_steers(cfg: EnvConfig, pursuers, evaders, captured, slots) -> list[float]:
    """`greedy_action` of each slot's `sim.pursuer_view`, with its bits: one
    steer per slot in `slots`, from the [x, y, heading] rows of the pursuers
    and evaders and the evaders' capture flags."""
    rows, w, h, turn = arena(cfg)
    targets = [(pose[0], pose[1]) for pose, done in zip(evaders, captured) if not done]
    # (distance, x, y) of the other drones of each drone, in index order,
    # with one math.hypot per pair
    near = [[] for _ in pursuers]
    for a, (qx, qy, _) in enumerate(pursuers):
        for b in range(a + 1, len(pursuers)):
            rx, ry, _ = pursuers[b]
            d = math.hypot(rx - qx, ry - qy)
            near[a].append((d, rx, ry))
            near[b].append((d, qx, qy))
    out = []
    for i in slots:
        x, y, heading = pursuers[i]
        drones = near[i]
        # the first drone, then static entry, inside its hard radius is fled
        # outright; the static entries are not needed when a drone is inside
        flee = statics = None
        for d, px, py in drones:
            if d < GREEDY_HARD_DRONE:
                flee = x - px, y - py, d
                break
        else:
            statics = _statics(rows, w, h, x, y)
            for d, px, py in statics:
                if d < GREEDY_HARD_STATIC:
                    dx, dy = x - px, y - py
                    flee = dx, dy, math.hypot(dx, dy)
                    break
        if flee is not None:
            dx, dy, n = flee
            vx, vy = (1.0, 0.0) if n < 1e-12 else (dx / n, dy / n)
        else:
            if targets:
                best = None
                for tx, ty in targets:
                    d = math.hypot(tx - x, ty - y)
                    if best is None or d < best:
                        best, nx, ny = d, tx, ty
            else:
                nx, ny = w / 2.0, h / 2.0
            dx, dy = nx - x, ny - y
            n = math.hypot(dx, dy)
            ax, ay = (0.0, 0.0) if n < 1e-12 else (dx / n, dy / n)
            vx, vy = ax, ay
            for d, px, py in drones:
                if d < GREEDY_DRONE_EVASION_RANGE:
                    # a hypot is never below +0.0, so max(d, 0.0) is d
                    s = (GREEDY_DRONE_EVASION_RANGE - d) / GREEDY_DRONE_EVASION_RANGE
                    dx, dy = x - px, y - py
                    ux, uy = (1.0, 0.0) if d < 1e-12 else (dx / d, dy / d)
                    inward = -(ax * ux + ay * uy)
                    inward = inward if inward > 0.0 else 0.0
                    vx += s * inward * ux + GREEDY_AVOID_GAIN * s * s * ux
                    vy += s * inward * uy + GREEDY_AVOID_GAIN * s * s * uy
                    tangent_x, tangent_y = -uy, ux
                    if tangent_x * math.cos(heading) + tangent_y * math.sin(heading) < 0:
                        tangent_x, tangent_y = uy, -ux
                    vx += GREEDY_TANGENT_GAIN * s * tangent_x
                    vy += GREEDY_TANGENT_GAIN * s * tangent_y
            for d, px, py in statics:
                if d < GREEDY_EVASION_RANGE:
                    s = (GREEDY_EVASION_RANGE - (0.0 if 0.0 > d else d)) / GREEDY_EVASION_RANGE
                    dx, dy = x - px, y - py
                    n = math.hypot(dx, dy)
                    ux, uy = (1.0, 0.0) if n < 1e-12 else (dx / n, dy / n)
                    inward = -(ax * ux + ay * uy)
                    inward = inward if inward > 0.0 else 0.0
                    vx += s * inward * ux + GREEDY_AVOID_GAIN * s * s * ux
                    vy += s * inward * uy + GREEDY_AVOID_GAIN * s * s * uy
                    tangent_x, tangent_y = -uy, ux
                    if tangent_x * math.cos(heading) + tangent_y * math.sin(heading) < 0:
                        tangent_x, tangent_y = uy, -ux
                    vx += GREEDY_TANGENT_GAIN * s * tangent_x
                    vy += GREEDY_TANGENT_GAIN * s * tangent_y
        if math.hypot(vx, vy) < 1e-9:
            out.append(0.0)
        else:
            e = (math.pi - (math.pi - (math.atan2(vy, vx) - heading)) % geometry.TWO_PI) / turn
            e = e if e < 1.0 else 1.0
            out.append(e if e > -1.0 else -1.0)
    return out


def vicsek_steers(cfg: EnvConfig, pursuers, evaders, captured, slots) -> list[float]:
    """`vicsek_action` of each slot's `sim.pursuer_view`, with its bits; the
    arguments are those of `greedy_steers`."""
    rows, w, h, turn = arena(cfg)
    targets = [(pose[0], pose[1]) for pose, done in zip(evaders, captured) if not done]
    out = []
    for i in slots:
        x, y, heading = pursuers[i]
        if targets:
            best = None
            for tx, ty in targets:
                d = math.hypot(tx - x, ty - y)
                if best is None or d < best:
                    best, nx, ny = d, tx, ty
        else:
            nx, ny = w / 2.0, h / 2.0
        dx, dy = nx - x, ny - y
        n = math.hypot(dx, dy)
        vx, vy = (0.0, 0.0) if n < 1e-12 else (dx / n, dy / n)
        for j, q in enumerate(pursuers):
            if j == i:
                continue
            dx, dy = x - q[0], y - q[1]
            d = math.hypot(dx, dy)
            if d < VICSEK_AGENT_RANGE:
                mag = VICSEK_GAIN * (1.0 / (1e-6 if 1e-6 > d else d) - 1.0 / VICSEK_AGENT_RANGE)
                ux, uy = (1.0, 0.0) if d < 1e-12 else (dx / d, dy / d)
                vx += mag * ux
                vy += mag * uy
        for d, px, py in _statics(rows, w, h, x, y):
            if d < VICSEK_OBSTACLE_RANGE:
                mag = VICSEK_GAIN * (1.0 / (1e-6 if 1e-6 > d else d) - 1.0 / VICSEK_OBSTACLE_RANGE)
                dx, dy = x - px, y - py
                n = math.hypot(dx, dy)
                ux, uy = (1.0, 0.0) if n < 1e-12 else (dx / n, dy / n)
                vx += mag * ux
                vy += mag * uy
        if math.hypot(vx, vy) < 1e-9:
            out.append(0.0)
        else:
            e = (math.pi - (math.pi - (math.atan2(vy, vx) - heading)) % geometry.TWO_PI) / turn
            e = e if e < 1.0 else 1.0
            out.append(e if e > -1.0 else -1.0)
    return out


def evader_steers(cfg: EnvConfig, drones, evaders, captured) -> list[float]:
    """`evader_action` of each uncaptured evader's `sim.evader_view` among
    the drones, in index order, with its bits. `drones` and `evaders` are
    [x, y, ...] and [x, y, heading] rows. Each view reads only its own
    evader's pose, so the steers of all evaders come before any moves."""
    rows, w, h, turn = arena(cfg)
    reception = cfg.players.reception_range
    out = []
    for (x, y, heading), done in zip(evaders, captured):
        if done:
            continue
        fx = fy = 0.0
        for q in drones:
            dx, dy = x - q[0], y - q[1]
            d = math.hypot(dx, dy)
            if d <= reception:
                ux, uy = (1.0, 0.0) if d < 1e-12 else (dx / d, dy / d)
                mag = 1.0 / (1e-3 if 1e-3 > d else d) ** 2
                fx += mag * ux
                fy += mag * uy
        for d, px, py in _statics(rows, w, h, x, y):
            if d < EVADER_OBSTACLE_RANGE:
                mag = 1.0 / (1e-3 if 1e-3 > d else d) - 1.0 / EVADER_OBSTACLE_RANGE
                dx, dy = x - px, y - py
                n = math.hypot(dx, dy)
                ux, uy = (1.0, 0.0) if n < 1e-12 else (dx / n, dy / n)
                fx += mag * ux
                fy += mag * uy
        if math.hypot(fx, fy) < 1e-9:
            out.append(0.0)
        else:
            e = (math.pi - (math.pi - (math.atan2(fy, fx) - heading)) % geometry.TWO_PI) / turn
            e = e if e < 1.0 else 1.0
            out.append(e if e > -1.0 else -1.0)
    return out


PURSUER_KERNELS = {
    "greedy": greedy_steers,
    "vicsek": vicsek_steers,
}


def pursuer_policy(policy_id: str):
    """Team kernel of a scripted pursuer identifier ("greedy" or "vicsek")."""
    try:
        return PURSUER_KERNELS[policy_id]
    except KeyError:
        raise KeyError(f"unknown scripted pursuer policy {policy_id!r}") from None
