"""Rule-based drones: greedy pursuer, Vicsek-style pursuer, and the evader.

All three are pure functions of an `AgentView` snapshot (no internal state),
which keeps replays deterministic. Outputs are steer commands in [-1, 1];
only the desired orientation is controlled, never the speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry
from .config import Obstacle

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


def pursuer_policy(policy_id: str):
    """Scripted pursuer callable for an identifier ("greedy" or "vicsek")."""
    try:
        return PURSUER_POLICIES[policy_id]
    except KeyError:
        raise KeyError(f"unknown scripted pursuer policy {policy_id!r}") from None
