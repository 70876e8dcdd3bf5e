"""2D geometry shared by the simulator, scripted drones, and config checks.

Conventions: positions are (x, y) in meters, headings are radians in
(-pi, pi], rectangles are axis-aligned. "Clearance" distances are signed:
negative means the point is inside the shape (or outside the boundary).
The obstacle clearance is `config.Obstacle.clearance`, the wall clearance
`wall_clearance`.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]. Works on scalars and arrays."""
    if isinstance(a, np.ndarray):
        return np.pi - np.mod(np.pi - a, TWO_PI)
    return math.pi - (math.pi - a) % TWO_PI


def unit(vx: float, vy: float) -> tuple[float, float]:
    """Normalize a vector; the zero vector maps to (0, 0)."""
    n = math.hypot(vx, vy)
    if n < 1e-12:
        return 0.0, 0.0
    return vx / n, vy / n


def closest_point_on_circle(px: float, py: float, cx: float, cy: float, radius: float) -> tuple[float, float]:
    ux, uy = unit(px - cx, py - cy)
    if ux == 0.0 and uy == 0.0:
        ux = 1.0  # point at the exact center: pick a fixed direction
    return cx + radius * ux, cy + radius * uy


def closest_point_on_rect(px: float, py: float, cx: float, cy: float, hx: float, hy: float) -> tuple[float, float]:
    """Closest point on the rectangle's boundary (not interior)."""
    qx = min(max(px, cx - hx), cx + hx)
    qy = min(max(py, cy - hy), cy + hy)
    if qx != px or qy != py:
        return qx, qy
    # Inside: project to the nearest edge.
    gaps = (
        (px - (cx - hx), cx - hx, py),
        ((cx + hx) - px, cx + hx, py),
        (py - (cy - hy), px, cy - hy),
        ((cy + hy) - py, px, cy + hy),
    )
    _, qx, qy = min(gaps, key=lambda g: g[0])  # the first of equal gaps wins
    return qx, qy


def wall_clearance(px: float, py: float, width: float, height: float) -> float:
    """Distance to the nearest arena wall; negative outside the arena. It is
    numpy's running minimum of (x, w - x, y, h - y), which keeps the second
    of two equal values: -0.0 against +0.0 shows it."""
    clear = px if px < width - px else width - px
    clear = clear if clear < py else py
    return clear if clear < height - py else height - py


def rects_intersect(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> bool:
    """Overlap test for two AABBs given as (x_min, y_min, x_max, y_max)."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1

