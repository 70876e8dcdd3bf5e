import math

import numpy as np
import pytest

from pursuit_lab import config, geometry
from pursuit_lab.config import Obstacle, Rect


def test_wrap_angle_range_and_values():
    assert geometry.wrap_angle(0.0) == 0.0
    assert geometry.wrap_angle(math.pi) == pytest.approx(math.pi)
    assert geometry.wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert geometry.wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    rng = np.random.default_rng(0)
    for a in rng.uniform(-50, 50, size=500):
        w = geometry.wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)


def test_wrap_angle_array():
    a = np.array([0.0, math.pi, -math.pi, 4.0])
    w = geometry.wrap_angle(a)
    assert np.all(w > -math.pi) and np.all(w <= math.pi)


def test_rect_clearance_against_sampled_boundary():
    # Brute-force oracle: min distance to densely sampled rectangle boundary.
    rng = np.random.default_rng(1)
    cx, cy, hx, hy = 1.0, 2.0, 0.4, 0.3
    ts = np.linspace(0.0, 1.0, 4001)
    edges = np.concatenate(
        [
            np.stack([cx - hx + 2 * hx * ts, np.full_like(ts, cy - hy)], axis=1),
            np.stack([cx - hx + 2 * hx * ts, np.full_like(ts, cy + hy)], axis=1),
            np.stack([np.full_like(ts, cx - hx), cy - hy + 2 * hy * ts], axis=1),
            np.stack([np.full_like(ts, cx + hx), cy - hy + 2 * hy * ts], axis=1),
        ]
    )
    for _ in range(200):
        px, py = rng.uniform(-1, 3), rng.uniform(0, 4)
        brute = float(np.min(np.hypot(edges[:, 0] - px, edges[:, 1] - py)))
        got = Obstacle("rectangle", (cx, cy), half_extents=(hx, hy)).clearance(px, py)
        assert abs(abs(got) - brute) < 2e-4
        inside = abs(px - cx) < hx and abs(py - cy) < hy
        assert (got < 0) == inside


def test_circle_clearance_sign():
    circle = Obstacle("circle", (0.0, 0.0), radius=1.0)
    assert circle.clearance(0.0, 0.0) == -1.0
    assert circle.clearance(2.0, 0.0) == 1.0


def test_closest_points_lie_on_shapes():
    rng = np.random.default_rng(2)
    for _ in range(100):
        px, py = rng.uniform(-2, 4, size=2)
        qx, qy = geometry.closest_point_on_circle(px, py, 1.0, 1.0, 0.5)
        assert math.hypot(qx - 1.0, qy - 1.0) == pytest.approx(0.5)
        qx, qy = geometry.closest_point_on_rect(px, py, 1.0, 1.0, 0.4, 0.2)
        on_x_edge = math.isclose(abs(qx - 1.0), 0.4, abs_tol=1e-12) and abs(qy - 1.0) <= 0.2 + 1e-12
        on_y_edge = math.isclose(abs(qy - 1.0), 0.2, abs_tol=1e-12) and abs(qx - 1.0) <= 0.4 + 1e-12
        assert on_x_edge or on_y_edge


def test_wall_clearance():
    assert geometry.wall_clearance(0.05, 2.0, 3.6, 5.0) == 0.05
    assert geometry.wall_clearance(-0.1, 2.0, 3.6, 5.0) == -0.1
    # numpy's running minimum keeps the second of two equal values
    assert math.copysign(1.0, geometry.wall_clearance(0.0, -0.0, 3.6, 5.0)) == -1.0
    assert math.copysign(1.0, geometry.wall_clearance(-0.0, 0.0, 3.6, 5.0)) == 1.0


def test_rect_intersections():
    assert geometry.rects_intersect((0, 0, 1, 1), (0.5, 0.5, 2, 2))
    assert not geometry.rects_intersect((0, 0, 1, 1), (1.5, 0, 2, 1))
    region = Rect(0.0, 0.0, 1.0, 1.0)
    assert config._region_hits_obstacle(region, Obstacle("circle", (1.2, 0.5), radius=0.3), 0.0)
    assert not config._region_hits_obstacle(region, Obstacle("circle", (1.5, 0.5), radius=0.3), 0.0)
    assert config._region_hits_obstacle(region, Obstacle("circle", (1.5, 0.5), radius=0.3), 0.25)
