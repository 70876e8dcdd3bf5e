"""Deterministic SVG rendering of trajectory logs.

The renderer emits hand-built SVG with fixed number formatting so that the
same log always produces byte-identical output (golden-file friendly). Top
down view: pursuers red, evaders black, obstacles gray, captures green rings,
collisions orange crosses.
"""

from __future__ import annotations

import math

from .config import EnvConfig

SCALE = 100.0  # px per meter
MARGIN = 20.0

PURSUER_COLORS = ("#c62828", "#e53935", "#ad1457", "#d81b60", "#8e24aa", "#b71c1c")
EVADER_COLOR = "#212121"
OBSTACLE_COLOR = "#9e9e9e"
CAPTURE_COLOR = "#2e7d32"
COLLISION_COLOR = "#ef6c00"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Svg:
    def __init__(self, width_px: float, height_px: float):
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width_px)}" '
            f'height="{_fmt(height_px)}" viewBox="0 0 {_fmt(width_px)} {_fmt(height_px)}">\n'
        ]

    def add(self, element: str) -> None:
        self.parts.append(element + "\n")

    def finish(self) -> str:
        return "".join(self.parts) + "</svg>\n"


def _tx(cfg: EnvConfig):
    height = cfg.site.boundary_height

    def to_px(x: float, y: float) -> tuple[float, float]:
        # flip y so the arena's north is up in the image
        return MARGIN + x * SCALE, MARGIN + (height - y) * SCALE

    return to_px


def _is_pose(row) -> bool:
    return isinstance(row, list) and len(row) == 3 and all(type(v) in (int, float) and math.isfinite(v) for v in row)


def _indices(values, *bounds: int) -> bool:
    """Whether `values` is a list of one int per bound, each in [0, bound)."""
    return isinstance(values, list) and len(values) == len(bounds) and all(
        type(v) is int and 0 <= v < n for v, n in zip(values, bounds)
    )


def _check_records(records: list, cfg: EnvConfig) -> None:
    """Raise ValueError unless every record is an object with num_p pursuer
    and num_e evader poses of 3 finite numbers, num_e boolean capture flags,
    and capture and collision events that name drones of `cfg`."""
    num_p, num_e = cfg.players.num_p, cfg.players.num_e
    for t, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"record {t} is not an object")
        for key, count in (("pursuers", num_p), ("evaders", num_e)):
            rows = rec.get(key)
            if not (isinstance(rows, list) and len(rows) == count and all(map(_is_pose, rows))):
                raise ValueError(f"record {t}: {key!r} must be {count} poses of 3 finite numbers")
        flags = rec.get("captured")
        if not (isinstance(flags, list) and len(flags) == num_e and all(type(f) is bool for f in flags)):
            raise ValueError(f"record {t}: 'captured' must be {num_e} booleans")
        captures, collisions = rec.get("captures", []), rec.get("collisions", [])
        if not (isinstance(captures, list) and all(_indices(c, num_e, num_p) for c in captures)):
            raise ValueError(f"record {t}: 'captures' must be [evader, pursuer] pairs")
        events = collisions if isinstance(collisions, list) else [None]
        agents = [c.get("agents") if isinstance(c, dict) else None for c in events]
        if not all(_indices(a, num_p) or _indices(a, num_p, num_p) for a in agents):
            raise ValueError(f"record {t}: 'collisions' must be events of one or two pursuers")


def render_episode(records: list[dict], cfg: EnvConfig) -> str:
    """SVG for a trajectory log (list of step records, reset record first);
    a ValueError (`_check_records`) for a record it cannot draw."""
    _check_records(records, cfg)
    to_px = _tx(cfg)
    width_px = cfg.site.boundary_width * SCALE + 2 * MARGIN
    height_px = cfg.site.boundary_height * SCALE + 2 * MARGIN
    svg = _Svg(width_px, height_px)

    svg.add(f'<rect width="{_fmt(width_px)}" height="{_fmt(height_px)}" fill="#fafafa"/>')
    x0, y0 = to_px(0.0, cfg.site.boundary_height)
    svg.add(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(cfg.site.boundary_width * SCALE)}" '
        f'height="{_fmt(cfg.site.boundary_height * SCALE)}" fill="#ffffff" stroke="#37474f" stroke-width="2.00"/>'
    )

    for ob in cfg.site.obstacles:
        if ob.shape == "circle":
            cx, cy = to_px(ob.center[0], ob.center[1])
            svg.add(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(ob.radius * SCALE)}" '
                f'fill="{OBSTACLE_COLOR}" stroke="#616161" stroke-width="1.00"/>'
            )
        else:
            hx, hy = ob.half_extents
            left, top = to_px(ob.center[0] - hx, ob.center[1] + hy)
            svg.add(
                f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(2 * hx * SCALE)}" '
                f'height="{_fmt(2 * hy * SCALE)}" fill="{OBSTACLE_COLOR}" stroke="#616161" stroke-width="1.00"/>'
            )

    if not records:
        return svg.finish()

    num_p = len(records[0]["pursuers"])
    num_e = len(records[0]["evaders"])

    def trail(points, color, width):
        if len(points) < 2:
            return
        coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
        svg.add(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{_fmt(width)}"/>')

    for i in range(num_p):
        color = PURSUER_COLORS[i % len(PURSUER_COLORS)]
        pts = [to_px(r["pursuers"][i][0], r["pursuers"][i][1]) for r in records]
        trail(pts, color, 1.5)
        sx, sy = pts[0]
        ex, ey = pts[-1]
        svg.add(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="4.00" fill="none" stroke="{color}" stroke-width="1.50"/>')
        svg.add(f'<circle cx="{_fmt(ex)}" cy="{_fmt(ey)}" r="5.00" fill="{color}"/>')

    for e in range(num_e):
        pts = [to_px(r["evaders"][e][0], r["evaders"][e][1]) for r in records]
        trail(pts, EVADER_COLOR, 1.5)
        sx, sy = pts[0]
        ex, ey = pts[-1]
        svg.add(
            f'<rect x="{_fmt(sx - 4)}" y="{_fmt(sy - 4)}" width="8.00" height="8.00" '
            f'fill="none" stroke="{EVADER_COLOR}" stroke-width="1.50"/>'
        )
        svg.add(f'<rect x="{_fmt(ex - 5)}" y="{_fmt(ey - 5)}" width="10.00" height="10.00" fill="{EVADER_COLOR}"/>')

    for rec in records:
        for evader_id, _pursuer_id in rec.get("captures", []):
            ex, ey = to_px(rec["evaders"][evader_id][0], rec["evaders"][evader_id][1])
            svg.add(
                f'<circle cx="{_fmt(ex)}" cy="{_fmt(ey)}" r="8.00" fill="none" '
                f'stroke="{CAPTURE_COLOR}" stroke-width="2.50"/>'
            )
        for coll in rec.get("collisions", []):
            for agent in coll["agents"]:
                ax, ay = to_px(rec["pursuers"][agent][0], rec["pursuers"][agent][1])
                svg.add(
                    f'<path d="M {_fmt(ax - 6)} {_fmt(ay - 6)} L {_fmt(ax + 6)} {_fmt(ay + 6)} '
                    f'M {_fmt(ax - 6)} {_fmt(ay + 6)} L {_fmt(ax + 6)} {_fmt(ay - 6)}" '
                    f'stroke="{COLLISION_COLOR}" stroke-width="2.50"/>'
                )
    return svg.finish()
