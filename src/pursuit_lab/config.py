"""Environment configuration: parsing, validation, and the four built-in arenas.

Configs are plain JSON documents with three sections (players / site / task).
Their structure is written down once, in the published JSON Schema
`config_data/env_config.schema.json`: `parse_config` checks a document
against it (unknown keys, missing keys and type mismatches are hard errors),
adds that numbers are finite (no NaN or Infinity) and that a bool is never a
number, and reports every problem at once with its JSON path.
Value ranges, and the geometric and cross-field invariants, are checked by
`validate_config`, which returns *every* violation rather than stopping at
the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, wraps
from importlib import resources

from . import geometry

BUILTIN_ENV_NAMES = ("4p2e3o", "4p2e1o", "4p2e5o", "4p3e5o")

#: Policy identifiers accepted in players.unseen_drones. "ckpt:<path>" refers
#: to a saved checkpoint archive and is validated at load time, not here.
SCRIPTED_POLICY_IDS = ("greedy", "vicsek", "random")


class ConfigError(ValueError):
    """Structural problem: malformed JSON, unknown/missing key, bad type."""


class InvalidConfigError(ValueError):
    """A structurally valid document that violates config invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in meters, used for respawn regions."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> tuple[float, float]:
        return (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True)
class Obstacle:
    shape: str  # "circle" | "rectangle"
    center: tuple[float, float]
    radius: float | None = None
    half_extents: tuple[float, float] | None = None

    def clearance(self, px: float, py: float) -> float:
        """Signed distance from a point to this obstacle (negative inside).

        The one clearance rule, with the bits of its array form (`np.hypot`,
        `np.maximum`): `abs(complex(dx, dy))` calls the C library's `hypot`
        as `np.hypot` does, and `dx if dx > dy else dy` keeps the second of
        two equal values as `np.maximum` does. The step's and the scripted
        drones' static queries write these lines inline."""
        cx, cy = self.center
        if self.shape == "circle":
            return abs(complex(px - cx, py - cy)) - self.radius
        dx = abs(px - cx) - self.half_extents[0]
        dy = abs(py - cy) - self.half_extents[1]
        return abs(complex(dx, dy)) if dx > 0.0 and dy > 0.0 else (dx if dx > dy else dy)

    def closest_point(self, px: float, py: float) -> tuple[float, float]:
        if self.shape == "circle":
            return geometry.closest_point_on_circle(px, py, self.center[0], self.center[1], self.radius)
        return geometry.closest_point_on_rect(
            px, py, self.center[0], self.center[1], self.half_extents[0], self.half_extents[1]
        )


@dataclass(frozen=True)
class RespawnRegion:
    pursuer: Rect
    evader: Rect


@dataclass(frozen=True)
class PlayersCfg:
    num_p: int
    num_e: int
    num_ctrl: int
    num_unctrl: int
    random_respawn: bool
    respawn_region: RespawnRegion
    reception_range: float
    velocity_p: float
    velocity_e: float
    unseen_drones: tuple[str, ...]


@dataclass(frozen=True)
class SiteCfg:
    boundary_width: float
    boundary_height: float
    obstacles: tuple[Obstacle, ...]


@dataclass(frozen=True)
class TaskCfg:
    task_name: str
    capture_range: float
    safe_radius: float
    task_horizon: int
    fps: float


@dataclass(frozen=True)
class EnvConfig:
    players: PlayersCfg
    site: SiteCfg
    task: TaskCfg


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _schema() -> dict:
    return json.loads(schema_text())


#: The Python types of the schema's `type` names.
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "integer": int, "number": (int, float)}


def _is_finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check(value, schema: dict, path: str, errors: list[str]) -> None:
    """Append every way `value` breaks `schema` to `errors`, each with its JSON path.

    Interprets the keywords the published schema uses for structure. Numbers
    must also be finite. Range keywords are left to `validate_config`.
    """
    if "$ref" in schema:
        schema = _schema()["$defs"][schema["$ref"].removeprefix("#/$defs/")]
    if "oneOf" in schema:  # the obstacle shapes: the `shape` const picks the branch
        if not isinstance(value, dict):
            errors.append(f"{path}: expected object, got {type(value).__name__}")
            return
        shapes = [branch["properties"]["shape"]["const"] for branch in schema["oneOf"]]
        if value.get("shape") not in shapes:
            errors.append(f"{path}.shape: expected {' or '.join(map(repr, shapes))}")
            return
        schema = schema["oneOf"][shapes.index(value["shape"])]
    kind = schema.get("type")
    if kind is not None:
        # bool subclasses int, but a bool is never a number
        if not isinstance(value, _JSON_TYPES[kind]) or (isinstance(value, bool) and kind != "boolean"):
            errors.append(f"{path}: expected {kind}, got {type(value).__name__}")
            return
        if kind == "number" and not _is_finite(value):
            errors.append(f"{path}: expected a finite number, got {value}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        others = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                _check(item, properties[key], f"{path}.{key}", errors)
            elif others is False:
                errors.append(f"{path}.{key}: unknown key")
            elif isinstance(others, dict):
                _check(item, others, f"{path}.{key}", errors)
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}.{key}: missing required key")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{path}: expected at least {schema['minItems']} items, got {len(value)}")
        if len(value) > schema.get("maxItems", len(value)):
            errors.append(f"{path}: expected at most {schema['maxItems']} items, got {len(value)}")
        for i, item in enumerate(value):
            _check(item, schema.get("items", {}), f"{path}[{i}]", errors)


def _point(xy: list) -> tuple[float, float]:
    return float(xy[0]), float(xy[1])


def _rect(obj: dict) -> Rect:
    return Rect(float(obj["x_min"]), float(obj["y_min"]), float(obj["x_max"]), float(obj["y_max"]))


def _obstacle(obj: dict) -> Obstacle:
    if obj["shape"] == "circle":
        return Obstacle("circle", _point(obj["center"]), radius=float(obj["radius"]))
    return Obstacle("rectangle", _point(obj["center"]), half_extents=_point(obj["half_extents"]))


def parse_config(text: str) -> EnvConfig:
    """Parse a JSON config document into an EnvConfig.

    Raises ConfigError for structural problems (every problem listed with its
    JSON path) and InvalidConfigError, which carries every violation, if the
    parsed document violates any config invariant.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"$: invalid JSON: {exc}") from exc
    errors: list[str] = []
    _check(doc, _schema(), "$", errors)
    if errors:
        raise ConfigError("\n".join(errors))

    p, site, t = doc["players"], doc["site"], doc["task"]
    cfg = EnvConfig(
        players=PlayersCfg(
            num_p=p["num_p"],
            num_e=p["num_e"],
            num_ctrl=p["num_ctrl"],
            num_unctrl=p["num_unctrl"],
            random_respawn=p["random_respawn"],
            respawn_region=RespawnRegion(
                pursuer=_rect(p["respawn_region"]["pursuer"]), evader=_rect(p["respawn_region"]["evader"])
            ),
            reception_range=float(p["reception_range"]),
            velocity_p=float(p["velocity_p"]),
            velocity_e=float(p["velocity_e"]),
            unseen_drones=tuple(p["unseen_drones"]),
        ),
        site=SiteCfg(
            boundary_width=float(site["boundary"]["width"]),
            boundary_height=float(site["boundary"]["height"]),
            obstacles=tuple(_obstacle(obj) for obj in site["obstacles"].values()),
        ),
        task=TaskCfg(
            task_name=t["task_name"],
            capture_range=float(t["capture_range"]),
            safe_radius=float(t["safe_radius"]),
            task_horizon=t["task_horizon"],
            fps=float(t["fps"]),
        ),
    )
    violations = validate_config(cfg)
    if violations:
        raise InvalidConfigError(violations)
    return cfg


def serialize_config(cfg: EnvConfig) -> str:
    """Canonical JSON for an EnvConfig; parse_config(serialize_config(c)) == c.

    The document is the dataclasses' fields in order, except the site
    section: a boundary object, and obstacles keyed `obstacle{i}` without
    the other shape's None field."""
    doc = asdict(cfg)
    doc["site"] = {
        "boundary": {"width": cfg.site.boundary_width, "height": cfg.site.boundary_height},
        "obstacles": {
            f"obstacle{i}": {key: value for key, value in asdict(ob).items() if value is not None}
            for i, ob in enumerate(cfg.site.obstacles, start=1)
        },
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _rect_inside_boundary(r: Rect, width: float, height: float) -> bool:
    return 0.0 <= r.x_min < r.x_max <= width and 0.0 <= r.y_min < r.y_max <= height


def _obstacle_inside_boundary(ob: Obstacle, width: float, height: float) -> bool:
    cx, cy = ob.center
    if ob.shape == "circle":
        r = ob.radius or 0.0
        return r <= cx <= width - r and r <= cy <= height - r
    hx, hy = ob.half_extents or (0.0, 0.0)
    return hx <= cx <= width - hx and hy <= cy <= height - hy


def _region_hits_obstacle(region: Rect, ob: Obstacle, inflation: float) -> bool:
    if ob.shape == "circle":
        box = Obstacle("rectangle", region.center, half_extents=(region.width / 2.0, region.height / 2.0))
        return box.clearance(*ob.center) < ob.radius + inflation
    hx, hy = ob.half_extents
    inflated = (
        ob.center[0] - hx - inflation,
        ob.center[1] - hy - inflation,
        ob.center[0] + hx + inflation,
        ob.center[1] + hy + inflation,
    )
    return geometry.rects_intersect(region.as_tuple(), inflated)


def validate_config(cfg: EnvConfig) -> list[str]:
    """Return every violated invariant (empty list means valid)."""
    v: list[str] = []
    p, s, t = cfg.players, cfg.site, cfg.task

    if p.num_p < 1:
        v.append("num_p must be >= 1")
    if p.num_e < 1:
        v.append("num_e must be >= 1")
    if p.num_ctrl < 0 or p.num_unctrl < 0:
        v.append("num_ctrl and num_unctrl must be >= 0")
    if p.num_ctrl + p.num_unctrl != p.num_p:
        v.append("num_ctrl+num_unctrl != num_p")
    if p.reception_range <= 0:
        v.append("reception_range must be positive")
    if p.velocity_p <= 0:
        v.append("velocity_p must be positive")
    if p.velocity_e <= 0:
        v.append("velocity_e must be positive")
    if p.num_unctrl > 0 and not p.unseen_drones:
        v.append("unseen_drones must be nonempty when num_unctrl > 0")
    if p.num_unctrl == 0 and p.unseen_drones:
        v.append("unseen_drones must be empty when num_unctrl == 0")
    for name in p.unseen_drones:
        if name not in SCRIPTED_POLICY_IDS and not name.startswith("ckpt:"):
            v.append(f"unknown unseen_drones policy id: {name}")

    if s.boundary_width <= 0:
        v.append("boundary width must be positive")
    if s.boundary_height <= 0:
        v.append("boundary height must be positive")
    for i, ob in enumerate(s.obstacles, start=1):
        if ob.shape == "circle" and (ob.radius is None or ob.radius <= 0):
            v.append(f"obstacle{i}: radius must be positive")
        if ob.shape == "rectangle" and (
            ob.half_extents is None or ob.half_extents[0] <= 0 or ob.half_extents[1] <= 0
        ):
            v.append(f"obstacle{i}: half_extents must be positive")
        if s.boundary_width > 0 and s.boundary_height > 0:
            if not _obstacle_inside_boundary(ob, s.boundary_width, s.boundary_height):
                v.append(f"obstacle{i}: obstacle outside boundary")

    for label, region in (("pursuer", p.respawn_region.pursuer), ("evader", p.respawn_region.evader)):
        if region.width <= 0 or region.height <= 0:
            v.append(f"{label} respawn region is empty")
        elif s.boundary_width > 0 and s.boundary_height > 0:
            if not _rect_inside_boundary(region, s.boundary_width, s.boundary_height):
                v.append(f"{label} respawn region outside boundary")
            for i, ob in enumerate(s.obstacles, start=1):
                if _region_hits_obstacle(region, ob, t.safe_radius):
                    v.append(f"{label} respawn region intersects obstacle{i}")

    if t.capture_range <= 0:
        v.append("capture_range must be positive")
    if t.safe_radius <= 0:
        v.append("safe_radius must be positive")
    if t.task_horizon < 1:
        v.append("task_horizon must be >= 1")
    if t.fps <= 0:
        v.append("fps must be positive")
    return v


# ---------------------------------------------------------------------------
# Built-in environments
# ---------------------------------------------------------------------------

def builtin_env_text(name: str) -> str:
    """Raw JSON bytes (as text) of a built-in environment config."""
    if name not in BUILTIN_ENV_NAMES:
        raise KeyError(f"unknown built-in env {name!r}; choose from {BUILTIN_ENV_NAMES}")
    return resources.files("pursuit_lab").joinpath(f"config_data/{name}.json").read_text("utf-8")


@lru_cache(maxsize=None)
def builtin_env(name: str) -> EnvConfig:
    """One of the four shipped arenas: 4p2e3o, 4p2e1o, 4p2e5o, 4p3e5o."""
    return parse_config(builtin_env_text(name))


def schema_text() -> str:
    """The published JSON-Schema document for config files."""
    return resources.files("pursuit_lab").joinpath("config_data/env_config.schema.json").read_text("utf-8")


# ---------------------------------------------------------------------------
# Override helpers (EnvConfig is immutable; trainers derive variants)
# ---------------------------------------------------------------------------

def with_control_split(cfg: EnvConfig, num_ctrl: int, num_unctrl: int, unseen_drones: tuple[str, ...] = ()) -> EnvConfig:
    players = replace(
        cfg.players, num_ctrl=num_ctrl, num_unctrl=num_unctrl, unseen_drones=tuple(unseen_drones)
    )
    return replace(cfg, players=players)


# ---------------------------------------------------------------------------
# Per-arena tables
# ---------------------------------------------------------------------------

#: How many configs a `per_config` table keeps: the oldest entry goes first.
PER_CONFIG_SIZE = 16


def per_config(build):
    """`build(cfg)`, computed once per config object and looked up by the
    object's identity: hashing an `EnvConfig` hashes every field, down to
    each `Obstacle`, on every lookup. An entry holds its config, so the
    config's `id` cannot be reused while the entry lives."""
    table: dict[int, tuple[EnvConfig, object]] = {}

    @wraps(build)
    def lookup(cfg: EnvConfig):
        hit = table.get(id(cfg))
        if hit is None:
            if len(table) >= PER_CONFIG_SIZE:
                del table[next(iter(table))]
            hit = table[id(cfg)] = (cfg, build(cfg))
        return hit[1]

    return lookup
