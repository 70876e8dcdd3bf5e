import hashlib
import json

import pytest

from pursuit_lab import config
from pursuit_lab.config import (
    BUILTIN_ENV_NAMES,
    ConfigError,
    InvalidConfigError,
    builtin_env,
    builtin_env_text,
    parse_config,
    serialize_config,
    validate_config,
)


def doc_dict(name="4p2e3o"):
    return json.loads(builtin_env_text(name))


def violations_of(doc) -> list[str]:
    """The violations of the `InvalidConfigError` that parsing `doc` raises."""
    with pytest.raises(InvalidConfigError) as err:
        parse_config(json.dumps(doc))
    return err.value.violations


def test_parse_appendix_style_document():
    doc = doc_dict()
    doc["players"]["num_p"] = 4
    doc["players"]["num_e"] = 2
    text = json.dumps(doc)
    cfg = parse_config(text)
    assert cfg.players.num_p == 4
    assert cfg.players.num_e == 2
    assert cfg.site.boundary_width == 3.6
    assert cfg.site.boundary_height == 5
    assert cfg.task.capture_range == 0.2
    assert cfg.task.safe_radius == 0.1
    assert cfg.task.fps == 10
    assert cfg.players.reception_range == 2
    assert cfg.players.velocity_p == 0.3
    assert cfg.players.velocity_e == 0.6


def test_control_split_mismatch_is_violation():
    doc = doc_dict()
    doc["players"]["num_ctrl"] = 3
    doc["players"]["num_unctrl"] = 2
    with pytest.raises(InvalidConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("num_ctrl+num_unctrl != num_p" in v for v in err.value.violations)


def test_obstacle_outside_boundary_is_violation():
    doc = doc_dict()
    doc["site"]["obstacles"]["obstacle1"]["center"] = [10, 10]
    with pytest.raises(InvalidConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("outside boundary" in v for v in err.value.violations)


def test_unknown_key_rejected_with_path():
    doc = doc_dict()
    doc["task"]["velocty"] = 1.0
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert "$.task.velocty" in str(err.value)


def test_missing_key_reported_with_path():
    doc = doc_dict()
    del doc["task"]["fps"]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert "$.task.fps" in str(err.value)


def test_type_mismatch_reported_with_path():
    doc = doc_dict()
    doc["players"]["num_p"] = "four"
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert "$.players.num_p" in str(err.value)


def test_malformed_json_is_config_error():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_validate_collects_all_violations():
    doc = doc_dict()
    doc["task"]["capture_range"] = -0.2
    doc["task"]["safe_radius"] = -1
    violations = violations_of(doc)
    assert "capture_range must be positive" in violations
    assert "safe_radius must be positive" in violations
    assert len(violations) >= 2


def test_negative_capture_range_message():
    doc = doc_dict()
    doc["task"]["capture_range"] = -0.2
    assert violations_of(doc) == ["capture_range must be positive"]


def test_respawn_region_obstacle_overlap_detected():
    # Move an obstacle into the evader respawn band and cross-check the
    # analytic intersection test against a brute-force point grid.
    doc = doc_dict()
    doc["site"]["obstacles"]["obstacle3"] = {"shape": "circle", "center": [1.8, 4.3], "radius": 0.25}
    assert any("respawn region intersects obstacle" in v for v in violations_of(doc))

    cfg = builtin_env("4p2e3o")
    region = cfg.players.respawn_region.evader
    ob = config.Obstacle("circle", (1.8, 4.3), radius=0.25)
    hit = False
    for i in range(81):
        for j in range(81):
            x = region.x_min + (region.x_max - region.x_min) * i / 80
            y = region.y_min + (region.y_max - region.y_min) * j / 80
            if ob.clearance(x, y) < cfg.task.safe_radius:
                hit = True
    assert hit


@pytest.mark.parametrize("name", BUILTIN_ENV_NAMES)
def test_builtins_validate_clean(name):
    assert validate_config(builtin_env(name)) == []


@pytest.mark.parametrize("name", BUILTIN_ENV_NAMES)
def test_builtin_roundtrip(name):
    cfg = builtin_env(name)
    assert parse_config(serialize_config(cfg)) == cfg


#: sha256 of `serialize_config`'s text, recorded when it listed every field
#: by hand. Every run manifest's `config_sha256` hashes these bytes, so a
#: change of key order, value or whitespace shows here.
SERIALIZED_SHA256 = {
    "4p2e3o": "104398608efcf6b6ee39a92005974b2a099e4b645a73c186ed008e7b52c3632d",
    "4p2e1o": "e627ef17c224d6976bfdf9abae756623dad1be12f52eed305f0b44fa0c66f858",
    "4p2e5o": "58b30ebde928de0823b15c3e2b27aa212ce2e13f8a3619769cf4fdbacb6b6f81",
    "4p3e5o": "54edcc7b6605464686f342f1c5665b434773919108681bae3e682c7e1fb4c736",
    # 2 learners, 2 teammates; circle and rectangle obstacles
    "4p2e5o split": "92ef5f3650f15aa7d1f5c14e7c656102e49491d07d84cccdabb87ba776d0d49a",
}


@pytest.mark.parametrize("key", sorted(SERIALIZED_SHA256))
def test_serialized_bytes_are_pinned(key):
    name, _, variant = key.partition(" ")
    cfg = builtin_env(name)
    if variant:
        cfg = config.with_control_split(cfg, 2, 2, ("greedy", "vicsek"))
    text = serialize_config(cfg)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SERIALIZED_SHA256[key]


def test_builtin_env_deterministic_bytes():
    assert builtin_env_text("4p2e3o") == builtin_env_text("4p2e3o")
    assert builtin_env("4p2e1o") == builtin_env("4p2e1o")


def test_builtin_counts_match_labels():
    cfg = builtin_env("4p2e3o")
    assert cfg.players.num_p == 4 and cfg.players.num_e == 2
    shapes = sorted(ob.shape for ob in cfg.site.obstacles)
    assert shapes == ["circle", "rectangle", "rectangle"]

    cfg = builtin_env("4p2e1o")
    assert len(cfg.site.obstacles) == 1
    ob = cfg.site.obstacles[0]
    # single central obstacle
    assert ob.center == (cfg.site.boundary_width / 2, cfg.site.boundary_height / 2)

    cfg = builtin_env("4p2e5o")
    assert len(cfg.site.obstacles) == 5 and cfg.players.num_e == 2

    cfg = builtin_env("4p3e5o")
    assert len(cfg.site.obstacles) == 5 and cfg.players.num_e == 3


@pytest.mark.parametrize("name", BUILTIN_ENV_NAMES)
def test_builtin_spawn_regions(name):
    cfg = builtin_env(name)
    for region in (cfg.players.respawn_region.pursuer, cfg.players.respawn_region.evader):
        assert region.width == pytest.approx(3.2)
        assert region.height == pytest.approx(0.6)
    # opposite sides of the arena
    assert cfg.players.respawn_region.pursuer.center[1] < cfg.site.boundary_height / 2
    assert cfg.players.respawn_region.evader.center[1] > cfg.site.boundary_height / 2


@pytest.mark.parametrize("name", BUILTIN_ENV_NAMES)
def test_builtin_obstacle_clearances(name):
    # Canonical layouts keep >= 0.8 m between safe-radius-inflated obstacles.
    cfg = builtin_env(name)
    obs = cfg.site.obstacles
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            a, b = obs[i], obs[j]
            qx, qy = b.closest_point(*a.center)
            d = a.clearance(qx, qy)
            assert d - 2 * cfg.task.safe_radius >= 0.8 - 1e-9


def test_unknown_builtin_name():
    with pytest.raises(KeyError):
        builtin_env("9p9e9o")


def test_unseen_drones_consistency_rules():
    doc = doc_dict()
    doc["players"]["unseen_drones"] = []
    assert "unseen_drones must be nonempty when num_unctrl > 0" in violations_of(doc)

    doc["players"]["unseen_drones"] = ["teleport"]
    assert any("unknown unseen_drones policy id" in v for v in violations_of(doc))


def test_schema_document_accepts_builtins():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(config.schema_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    for name in BUILTIN_ENV_NAMES:
        jsonschema.validate(json.loads(builtin_env_text(name)), schema)
    bad = doc_dict()
    bad["task"]["extra_key"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)


def test_override_helpers():
    cfg = builtin_env("4p2e3o")
    sp = config.with_control_split(cfg, 4, 0)
    assert sp.players.num_ctrl == 4 and sp.players.num_unctrl == 0
    assert sp.players.unseen_drones == ()
    assert validate_config(sp) == []
    assert cfg.players.num_ctrl == 2  # the original is untouched


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("players", "reception_range", float("nan")),
        ("task", "fps", float("inf")),
        ("task", "capture_range", float("-inf")),
        ("players", "velocity_p", 10**400),  # beyond the float range
    ],
)
def test_non_finite_number_rejected_with_path(section, key, value):
    doc = doc_dict()
    doc[section][key] = value
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))  # json writes NaN / Infinity / -Infinity
    assert f"$.{section}.{key}: expected a finite number" in str(err.value)


def test_non_finite_point_rejected_with_path():
    doc = doc_dict()
    doc["site"]["obstacles"]["obstacle1"]["center"] = [float("nan"), 1.0]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert "$.site.obstacles.obstacle1.center" in str(err.value)


def test_structural_errors_are_all_reported_with_their_paths():
    doc = doc_dict()
    doc["players"]["num_p"] = True  # a bool is never a number
    doc["players"]["unseen_drones"] = ["greedy", 3]
    doc["site"]["obstacles"]["obstacle1"] = [0.8, 1.8]
    doc["site"]["obstacles"]["obstacle2"]["shape"] = "triangle"
    doc["site"]["obstacles"]["obstacle3"]["center"] = [1.8]
    doc["task"]["task_horizon"] = 100.0  # an integer to JSON Schema, not to the parser
    doc["task"]["velocty"] = 1.0
    del doc["task"]["fps"]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert str(err.value).splitlines() == [
        "$.players.num_p: expected integer, got bool",
        "$.players.unseen_drones[1]: expected string, got int",
        "$.site.obstacles.obstacle1: expected object, got list",
        "$.site.obstacles.obstacle2.shape: expected 'circle' or 'rectangle'",
        "$.site.obstacles.obstacle3.center: expected at least 2 items, got 1",
        "$.task.task_horizon: expected integer, got float",
        "$.task.velocty: unknown key",
        "$.task.fps: missing required key",
    ]


#: The keywords `config._check` interprets (`$defs` is where `$ref` points),
#: the range keywords left to `validate_config`, and the annotations.
CHECKED_KEYWORDS = {
    "type", "properties", "required", "additionalProperties", "items", "minItems", "maxItems",
    "$ref", "$defs", "oneOf", "const",
}
RANGE_KEYWORDS = {"minimum", "exclusiveMinimum"}
ANNOTATIONS = {"$schema", "$id", "title", "description"}


def schema_keywords(schema: dict) -> set[str]:
    found = set(schema)
    subschemas = [
        *schema.get("properties", {}).values(),
        *schema.get("$defs", {}).values(),
        *schema.get("oneOf", ()),
        *(schema[key] for key in ("items", "additionalProperties") if isinstance(schema.get(key), dict)),
    ]
    for sub in subschemas:
        found |= schema_keywords(sub)
    return found


def test_every_schema_keyword_is_checked_or_left_to_validate_config():
    keywords = schema_keywords(json.loads(config.schema_text()))
    assert keywords - CHECKED_KEYWORDS - RANGE_KEYWORDS - ANNOTATIONS == set()


def without_range_keywords(node):
    if isinstance(node, dict):
        return {k: without_range_keywords(v) for k, v in node.items() if k not in RANGE_KEYWORDS}
    if isinstance(node, list):
        return [without_range_keywords(v) for v in node]
    return node


def mutations(doc):
    """(label, document) pairs: each key or array item deleted, each value
    replaced, an unknown key added to each object, an item repeated at the end
    of each array and each obstacle given an unknown shape. No integral float such as 1.0 is used as a replacement, so
    no integer key meets the one value JSON Schema and the parser disagree on."""
    def at(root, path):
        for step in path:
            root = root[step]
        return root

    def walk(node, path):
        yield path
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for step, child in children:
            yield from walk(child, path + (step,))

    for path in walk(doc, ()):
        if path:
            mutated = json.loads(json.dumps(doc))
            del at(mutated, path[:-1])[path[-1]]
            yield f"delete {path}", mutated
        for value in (None, True, 1, 1.5, "s", [], {}):
            mutated = json.loads(json.dumps(doc))
            if path:
                at(mutated, path[:-1])[path[-1]] = value
            else:
                mutated = value
            yield f"{path} = {value!r}", mutated
        if isinstance(at(doc, path), dict):
            mutated = json.loads(json.dumps(doc))
            at(mutated, path)["unknown_key"] = 1
            yield f"unknown key in {path}", mutated
        if isinstance(at(doc, path), list):
            mutated = json.loads(json.dumps(doc))
            items = at(mutated, path)
            items.append(items[-1] if items else 1.5)
            yield f"one more item in {path}", mutated
    for key in doc["site"]["obstacles"]:
        mutated = json.loads(json.dumps(doc))
        mutated["site"]["obstacles"][key]["shape"] = "triangle"
        yield f"unknown shape of {key}", mutated


@pytest.mark.parametrize("name", BUILTIN_ENV_NAMES)
def test_parser_rejects_exactly_what_the_schema_rejects(name):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(without_range_keywords(json.loads(config.schema_text())))
    disagreements = []
    for label, doc in mutations(doc_dict(name)):
        try:
            parse_config(json.dumps(doc))
            parsed = True
        except InvalidConfigError:  # the document parsed; a range keyword is `validate_config`'s
            parsed = True
        except ConfigError:
            parsed = False
        if parsed != validator.is_valid(doc):
            disagreements.append(label)
    assert disagreements == []
