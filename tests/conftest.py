from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from pursuit_lab import config, sim


@pytest.fixture(scope="session")
def env_4p2e3o():
    return config.builtin_env("4p2e3o")


def reduced_4p2e3o(velocity_e=0.3, num_ctrl=4, num_unctrl=0, unseen=()):
    """Scaled-down training/eval fixture: 4p2e3o, 300-step horizon."""
    cfg = config.builtin_env("4p2e3o")
    cfg = replace(cfg, task=replace(cfg.task, task_horizon=300), players=replace(cfg.players, velocity_e=velocity_e))
    return config.with_control_split(cfg, num_ctrl, num_unctrl, unseen)


def fresh_gaps(pursuers, evaders, captured):
    """Each evader's distance to its nearest pursuer, measured afresh from
    [x, y, ...] rows, None for a captured one: the `evader_gaps` that `sim`
    carries for these poses."""
    return [
        None if done else min(abs(complex(px - ex, py - ey)) for px, py, _ in pursuers)
        for (ex, ey, _), done in zip(evaders, captured)
    ]


def make_state(cfg, pursuers, evaders, captured=None, step=0):
    """A running WorldState with explicit poses (any array-like of shape
    (num, 3)), held as the float rows, bool flags and nearest-pursuer
    distances that `sim` keeps."""
    cap = np.zeros(cfg.players.num_e, dtype=bool) if captured is None else captured
    pursuers = np.array(pursuers, dtype=np.float64).reshape(cfg.players.num_p, 3).tolist()
    evaders = np.array(evaders, dtype=np.float64).reshape(cfg.players.num_e, 3).tolist()
    captured = np.array(cap, dtype=bool).tolist()
    return sim.WorldState(
        cfg=cfg,
        step=step,
        pursuers=pursuers,
        evaders=evaders,
        captured=captured,
        evader_gaps=fresh_gaps(pursuers, evaders, captured),
        terminal=sim.RUNNING,
    )


def act_alone(pol, state, obs, slot, slot_state):
    """The steer of slot policy `pol` for `slot` alone, with its episode
    state `slot_state`, in the world `state` whose observation rows are `obs`:
    its `act` over one seat of that one slot."""
    return pol.act([(SimpleNamespace(state=state, obs=obs), [slot], [slot_state])])[0]


class FixedTeammates:
    """Teammate sampler that returns the same slot policies every episode."""

    def __init__(self, policies):
        self.policies = list(policies)

    def sample(self, rng):
        return list(self.policies)


def open_arena(num_p=1, num_e=1, velocity_e=1e-6, horizon=1000):
    """Obstacle-free arena for closed-loop scripted-policy tests."""
    import json

    doc = json.loads(config.builtin_env_text("4p2e3o"))
    doc["players"].update(
        {
            "num_p": num_p,
            "num_e": num_e,
            "num_ctrl": num_p,
            "num_unctrl": 0,
            "unseen_drones": [],
            "velocity_e": velocity_e,
        }
    )
    doc["site"]["obstacles"] = {}
    doc["task"]["task_horizon"] = horizon
    return config.parse_config(json.dumps(doc))


def ties_arena():
    """4 x 5 m, two squares and a circle on y = 2.5, one metre apart: the
    point (1.5, 2.5) is 0.25 m from both squares, (2.5, 2.5) 0.25 m from the
    second square and the circle, and (0.375, 2.5) 0.375 m from the first
    square and the left wall. Its sizes are dyadic, so such ties are exact."""
    cfg = config.builtin_env("4p2e3o")
    obstacles = (
        config.Obstacle("rectangle", (1.0, 2.5), half_extents=(0.25, 0.25)),
        config.Obstacle("rectangle", (2.0, 2.5), half_extents=(0.25, 0.25)),
        config.Obstacle("circle", (3.0, 2.5), radius=0.25),
    )
    return replace(cfg, site=replace(cfg.site, boundary_width=4.0, boundary_height=5.0, obstacles=obstacles))


def assert_states_equal(a, b):
    assert (a.pursuers, a.evaders, a.captured, a.evader_gaps) == (b.pursuers, b.evaders, b.captured, b.evader_gaps)
    assert a.step == b.step
    assert a.terminal == b.terminal
