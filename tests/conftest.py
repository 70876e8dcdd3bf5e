import numpy as np
import pytest

from pursuit_lab import config


@pytest.fixture(scope="session")
def env_4p2e3o():
    return config.builtin_env("4p2e3o")


def reduced_4p2e3o(velocity_e=0.3, num_ctrl=4, num_unctrl=0, unseen=()):
    """Scaled-down training/eval fixture: 4p2e3o, 300-step horizon."""
    cfg = config.builtin_env("4p2e3o")
    cfg = config.with_task_horizon(cfg, 300)
    cfg = config.with_velocities(cfg, velocity_e=velocity_e)
    return config.with_control_split(cfg, num_ctrl, num_unctrl, unseen)


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


def assert_states_equal(a, b):
    np.testing.assert_array_equal(a.pursuers, b.pursuers)
    np.testing.assert_array_equal(a.evaders, b.evaders)
    np.testing.assert_array_equal(a.captured, b.captured)
    assert a.step == b.step
    assert a.terminal == b.terminal
