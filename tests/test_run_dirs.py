"""The run directory that each trainer writes, file by file.

`train` adds only `manifest.json`; every other file of a run directory comes
from the trainer given the `out_dir`. The golden keys pin these files' bytes
but skip on another BLAS kernel, so this test pins their names on any
machine: one tiny update per run (two PBT members, one HOLA generation).
"""

import csv

import pytest

from pursuit_lab import population, rl, teammate
from conftest import reduced_4p2e3o

PPO = rl.PpoConfig(batch=64, minibatch=32, epochs=1, total_steps=64, hidden=(8,))
SEED = 2
POOL = [rl.ScriptedSlotPolicy("greedy")]


def mixed():
    return reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))


RUNS = {
    "sp": (
        lambda out: rl.ippo_selfplay_train(PPO, reduced_4p2e3o(), SEED, out_dir=out),
        ["final.zip", "metrics.csv", "sp_000000064.zip"],
    ),
    "mappo": (
        lambda out: rl.mappo_train(PPO, mixed(), SEED, teammate_pool=POOL, out_dir=out),
        ["final.zip", "mappo_000000064.zip", "metrics.csv"],
    ),
    "naht-d": (
        lambda out: teammate.naht_d_train(PPO, mixed(), POOL, SEED, out_dir=out),
        ["final.zip", "metrics.csv", "naht_000000064.zip"],
    ),
    "pbt": (
        lambda out: rl.pbt_train(2, PPO, mixed(), SEED, out_dir=out),
        ["metrics_member0.csv", "metrics_member1.csv", "pbt_member0.zip", "pbt_member1.zip"],
    ),
    "hola": (
        lambda out: population.hola_train(
            PPO, mixed(), SEED, generations=1, gen_budget=64, sp_budget=64, episodes_per_edge=2, out_dir=out
        ),
        ["final.zip", "generation_001.json", "metrics_gen001.csv"],
    ),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_each_trainer_writes_its_whole_run_directory(tmp_path, run):
    train, expected = RUNS[run]
    out = tmp_path / run
    train(str(out))
    assert sorted(path.name for path in out.iterdir()) == expected
    for path in out.glob("metrics*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(rl.METRIC_FIELDS)
        assert len(rows) == 2  # one update
