"""The run directory that each trainer writes, file by file.

`train` adds only `manifest.json`; every other file of a run directory comes
from the trainer given the `out_dir`. The golden keys pin these files' bytes
but skip on another BLAS kernel, so this test pins their names on any
machine: one tiny update per run (two PBT members, one HOLA generation),
and that a rerun rewrites every file but the timing CSVs byte for byte.
The timing CSVs hold wall times, so no golden key covers them; this test
checks their header and the row of each update.
"""

import csv
import json
from dataclasses import asdict

import pytest

from pursuit_lab import cli, config, evalkit, nn, population, rl, teammate
from conftest import reduced_4p2e3o

PPO = rl.PpoConfig(batch=64, minibatch=32, epochs=1, total_steps=64, hidden=(8,))
SEED = 2
POOL = [rl.ScriptedSlotPolicy("greedy")]


def mixed():
    return reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))


RUNS = {
    "sp": (
        lambda out: rl.ippo_selfplay_train(PPO, reduced_4p2e3o(), SEED, out_dir=out),
        ["final.zip", "metrics.csv", "sp_000000064.zip", "timing.csv"],
    ),
    "mappo": (
        lambda out: rl.mappo_train(PPO, mixed(), SEED, teammate_pool=POOL, out_dir=out),
        ["final.zip", "mappo_000000064.zip", "metrics.csv", "timing.csv"],
    ),
    "naht-d": (
        lambda out: teammate.naht_d_train(PPO, mixed(), POOL, SEED, out_dir=out),
        ["final.zip", "metrics.csv", "naht_000000064.zip", "timing.csv"],
    ),
    "pbt": (
        lambda out: rl.pbt_train(2, PPO, mixed(), SEED, out_dir=out),
        [
            "metrics_member0.csv",
            "metrics_member1.csv",
            "pbt_member0.zip",
            "pbt_member1.zip",
            "timing_member0.csv",
            "timing_member1.csv",
        ],
    ),
    "hola": (
        lambda out: population.hola_train(
            PPO, mixed(), SEED, generations=1, gen_budget=64, sp_budget=64, episodes_per_edge=2, out_dir=out
        ),
        ["final.zip", "generation_001.json", "metrics_gen001.csv", "timing_gen001.csv"],
    ),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_each_trainer_writes_its_whole_run_directory(tmp_path, run):
    train, expected = RUNS[run]
    out = tmp_path / run
    train(str(out))
    assert sorted(path.name for path in out.iterdir()) == expected
    for pattern, fields in (("metrics*.csv", rl.METRIC_FIELDS), ("timing*.csv", rl.TIMING_FIELDS)):
        for path in out.glob(pattern):
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == list(fields)
            assert len(rows) == 2  # one update
    for path in out.glob("timing*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert row["update"] == "0"
        # the batch's learner transitions over its learner slots (4 in self-play, else 2)
        assert int(row["env_steps"]) == PPO.batch // (4 if run == "sp" else 2)
        rollout_s, update_s = float(row["rollout_s"]), float(row["update_s"])
        assert rollout_s > 0.0 and update_s > 0.0
        assert float(row["env_steps_per_s"]) == int(row["env_steps"]) / rollout_s


@pytest.mark.parametrize("run", sorted(RUNS))
def test_each_trainer_rewrites_its_run_directory_byte_for_byte(tmp_path, run):
    # off the recording platform every golden key skips; this checks the
    # bytes of every file but the wall-time CSVs on any machine
    train, _ = RUNS[run]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out in dirs:
        train(str(out))
    names = [sorted(path.name for path in out.iterdir() if not path.name.startswith("timing")) for out in dirs]
    assert names[0] == names[1]
    for name in names[0]:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


@pytest.mark.parametrize("run", sorted(RUNS))
def test_each_archive_records_the_drone_counts_that_eval_checks(tmp_path, capsys, run):
    # 3 pursuers with 3 evaders give the 18-long observation rows of the
    # trained 4 with 2: only the recorded counts tell the arenas apart
    train, _ = RUNS[run]
    out = tmp_path / run
    train(str(out))
    doc = json.loads(config.builtin_env_text("4p2e3o"))
    doc["players"].update(num_p=3, num_e=3, num_ctrl=3, num_unctrl=0, unseen_drones=[])
    other = tmp_path / "3p3e.json"
    other.write_text(json.dumps(doc))
    archives = sorted(out.glob("*.zip"))
    assert archives
    for path in archives:
        extra = nn.load_manifest(path)["extra"]
        assert (extra["num_p"], extra["num_e"]) == (4, 2)
        # and the PPO settings it trained with (a HOLA generation's max-step budget is PPO's total_steps)
        assert extra["ppo"] == json.loads(json.dumps(asdict(PPO)))
        evalkit.resolve_policy(str(path), mixed())
        argv = ["eval", "--ckpt", str(path), "--zoo", "1", "--env", str(other), "--episodes", "1"]
        assert cli.main(argv + ["--report", str(tmp_path / "report")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(path) in err and "4 pursuers and 2 evaders" in err
