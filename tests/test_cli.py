import json
import os
import platform
import subprocess
import sys
import zipfile
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest

from pursuit_lab import cli, config, evalkit, nn, rl, sim
from pursuit_lab.seeding import substream


def run_cli(*argv):
    return cli.main(list(argv))


def test_validate_ok(tmp_path):
    path = tmp_path / "env.json"
    path.write_text(config.builtin_env_text("4p2e1o"))
    assert run_cli("validate", "--config", str(path)) == 0


def test_validate_violations(tmp_path, capsys):
    doc = json.loads(config.builtin_env_text("4p2e1o"))
    doc["task"]["capture_range"] = -0.2
    path = tmp_path / "env.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", "--config", str(path)) == 1
    out = capsys.readouterr().out
    assert "capture_range must be positive" in out


def test_validate_malformed_json(tmp_path):
    path = tmp_path / "env.json"
    path.write_text("{broken")
    assert run_cli("validate", "--config", str(path)) == 2
    assert run_cli("validate", "--config", str(tmp_path / "missing.json")) == 2


def test_train_unknown_algo(tmp_path):
    assert run_cli("train", "--algo", "dqn", "--env", "4p2e3o", "--out", str(tmp_path)) == 2


def test_train_sp_writes_outputs(tmp_path):
    out = tmp_path / "run"
    rc = run_cli(
        "train", "--algo", "sp", "--env", "4p2e3o", "--seed", "1",
        "--steps", "1024", "--out", str(out),
    )
    assert rc == 0
    assert (out / "manifest.json").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "final.zip").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 1
    assert "config_sha256" in manifest
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header.startswith("step,update,ep_return_mean,suc")


def test_train_budgets_round_up_to_whole_ppo_batches(tmp_path):
    # a budget of 64 learner transitions trains one whole 1024-transition batch
    out = tmp_path / "run"
    rc = run_cli("train", "--algo", "sp", "--env", "4p2e3o", "--seed", "1", "--steps", "64", "--out", str(out))
    assert rc == 0
    assert sorted(p for p in os.listdir(out) if p.startswith("sp_")) == ["sp_000001024.zip"]
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1024"]


def test_train_hola_nog_runs(tmp_path):
    out = tmp_path / "hola"
    rc = run_cli(
        "train", "--algo", "hola-nog", "--env", "4p2e3o", "--seed", "0",
        "--steps", "128", "--out", str(out), "--generations", "1", "--init-sp-steps", "128",
    )
    assert rc == 0
    gen_files = [p for p in os.listdir(out) if p.startswith("generation_")]
    assert gen_files
    report = json.loads((out / gen_files[0]).read_text())
    probs = report["strategy"]["probs"]
    np.testing.assert_allclose(probs, 1.0 / len(probs))  # uniform-rho ablation


def test_train_naht_nodec_recon_zero(tmp_path):
    out = tmp_path / "naht"
    rc = run_cli(
        "train", "--algo", "naht-d-nodec", "--env", "4p2e3o", "--seed", "0",
        "--steps", "256", "--out", str(out),
    )
    assert rc == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    recon_col = [float(r.split(",")[-1]) for r in rows if r]
    assert recon_col and all(v == 0.0 for v in recon_col)


def test_eval_zoo1_and_errors(tmp_path):
    report_dir = tmp_path / "rep"
    rc = run_cli(
        "eval", "--ckpt", "greedy", "--zoo", "1", "--env", "4p2e3o",
        "--episodes", "10", "--seed", "3", "--report", str(report_dir),
    )
    assert rc == 0
    report = json.loads((report_dir / "report.json").read_text())
    assert report["n_episodes"] == 10
    assert (report_dir / "report.csv").exists()

    assert run_cli(
        "eval", "--ckpt", "greedy", "--zoo", "4", "--env", "4p2e3o",
        "--episodes", "2", "--seed", "0", "--report", str(tmp_path / "x"),
    ) == 2

    # zoo2 without assets -> domain error
    assert run_cli(
        "eval", "--ckpt", "greedy", "--zoo", "2", "--env", "4p2e3o",
        "--episodes", "2", "--seed", "0", "--report", str(tmp_path / "y"),
        "--zoo-assets", str(tmp_path / "empty"),
    ) == 1


def test_eval_rejects_a_checkpoint_with_a_misshapen_array(tmp_path, capsys):
    # a (1,) bias broadcasts over its layer: without the shape check this
    # checkpoint loads and acts
    env = config.builtin_env("4p2e3o")
    obs_dim = sim.obs_length(env)
    model = rl.init_actor_critic(obs_dim, obs_dim, rl.PpoConfig(), substream(0, "init"))
    named, meta = rl.actor_critic_arrays(model)
    named = [(n, a[:1] if n == "actor.b0" else a) for n, a in named]
    misshapen = tmp_path / "bad.zip"
    nn.save_arrays(misshapen, "actor_critic", named, extra=meta)
    # a file that is not a zip, a zip without manifest.json or params.bin and
    # a directory once ended in a BadZipFile, KeyError or OSError traceback
    not_a_zip = tmp_path / "not_a_zip.zip"
    not_a_zip.write_bytes(b"not a zip archive")
    no_manifest, no_params = tmp_path / "no_manifest.zip", tmp_path / "no_params.zip"
    with zipfile.ZipFile(misshapen) as whole, zipfile.ZipFile(no_manifest, "w") as a, zipfile.ZipFile(no_params, "w") as b:
        a.writestr("params.bin", whole.read("params.bin"))
        b.writestr("manifest.json", whole.read("manifest.json"))
    directory = tmp_path / "dir.zip"
    directory.mkdir()
    for path in (misshapen, not_a_zip, no_manifest, no_params, directory):
        assert run_cli(
            "eval", "--ckpt", str(path), "--zoo", "1", "--env", "4p2e3o",
            "--episodes", "2", "--seed", "0", "--report", str(tmp_path / "rep"),
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert ("actor.b0" if path == misshapen else str(path)) in err


def test_eval_rerun_byte_identical(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        rc = run_cli(
            "eval", "--ckpt", "greedy", "--zoo", "1", "--env", "4p2e3o",
            "--episodes", "6", "--seed", "11", "--report", str(d),
        )
        assert rc == 0
    assert (dirs[0] / "report.json").read_bytes() == (dirs[1] / "report.json").read_bytes()
    assert (dirs[0] / "report.csv").read_bytes() == (dirs[1] / "report.csv").read_bytes()


def test_eval_episode_records_give_the_report_and_ignore_jobs(tmp_path):
    # one record per episode in block order, with its env seed; the metrics
    # over the parsed records are report.json's bytes
    dirs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
    for jobs, d in dirs.items():
        rc = run_cli(
            "eval", "--ckpt", "greedy", "--zoo", "1", "--env", "4p2e3o",
            "--episodes", "7", "--seed", "11", "--jobs", str(jobs), "--report", str(d),
        )
        assert rc == 0
    text = (dirs[1] / "episodes.ndjson").read_bytes()
    assert (dirs[2] / "episodes.ndjson").read_bytes() == text
    rows = [json.loads(line) for line in text.decode().splitlines()]
    seeds = [row.pop("seed") for row in rows]
    records = [evalkit.EpisodeRecord(**row) for row in rows]
    assert [(r.seed_block, r.index) for r in records] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0), (4, 0)]
    report = evalkit.compute_metrics(records, seed=11, seed_blocks=evalkit.SEED_BLOCKS)
    assert report.to_json().encode() == (dirs[1] / "report.json").read_bytes()
    env = config.builtin_env("4p2e3o")
    greedy = [rl.ScriptedSlotPolicy("greedy")] * env.players.num_p
    for record, seed in zip(records, seeds):
        assert evalkit.play_episode(env, greedy, seed) == replace(record, seed_block=0, index=0)


def test_render_roundtrip_and_errors(tmp_path, capsys, env_4p2e3o):
    state, _ = sim.reset(env_4p2e3o, 2)
    log = sim.TrajectoryLog(env_4p2e3o)
    log.record_reset(state)
    rng = np.random.default_rng(0)
    for _ in range(10):
        if state.terminal != sim.RUNNING:
            break
        actions = rng.uniform(-1, 1, 4)
        out = sim.step(state, actions)
        log.record_step(state, actions, out)
    log_path = tmp_path / "traj.ndjson"
    log_path.write_text(log.dumps(), encoding="utf-8")

    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert run_cli("render", "--log", str(log_path), "--out", str(out1)) == 0
    assert run_cli("render", "--log", str(log_path), "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("<?xml")

    assert run_cli("render", "--log", str(tmp_path / "missing.ndjson"), "--out", str(tmp_path / "c.svg")) == 2

    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"step": 0}\n')  # no env, no poses
    assert run_cli("render", "--log", str(bad), "--out", str(tmp_path / "d.svg")) == 2

    # --env: a config that fails validate_config prints its violations (exit 1),
    # an unreadable file is an IO error (exit 2); neither ends in a traceback
    doc = json.loads(config.builtin_env_text("4p2e3o"))
    doc["task"]["fps"] = -1
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("render", "--log", str(log_path), "--out", str(tmp_path / "e.svg"), "--env", str(invalid)) == 1
    err = capsys.readouterr().err
    assert "fps must be positive" in err and "malformed log" not in err
    missing = tmp_path / "missing.json"
    assert run_cli("render", "--log", str(log_path), "--out", str(tmp_path / "f.svg"), "--env", str(missing)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "e.svg").exists() and not (tmp_path / "f.svg").exists()


@pytest.mark.parametrize(
    "alter",
    [
        lambda rec: {**rec, "pursuers": "abc"},
        lambda rec: {**rec, "evaders": [rec["evaders"][0][:2]] + rec["evaders"][1:]},
        lambda rec: {**rec, "evaders": None},
        lambda rec: list(rec.values()),
    ],
    ids=["pursuers-a-string", "two-number-pose", "evaders-null", "record-a-list"],
)
def test_render_rejects_a_malformed_record(tmp_path, capsys, env_4p2e3o, alter):
    # a valid 2-record log with its step record altered: exit 2, no traceback
    state, _ = sim.reset(env_4p2e3o, 2)
    log = sim.TrajectoryLog(env_4p2e3o)
    log.record_reset(state)
    actions = [0.0] * env_4p2e3o.players.num_p
    log.record_step(state, actions, sim.step(state, actions))
    log.records[1] = alter(log.records[1])
    path = tmp_path / "traj.ndjson"
    path.write_text(log.dumps(), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("render", "--log", str(path), "--out", str(tmp_path / "a.svg")) == 2
    assert capsys.readouterr().err.startswith("error: malformed log: record 1")
    assert not (tmp_path / "a.svg").exists()


def test_manifest_written_before_outputs(tmp_path):
    out = tmp_path / "run"
    run_cli("train", "--algo", "sp", "--env", "4p2e3o", "--steps", "256", "--out", str(out), "--seed", "5")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["argv"][0] == "train"
    # what ran it
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["machine"] == platform.machine()
    assert manifest["cpu_count"] == os.cpu_count()
    numpy_config = np.show_config(mode="dicts")
    blas = numpy_config["Build Dependencies"]["blas"]
    assert manifest["blas"] == f"{blas['name']} {blas['version']}"
    assert manifest["blas_fingerprint"] == nn.blas_fingerprint()
    assert manifest["simd"] == numpy_config["SIMD Extensions"]["found"]


def test_manifest_records_the_enabled_simd_targets(tmp_path):
    # NPY_DISABLE_CPU_FEATURES acts when numpy loads, so a fresh process
    # reports the narrowed dispatch in its manifest
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    if not found:
        pytest.skip("numpy dispatches to no SIMD target above its baseline here")
    report = tmp_path / "report"
    src = str(Path(cli.__file__).parents[1])
    # add the target to an inherited cap: replacing the cap would lift it
    disabled = " ".join(filter(None, [os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), found[-1]]))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled, "PYTHONPATH": src}
    argv = ["eval", "--ckpt", "greedy", "--zoo", "1", "--env", "4p2e3o", "--episodes", "1", "--report", str(report)]
    code = f"import sys; from pursuit_lab import cli; sys.exit(cli.main({argv!r}))"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
    manifest = json.loads((report / "manifest.json").read_text())
    assert manifest["simd"] == found[:-1]


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--deterministic"]])
def test_train_rejects_removed_options(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--algo", "sp", "--env", "4p2e3o", "--steps", "64", "--out", str(tmp_path / "run"), *flag)
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()


def test_eval_rejects_the_removed_deterministic_option(tmp_path):
    # results are identical for any --jobs, so the flag had nothing to force
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "eval", "--ckpt", "greedy", "--zoo", "1", "--env", "4p2e3o", "--episodes", "1",
            "--report", str(tmp_path / "rep"), "--deterministic",
        )
    assert exc.value.code == 2


def write_env(tmp_path, **players):
    doc = json.loads(config.builtin_env_text("4p2e3o"))
    doc["players"].update(players)
    path = tmp_path / "env.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "algo, players, message",
    [
        # a valid but infeasible pursuer respawn region
        ("sp", {"respawn_region": {
            "pursuer": {"x_min": 1.0, "y_min": 0.2, "x_max": 1.3, "y_max": 0.5},
            "evader": {"x_min": 0.2, "y_min": 4.2, "x_max": 3.4, "y_max": 4.8},
        }}, "infeasible"),
        # NAHT-D trains with teammates in the uncontrolled slots
        ("naht-d", {"num_ctrl": 4, "num_unctrl": 0, "unseen_drones": []}, "uncontrolled teammate slots"),
    ],
)
def test_train_maps_value_errors_to_exit_1(tmp_path, capsys, algo, players, message):
    env = write_env(tmp_path, **players)
    assert run_cli("train", "--algo", algo, "--env", env, "--steps", "64", "--out", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("num_p", [3, 5])
def test_train_sizes_the_batch_for_any_learner_count(tmp_path, num_p):
    env = write_env(tmp_path, num_p=num_p, num_ctrl=num_p, num_unctrl=0, unseen_drones=[])
    out = tmp_path / "run"
    assert run_cli("train", "--algo", "sp", "--env", env, "--steps", "64", "--out", str(out)) == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "1020"  # one update of the largest batch that 4 and num_p divide


@pytest.mark.parametrize("flag, expected", [([], ["vicsek"]), (["--teammates", "greedy, vicsek"], ["greedy", "vicsek"])])
def test_train_teammates_default_to_the_unseen_drones(tmp_path, monkeypatch, flag, expected):
    env = write_env(tmp_path, unseen_drones=["vicsek"])
    pools = []

    def fake_mappo_train(cfg, env_cfg, seed, teammate_pool=None, out_dir=None):
        pools.append(teammate_pool)
        return rl.TrainResult(model=None)

    monkeypatch.setattr(rl, "mappo_train", fake_mappo_train)
    assert run_cli("train", "--algo", "mappo", "--env", env, "--out", str(tmp_path / "run"), *flag) == 0
    [pool] = pools
    assert [p.policy_id for p in pool] == expected


@pytest.mark.parametrize(
    "algo, flag",
    [
        ("sp", ["--teammates", "greedy"]),
        ("pbt", ["--teammates", "greedy"]),
        ("hola", ["--teammates", "greedy"]),
        ("hola-nog", ["--teammates", "greedy"]),
        ("sp", ["--pop-size", "4"]),
        ("hola", ["--pop-size", "4"]),
        ("naht-d", ["--pop-size", "4"]),
        ("sp", ["--generations", "1"]),
        ("pbt", ["--generations", "1"]),
        ("mappo", ["--init-sp-steps", "128"]),
        ("naht-d-nodec", ["--init-sp-steps", "128"]),
    ],
)
def test_train_rejects_a_flag_its_algo_does_not_read(tmp_path, capsys, algo, flag):
    out = tmp_path / "run"
    assert run_cli("train", "--algo", algo, "--env", "4p2e3o", "--steps", "64", "--out", str(out), *flag) == 2
    assert f"does not read {flag[0]}" in capsys.readouterr().err
    assert not out.exists()  # refused before the manifest


@pytest.mark.parametrize("algo", ["mappo", "naht-d"])
def test_train_rejects_an_empty_teammate_pool_with_one_message(tmp_path, capsys, algo):
    out = str(tmp_path / "run")
    assert run_cli("train", "--algo", algo, "--env", "4p2e3o", "--steps", "64", "--out", out, "--teammates", ",") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: empty teammate pool") and "Traceback" not in err


def test_train_rejects_teammates_without_uncontrolled_slots(tmp_path, capsys):
    env = write_env(tmp_path, num_ctrl=4, num_unctrl=0, unseen_drones=[])
    out = tmp_path / "run"
    assert run_cli("train", "--algo", "mappo", "--env", env, "--out", str(out), "--teammates", "greedy") == 2
    assert "--teammates needs uncontrolled slots" in capsys.readouterr().err
    assert not out.exists()


def test_eval_writes_the_manifest_before_it_evaluates(tmp_path, monkeypatch):
    report_dir = tmp_path / "rep"
    seen = []

    def fake_run_evaluation(*args, **kwargs):
        seen.append((report_dir / "manifest.json").exists())
        raise ValueError("stop after the check")

    monkeypatch.setattr(evalkit, "run_evaluation", fake_run_evaluation)
    rc = run_cli(
        "eval", "--ckpt", "greedy", "--zoo", "1", "--env", "4p2e3o",
        "--episodes", "1", "--report", str(report_dir),
    )
    assert rc == 1
    assert seen == [True]


@pytest.mark.parametrize("algo", ["sp", "pbt"])
@pytest.mark.parametrize("steps", ["0", "-1"])
def test_train_rejects_steps_below_one(tmp_path, capsys, algo, steps):
    out = tmp_path / "run"
    assert run_cli("train", "--algo", algo, "--env", "4p2e3o", "--steps", steps, "--out", str(out)) == 2
    assert "--steps must be >= 1" in capsys.readouterr().err
    assert not out.exists()  # refused before the manifest


@pytest.mark.parametrize(
    "argv",
    [
        ("train", "--algo", "sp", "--steps", "64", "--out"),
        ("eval", "--ckpt", "greedy", "--zoo", "1", "--episodes", "1", "--report"),
    ],
)
def test_commands_print_the_violations_of_an_invalid_config(tmp_path, capsys, argv):
    # the config parses but fails validate_config
    doc = json.loads(config.builtin_env_text("4p2e3o"))
    doc["task"]["fps"] = -1
    env = tmp_path / "env.json"
    env.write_text(json.dumps(doc))
    assert run_cli(*argv, str(tmp_path / "out"), "--env", str(env)) == 1
    assert "fps must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before the run manifest


@pytest.mark.parametrize(
    "argv, message",
    [
        (("train", "--algo", "pbt", "--steps", "64", "--pop-size", "1"), "--pop-size must be >= 2, got 1"),
        (("train", "--algo", "hola", "--steps", "64", "--generations", "0"), "--generations must be >= 1, got 0"),
        (("train", "--algo", "hola-nog", "--steps", "64", "--generations", "1", "--init-sp-steps", "0"), "--init-sp-steps must be >= 1, got 0"),
        (("eval", "--ckpt", "greedy", "--zoo", "1", "--episodes", "0"), "--episodes must be >= 1, got 0"),
        (("eval", "--ckpt", "greedy", "--zoo", "1", "--episodes", "-3"), "--episodes must be >= 1, got -3"),
        (("eval", "--ckpt", "greedy", "--zoo", "1", "--episodes", "5", "--jobs", "0"), "--jobs must be >= 1, got 0"),
        # a count flag that the algo does not read is refused as such
        (("train", "--algo", "sp", "--steps", "64", "--pop-size", "1"), "--algo sp does not read --pop-size"),
    ],
)
def test_count_flags_below_their_minimum_exit_2_before_the_manifest(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert run_cli(*argv, "--out" if argv[0] == "train" else "--report", str(out), "--env", "4p2e3o") == 2
    assert message in capsys.readouterr().err
    assert not out.exists()  # refused before the manifest
