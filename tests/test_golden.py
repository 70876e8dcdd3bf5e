"""Golden bytes of the simulator, of tiny fixed-seed trainings and of one evaluation.

The simulator's hash covers a few fixed-seed episodes on each built-in arena
(`4p2e1o`, `4p2e3o`, `4p2e5o`, `4p3e5o`, up to 200 steps each), driven by
greedy, Vicsek and random slots: the reset observations and poses, then per
step the actions, observations, reward, terminal, capture and collision
events, and the poses and capture flags after the step.

The scripted evaluation's hash covers the path on which no slot reads
observations: the `report.json` and episode records of a greedy learner
with zoo 1 partners on `4p3e5o`, and the trajectory-log bytes of one episode that greedy, Vicsek
and random slots play on that arena.

SP, MAPPO and NAHT-D each train for two PPO updates (batch 64, minibatch 32,
one epoch) on `reduced_4p2e3o`, so that each collects from one episode at a
time; a second NAHT-D run trains two updates of batch 512, whose collector
steps 8 episodes side by side (`rl.ROLLOUT_ENVS`), 32 steps each per batch.
A 6-episode `eval` then runs the NAHT-D and MAPPO checkpoints side by side
with greedy partners. On the same mixed
arena, a 4-member PBT run trains two rounds with an exploit after each, and
a HOLA run trains two generations of one update each from a population
whose self-play seeds had one update each. The sha256 of every
deterministic output is compared with `tests/golden/hashes.json`: the
metrics CSVs that the trainers write, the `params.bin` and `manifest.json` members of every
checkpoint, HOLA's `generation_*.json` and `report.json`. Archive members are compared instead of the
`.zip` files, and a manifest is compared as parsed JSON, so that only the
recorded numbers count.

All of them are keys of the same file, recorded with its platform: the
numpy version, the machine, the C library and a fingerprint of the BLAS
kernel. Every key skips on another numpy version, machine or C library (the
observations' bearings and the PPO ratio come from libm). The simulator and
scripted keys call no BLAS; the training and evaluation keys do, so they
also skip when the fingerprint differs (OpenBLAS picks its kernel by CPU,
and on x86_64 an AVX2-only kernel gives other network bits than an AVX-512
one). numpy's SIMD dispatch is not part of the platform. No key passes
through a float64 numpy transcendental, whose bits differ between numpy's
AVX-512 and AVX2 kernels, and the last test recomputes every key in a
subprocess with the dispatch capped at X86_V3. A refactor leaves every hash
unchanged. After a change that moves outputs on purpose, rerun
`PYTHONPATH=src python tests/golden/regen_hashes.py` and say in the commit
why the bytes moved.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from pursuit_lab import cli, config, evalkit, nn, population, rl, sim, teammate
from pursuit_lab.seeding import substream
from conftest import act_alone, reduced_4p2e3o

HASHES = Path(__file__).parent / "golden" / "hashes.json"
PPO = rl.PpoConfig(batch=64, minibatch=32, epochs=1, total_steps=128)
#: 8 episodes side by side, 32 steps each, of the 2 learners of the mixed arena
SIDE_BY_SIDE_PPO = rl.PpoConfig(batch=8 * 32 * 2, minibatch=128, epochs=1, total_steps=2 * 8 * 32 * 2)
SEED = 5
STEP_KEY = "sim/step-outcomes"
STEP_EPISODES = 3
STEP_LIMIT = 200
SCRIPTED_EVAL_KEY = "eval/scripted"
SCRIPTED_EVAL_ENV = "4p3e5o"
SCRIPTED_EVAL_EPISODES = 6
SCRIPTED_LOG_SEED = 3  # the random slot ends the episode in a collision at step 125


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def platform_tag() -> dict:
    """Float results depend on the numpy build, the CPU architecture and the
    C library, whose libm gives the bearings and the PPO ratio, and the
    networks' also on the BLAS kernel."""
    libc = " ".join(platform.libc_ver())
    return {"numpy": np.__version__, "machine": platform.machine(), "libc": libc, "blas": nn.blas_fingerprint()}


def checkpoint_hashes(run: str, path) -> dict[str, str]:
    with zipfile.ZipFile(path) as zf:
        manifest = json.loads(zf.read("manifest.json"))
        params = zf.read("params.bin")
    key = f"{run}/{Path(path).name}"
    return {
        f"{key}/params.bin": sha256(params),
        f"{key}/manifest.json": sha256(json.dumps(manifest, sort_keys=True).encode("utf-8")),
    }


def step_slot_policies(num_p: int, episode: int) -> list:
    """All greedy in episode 0, so that captures happen; then greedy, Vicsek
    and random slots in turn, so that drones hit obstacles and walls."""
    kinds = (lambda: rl.ScriptedSlotPolicy("greedy"), lambda: rl.ScriptedSlotPolicy("vicsek"), rl.RandomSlotPolicy)
    return [kinds[0 if episode == 0 else (i + episode) % len(kinds)]() for i in range(num_p)]


def step_outcome_hash() -> str:
    """sha256 over every observable of a few fixed-seed episodes on each arena."""
    h = hashlib.sha256()
    for a, name in enumerate(config.BUILTIN_ENV_NAMES):
        cfg = config.builtin_env(name)
        for episode in range(STEP_EPISODES):
            seed = 100 * a + episode
            state, obs = sim.reset(cfg, seed)
            policies = step_slot_policies(cfg.players.num_p, episode)
            rng = substream(seed, "policies")
            slot_states = [pol.begin_episode(rng) for pol in policies]
            for arr in (obs, state.pursuers, state.evaders):
                h.update(np.array(arr).tobytes())
            while state.terminal == sim.RUNNING and state.step < STEP_LIMIT:
                seats = enumerate(zip(policies, slot_states))
                actions = np.array([act_alone(pol, state, obs, i, slot_state) for i, (pol, slot_state) in seats])
                out = sim.step(state, actions)
                obs = sim.observe_all([state])[0]
                for arr in (actions, obs, state.pursuers, state.evaders, state.captured):
                    h.update(np.array(arr).tobytes())
                h.update(repr((out.reward, out.terminal, out.captures, out.collisions)).encode())
    return h.hexdigest()


def scripted_eval_hash() -> str:
    """sha256 over a greedy + zoo 1 `report.json`, its episode records (full
    return bits) and one scripted episode's trajectory log."""
    cfg = config.builtin_env(SCRIPTED_EVAL_ENV)
    zoo = evalkit.build_zoo("zoo1", evalkit.ZooAssets())
    report, records = evalkit.run_evaluation(["greedy"], zoo, cfg, SCRIPTED_EVAL_EPISODES, SEED)
    log = sim.TrajectoryLog(cfg)
    slots = [rl.ScriptedSlotPolicy("greedy"), rl.ScriptedSlotPolicy("vicsek"), rl.RandomSlotPolicy()]
    evalkit.play_episode(cfg, [slots[i % len(slots)] for i in range(cfg.players.num_p)], SCRIPTED_LOG_SEED, log=log)
    return sha256((report.to_json() + repr(records) + log.dumps()).encode("utf-8"))


#: Keys hashed without training, each by its own function.
SEPARATE_KEYS = {STEP_KEY: step_outcome_hash, SCRIPTED_EVAL_KEY: scripted_eval_hash}


def mixed_arena():
    """`reduced_4p2e3o` with 2 learner slots and 2 uncontrolled ones."""
    return reduced_4p2e3o(num_ctrl=2, num_unctrl=2, unseen=("greedy",))


def golden_hashes(root: Path) -> dict[str, str]:
    """Run the golden trainings and evaluation under `root`; hash their outputs."""
    solo = reduced_4p2e3o()
    mixed = mixed_arena()
    pool = [rl.ScriptedSlotPolicy("greedy")]
    runs = {
        "sp": lambda out: rl.ippo_selfplay_train(PPO, solo, SEED, out_dir=out),
        "mappo": lambda out: rl.mappo_train(PPO, mixed, SEED, teammate_pool=pool, out_dir=out),
        "naht-d": lambda out: teammate.naht_d_train(PPO, mixed, pool, SEED, out_dir=out),
    }
    hashes = {}
    for run, train in runs.items():
        out = root / run
        train(str(out))
        hashes[f"{run}/metrics.csv"] = sha256((out / "metrics.csv").read_bytes())
        for path in sorted(out.glob("*.zip")):
            hashes.update(checkpoint_hashes(run, path))

    out = root / "naht-d-8envs"
    teammate.naht_d_train(SIDE_BY_SIDE_PPO, mixed, pool, SEED, out_dir=str(out))
    hashes["naht-d-8envs/metrics.csv"] = sha256((out / "metrics.csv").read_bytes())
    hashes.update(checkpoint_hashes("naht-d-8envs", out / "final.zip"))

    out = root / "pbt"
    rl.pbt_train(4, PPO, mixed, SEED, exploit_interval=PPO.batch, out_dir=str(out))
    for path in sorted(out.glob("metrics_member*.csv")):
        hashes[f"pbt/{path.name}"] = sha256(path.read_bytes())
    for path in sorted(out.glob("*.zip")):
        hashes.update(checkpoint_hashes("pbt", path))

    out = root / "hola"
    population.hola_train(
        PPO, mixed, SEED, generations=2, gen_budget=64, sp_budget=64, episodes_per_edge=2, out_dir=str(out)
    )
    for path in sorted(out.glob("generation_*.json")) + sorted(out.glob("metrics_gen*.csv")):
        hashes[f"hola/{path.name}"] = sha256(path.read_bytes())
    hashes.update(checkpoint_hashes("hola", out / "final.zip"))

    env_path = root / "mixed.json"
    env_path.write_text(config.serialize_config(mixed))
    report = root / "eval"
    rc = cli.main([
        "eval", "--ckpt", str(root / "naht-d" / "final.zip"), str(root / "mappo" / "final.zip"),
        "--zoo", "1", "--env", str(env_path), "--episodes", "6", "--seed", str(SEED), "--report", str(report),
    ])
    assert rc == 0
    hashes["eval/report.json"] = sha256((report / "report.json").read_bytes())
    return dict(sorted(hashes.items()))


def computed_hashes(root: Path, networks: bool = True) -> dict[str, str]:
    """Every key, computed under `root`; only the simulator and scripted keys
    without `networks`."""
    hashes = {key: run() for key, run in SEPARATE_KEYS.items()}
    if networks:
        hashes.update(golden_hashes(root))
    return dict(sorted(hashes.items()))


@pytest.fixture(scope="module")
def golden() -> dict:
    """The recorded document; skips on another numpy version, machine or C library."""
    doc = json.loads(HASHES.read_text())
    here = platform_tag()
    if any(doc["platform"][k] != here[k] for k in ("numpy", "machine", "libc")):
        pytest.skip(f"golden hashes were recorded on {doc['platform']}, not {here}")
    return doc


def test_step_outcomes_match_the_golden_hash(golden):
    assert step_outcome_hash() == golden["hashes"][STEP_KEY]


def test_scripted_eval_matches_the_golden_hash(golden):
    assert scripted_eval_hash() == golden["hashes"][SCRIPTED_EVAL_KEY]


def test_checkpoints_trained_with_other_batches_have_other_manifests():
    # an archive records its PPO settings, so the two NAHT-D runs' final
    # manifests differ, although their dims are the same
    hashes = json.loads(HASHES.read_text())["hashes"]
    assert hashes["naht-d/final.zip/manifest.json"] != hashes["naht-d-8envs/final.zip/manifest.json"]


def test_side_by_side_training_steps_8_episodes_of_32_steps():
    # the collector of the "naht-d-8envs" run, built as `naht_d_train` builds it
    mixed = mixed_arena()
    model = teammate.init_naht_model(mixed, SIDE_BY_SIDE_PPO, substream(SEED, "init"))
    mates = rl.UniformTeammates([rl.ScriptedSlotPolicy("greedy")], mixed.players.num_unctrl)
    collector = teammate.NahtCollector(mixed, model, SIDE_BY_SIDE_PPO, substream(SEED, "rollout"), mates)
    assert collector.n_envs == 8 == rl.ROLLOUT_ENVS
    assert SIDE_BY_SIDE_PPO.batch // (collector.n_learners * collector.n_envs) == 32


def test_outputs_match_the_golden_hashes(tmp_path, golden):
    if golden["platform"]["blas"] != nn.blas_fingerprint():
        pytest.skip("the network keys were recorded with another BLAS kernel")
    hashes = golden["hashes"]
    assert golden_hashes(tmp_path) == {key: value for key, value in hashes.items() if key not in SEPARATE_KEYS}


def test_every_key_holds_with_numpy_dispatch_capped_at_x86_v3(tmp_path, golden):
    # a fresh process computes the keys with every SIMD target above X86_V3
    # disabled (NPY_DISABLE_CPU_FEATURES acts when numpy loads); the network
    # keys only where the BLAS kernel is the recorded one
    found = cli._numpy_config().get("SIMD Extensions", {}).get("found", [])
    if "X86_V3" not in found:
        pytest.skip("numpy dispatches to no X86_V3 kernels here")
    level = found.index("X86_V3") + 1
    # add the targets to an inherited cap: replacing the cap would lift it
    disabled = " ".join(filter(None, [os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *found[level:]]))
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled, "PYTHONPATH": path}
    networks = golden["platform"]["blas"] == nn.blas_fingerprint()
    out = tmp_path / "capped.json"
    code = (
        "import json, pathlib, test_golden as g; "
        "found = g.cli._numpy_config()['SIMD Extensions']['found']; "
        f"hashes = g.computed_hashes(pathlib.Path({str(tmp_path)!r}), {networks}); "
        f"pathlib.Path({str(out)!r}).write_text(json.dumps({{'found': found, 'hashes': hashes}}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    capped = json.loads(out.read_text())
    assert capped["found"] == found[:level]
    assert capped["hashes"] == {key: value for key, value in golden["hashes"].items() if networks or key in SEPARATE_KEYS}
