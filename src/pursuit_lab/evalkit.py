"""Unseen-teammate zoos, the evaluation protocol, and metric computation.

An evaluation fills the first N pursuer slots with the policies under test
and the remaining M slots with per-episode uniform draws from a zoo. Episodes
run to terminal under deterministic (mean) actions; metrics aggregate into an
EvalReport with dispersion over seed blocks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import nn, rl, sim, teammate
from .config import EnvConfig
from .seeding import substream, substream_seed_int

DEFAULT_EPISODES = 250
SEED_BLOCKS = 5


@dataclass(frozen=True)
class ZooSpec:
    zoo_id: str  # "zoo1" | "zoo2" | "zoo3"
    members: tuple[str, ...]  # policy refs


@dataclass
class ZooAssets:
    """Everything build_zoo needs: scripted ids are implicit, self-play
    checkpoints carry their measured self-play success rate in the manifest."""

    sp_checkpoints: list[str] = field(default_factory=list)

    def checkpoint_sucs(self) -> list[tuple[str, float]]:
        """(path, recorded self-play success rate) of each checkpoint whose
        manifest records one; only the manifests are read."""
        extras = [(path, nn.load_manifest(path)["extra"]) for path in self.sp_checkpoints]
        return [(path, float(extra["selfplay_suc"])) for path, extra in extras if "selfplay_suc" in extra]


def build_zoo(zoo_id: str, assets: ZooAssets) -> ZooSpec:
    """zoo1: greedy only; zoo2: the two self-play checkpoints with maximally
    separated recorded skill; zoo3: union of both."""
    if zoo_id == "zoo1":
        return ZooSpec(zoo_id="zoo1", members=("greedy",))
    if zoo_id in ("zoo2", "zoo3"):
        ranked = sorted(assets.checkpoint_sucs(), key=lambda pair: pair[1])
        if len(ranked) < 2:
            raise ValueError("zoo2 needs at least two self-play checkpoints with recorded SUC")
        weak, strong = ranked[0][0], ranked[-1][0]
        members = (f"ckpt:{strong}", f"ckpt:{weak}")
        if zoo_id == "zoo2":
            return ZooSpec(zoo_id="zoo2", members=members)
        return ZooSpec(zoo_id="zoo3", members=("greedy",) + members)
    raise ValueError(f"unknown zoo id {zoo_id!r} (expected zoo1, zoo2, or zoo3)")


# ---------------------------------------------------------------------------
# Policy references
# ---------------------------------------------------------------------------

def load_checkpoint(path):
    """(model, manifest) of a checkpoint archive, read once: an actor-critic
    or a NAHT-D model, by the manifest's kind."""
    manifest, arrays = nn.load_arrays(path)
    kind = manifest["kind"]
    if kind == "actor_critic":
        return rl.actor_critic_from_arrays(arrays, manifest["extra"]), manifest
    if kind == "naht_d":
        return teammate.naht_from_arrays(arrays, manifest["extra"]), manifest
    raise ValueError(f"unknown checkpoint kind {kind!r}")


def resolve_policy(ref: str, env_cfg: EnvConfig, deterministic: bool = True):
    """Turn a policy reference into a slot policy.

    Accepts scripted ids ("greedy", "vicsek", "random") and checkpoint refs
    ("ckpt:<path>" or a bare path to a checkpoint archive). A checkpoint must
    match the env's observation length, and its pursuer and evader counts
    when its manifest records them (ValueError naming the path otherwise):
    observation rows of other counts can have the same length, and a NAHT-D
    model's step records lay the counts out. Every archive that
    `rl.RunDir.archive` writes records them; archives written before it did
    are checked by length alone.
    """
    if ref == "greedy" or ref == "vicsek":
        return rl.ScriptedSlotPolicy(ref)
    if ref == "random":
        return rl.RandomSlotPolicy()
    path = ref[5:] if ref.startswith("ckpt:") else ref
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint not found: {path}")
    model, manifest = load_checkpoint(path)
    extra = manifest["extra"]
    obs_dim = extra["obs_dim"]
    if obs_dim != sim.obs_length(env_cfg):
        raise ValueError(f"checkpoint obs dim {obs_dim} does not match env obs length {sim.obs_length(env_cfg)}")
    if "num_p" in extra:
        trained = (extra["num_p"], extra["num_e"])
        if trained != (env_cfg.players.num_p, env_cfg.players.num_e):
            raise ValueError(
                f"{path}: {manifest['kind']} checkpoint of {trained[0]} pursuers and {trained[1]} evaders does not "
                f"match the env's {env_cfg.players.num_p} and {env_cfg.players.num_e}"
            )
    if manifest["kind"] == "naht_d":
        return teammate.NahtSlotPolicy(model, deterministic=deterministic)
    return rl.NetSlotPolicy(model, deterministic=deterministic)


# ---------------------------------------------------------------------------
# Episodes and metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpisodeRecord:
    terminal: str
    steps: int
    episode_return: float
    seed_block: int
    index: int


def _play(episodes: list[rl.Episode]) -> list[EpisodeRecord]:
    """Step the episodes side by side through `rl.step_episodes` until each
    is terminal; their records, in order."""
    running = [ep for ep in episodes if ep.state.terminal == sim.RUNNING]
    while running:
        rl.step_episodes(running)
        running = [ep for ep in running if ep.state.terminal == sim.RUNNING]
    return [EpisodeRecord(ep.state.terminal, ep.state.step, ep.episode_return, seed_block=0, index=0) for ep in episodes]


def _own_copy(start):
    """A copy of a reset's (state, observation rows) that shares no pose
    list, flag list or rows array with it."""
    state, obs = start
    own = replace(
        state,
        pursuers=[pose.copy() for pose in state.pursuers],
        evaders=[pose.copy() for pose in state.evaders],
        captured=state.captured.copy(),
    )
    return own, obs.copy()


def play_episodes(env_cfg: EnvConfig, episodes) -> list[EpisodeRecord]:
    """Run full episodes side by side; `episodes` lists (slot policies, seed)
    pairs, and the records come back in that order.

    Each record has the bits that `play_episode` gives the episode alone:
    the episode keeps slot states begun from its `(seed, "policies")`
    substream and one `sim.step` per step. Each distinct seed is reset once:
    `sim.reset` is a pure function of config and seed, so every other
    episode of that seed starts from its own copy of that start (`_own_copy`)
    and shares no state with it. The steps (`rl.step_episodes`, which the
    rollout collectors step through too) build observation rows only when
    some slot reads them (`needs_obs`); otherwise every slot is handed None
    for them.
    """
    starts, played = {}, []
    for slots, seed in episodes:
        if seed in starts:
            start = _own_copy(starts[seed])
        else:
            start = starts[seed] = sim.reset(env_cfg, seed)
        played.append(rl.Episode(start, slots, substream(seed, "policies")))
    return _play(played)


def play_episode(env_cfg: EnvConfig, slot_policies, seed: int, log=None) -> EpisodeRecord:
    """Run one full episode with the given per-slot policies: the
    one-episode case of `play_episodes`, whose steps `log` records."""
    return _play([rl.Episode(sim.reset(env_cfg, seed), slot_policies, substream(seed, "policies"), log)])[0]


@dataclass
class EvalReport:
    suc: float  # % successful episodes
    col: int  # collision-terminated episode count
    ast: float | None  # mean steps over successes (None without a success)
    rew: float  # mean episode return
    col_pct: float
    timeout_pct: float
    suc_std: float | None
    col_std: float | None
    ast_std: float | None
    rew_std: float | None
    n_episodes: int
    seed_blocks: int
    seed: int

    def row(self) -> dict:
        """Every field by name, in declaration order: floats rounded to 6
        places, ints and None as they are. `report.json` holds this row,
        and `eval` writes it as the one row of `report.csv`."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: round(float(v), 6) if isinstance(v, float) else v for name, v in values.items()}

    def to_json(self) -> str:
        return json.dumps(self.row(), indent=2) + "\n"


def _metric_values(records) -> tuple[float, int, float | None, float]:
    """(SUC %, COL count, AST or None without a success, REW) of a nonempty
    list of episode records."""
    success_steps = [r.steps for r in records if r.terminal == sim.SUCCESS]
    suc = 100.0 * len(success_steps) / len(records)
    col = sum(r.terminal == sim.COLLISION for r in records)
    ast = float(np.mean(success_steps)) if success_steps else None
    return suc, col, ast, float(np.mean([r.episode_return for r in records]))


def compute_metrics(records, seed: int = 0, seed_blocks: int | None = None) -> EvalReport:
    """SUC/COL/AST/REW over episode records, with std over seed blocks (each
    block's AST counts only when the block has a success)."""
    records = list(records)
    if not records:
        raise ValueError("no episode records")
    n = len(records)
    suc, col, ast, rew = _metric_values(records)
    timeouts = sum(r.terminal == sim.TIMEOUT for r in records)

    blocks = sorted({r.seed_block for r in records})
    if seed_blocks is None:
        seed_blocks = len(blocks)
    per_block = [_metric_values([r for r in records if r.seed_block == b]) for b in blocks] if len(blocks) > 1 else []
    columns = [[m[i] for m in per_block if m[i] is not None] for i in range(4)]
    suc_std, col_std, ast_std, rew_std = (float(np.std(c)) if c else None for c in columns)
    return EvalReport(
        suc=suc,
        col=col,
        ast=ast,
        rew=rew,
        col_pct=100.0 * col / n,
        timeout_pct=100.0 * timeouts / n,
        suc_std=suc_std,
        col_std=col_std,
        ast_std=ast_std,
        rew_std=rew_std,
        n_episodes=n,
        seed_blocks=seed_blocks,
        seed=seed,
    )


def episode_seed(seed: int, block: int, index: int) -> int:
    """The env seed of episode `index` of seed block `block` of an evaluation."""
    return substream_seed_int(seed, "eval", block, index)


def _eval_block(args) -> list[EpisodeRecord]:
    """One seed block of evaluation episodes, played side by side
    (top-level for multiprocessing).

    `policies` holds the slot policy of every ref, shared by all the slots
    and episodes that draw the ref."""
    policies, learner_refs, zoo, env_cfg, block, episodes, seed = args
    learners = [policies[ref] for ref in learner_refs]
    block_episodes = []
    for e in range(episodes):
        ep_seed = episode_seed(seed, block, e)
        zoo_rng = substream(seed, "zoo", block, e)
        slots = list(learners)
        for _ in range(env_cfg.players.num_unctrl):
            ref = zoo.members[int(zoo_rng.integers(0, len(zoo.members)))]
            slots.append(policies[ref])
        block_episodes.append((slots, ep_seed))
    records = play_episodes(env_cfg, block_episodes)
    return [replace(rec, seed_block=block, index=e) for e, rec in enumerate(records)]


def run_evaluation(
    learner_refs,
    zoo: ZooSpec | None,
    env_cfg: EnvConfig,
    n_episodes: int,
    seed: int,
    jobs: int = 1,
) -> tuple[EvalReport, list[EpisodeRecord]]:
    """Evaluate learner policies (slots [0, N)) with zoo partners (slots [N, num_p)).

    `learner_refs` lists one policy ref per learner slot, or one ref that
    fills all N of them. Zoo members are drawn independently per
    uncontrolled slot each episode. The episodes are split over `SEED_BLOCKS`
    seed blocks. Everything is seeded: episode e of block b uses the
    (seed, "eval", b, e) substream, so results are identical for any `jobs`
    value (blocks just run in parallel processes when jobs > 1). Each
    distinct ref is resolved once, which fails fast on a bad ref, and the
    worker processes receive the resolved policies.
    """
    p = env_cfg.players
    if len(learner_refs) == 1 and p.num_ctrl > 1:
        learner_refs = list(learner_refs) * p.num_ctrl
    if len(learner_refs) != p.num_ctrl:
        raise ValueError(f"need {p.num_ctrl} learner slots, got {len(learner_refs)}")
    if p.num_unctrl > 0 and zoo is None:
        raise ValueError("uncontrolled slots present but no zoo given")
    refs = list(learner_refs) + (list(zoo.members) if zoo is not None else [])
    policies = {ref: resolve_policy(ref, env_cfg) for ref in dict.fromkeys(refs)}

    per_block = [n_episodes // SEED_BLOCKS] * SEED_BLOCKS
    for i in range(n_episodes % SEED_BLOCKS):
        per_block[i] += 1
    tasks = [(policies, list(learner_refs), zoo, env_cfg, b, per_block[b], seed) for b in range(SEED_BLOCKS)]
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(min(jobs, SEED_BLOCKS)) as pool:
            block_records = pool.map(_eval_block, tasks)
    else:
        block_records = [_eval_block(t) for t in tasks]
    records = [rec for block in block_records for rec in block]
    report = compute_metrics(records, seed=seed, seed_blocks=SEED_BLOCKS)
    return report, records
