"""Command-line entry points: validate, train, eval, render.

Exit codes: 0 success, 1 domain violation (invalid config, failed check, or a
ValueError from `train` or `eval` such as an infeasible respawn region or a
bad policy reference), 2 usage or IO error, a `train` flag that the chosen
`--algo` does not read and a count flag below its minimum included. Every long-running command writes
a run manifest into its output directory before any heavy computation; the
rest of a `train` run directory comes from the trainer, and `rl.RunDir`
writes every file of both (`render --out` is one SVG file). Rerunning a command
with the same arguments reproduces its outputs byte for byte. `eval --jobs J`
runs seed blocks in J worker processes with results identical for any J. `train` sizes its PPO batch for the env's learner
slots (`rl.PpoConfig.for_learners`). The PURSUIT_LAB_DIR environment
variable provides the default asset root for zoo checkpoints.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, config, evalkit, nn, population, render, rl, sim, teammate

ALGOS = ("sp", "pbt", "mappo", "hola", "hola-nog", "naht-d", "naht-d-nodec")

#: The `train` flags that only some algorithms read: (flag, the algorithms
#: that read it, its default).
ALGO_FLAGS = (
    ("--teammates", ("mappo", "naht-d", "naht-d-nodec"), None),
    ("--pop-size", ("pbt",), 4),
    ("--generations", ("hola", "hola-nog"), 5),
    ("--init-sp-steps", ("hola", "hola-nog"), 50_000),
)


def _below_minimum(args: argparse.Namespace, **minimums: int) -> bool:
    """True, once printed, when a count flag (by its dest) is below its minimum."""
    for dest, minimum in minimums.items():
        value = getattr(args, dest)
        if value < minimum:
            print(f"--{dest.replace('_', '-')} must be >= {minimum}, got {value}", file=sys.stderr)
            return True
    return False


def _load_env(spec: str) -> config.EnvConfig:
    if spec in config.BUILTIN_ENV_NAMES:
        return config.builtin_env(spec)
    with open(spec, "r", encoding="utf-8") as fh:
        return config.parse_config(fh.read())


def _env_or_exit_code(spec: str) -> config.EnvConfig | int:
    """The env config of `train`, `eval` and `render --env`, or the exit code once the
    reason is printed: 2 for an unreadable or malformed file, 1 with the
    violations for a config that fails `validate_config`."""
    try:
        return _load_env(spec)
    except (OSError, config.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except config.InvalidConfigError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return 1


def _numpy_config() -> dict:
    """numpy's build report, with its enabled SIMD dispatch targets (which
    NPY_DISABLE_CPU_FEATURES narrows); empty on an older numpy whose
    show_config takes no `mode`."""
    try:
        return np.show_config(mode="dicts")
    except TypeError:
        return {}


def _write_manifest(run: rl.RunDir, command: str, args: argparse.Namespace, env_cfg=None) -> None:
    numpy_config = _numpy_config()
    blas = numpy_config.get("Build Dependencies", {}).get("blas", {})
    manifest = {
        "command": command,
        "argv": getattr(args, "_argv", sys.argv[1:]),
        "tool_version": __version__,
        "seed": getattr(args, "seed", None),
        "jobs": getattr(args, "jobs", 1),
        "out_dir": run.path,
        # what ran the command
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_fingerprint": nn.blas_fingerprint(),
        "simd": numpy_config.get("SIMD Extensions", {}).get("found", []),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    if env_cfg is not None:
        text = config.serialize_config(env_cfg)
        manifest["env"] = env_cfg.task.task_name
        manifest["config_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    run.text("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        config.parse_config(text)
    except config.ConfigError as exc:
        print(f"parse error:\n{exc}", file=sys.stderr)
        return 2
    except config.InvalidConfigError as exc:
        for v in exc.violations:
            print(v)
        return 1
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _teammate_pool(refs: str | None, env_cfg):
    """Stochastic slot policies for `--teammates`, or for the config's
    `players.unseen_drones` when the flag is not given."""
    refs = [ref.strip() for ref in refs.split(",")] if refs is not None else env_cfg.players.unseen_drones
    return [evalkit.resolve_policy(ref, env_cfg, deterministic=False) for ref in refs if ref]


def cmd_train(args) -> int:
    if args.algo not in ALGOS:
        print(f"unknown algo {args.algo!r}; choose from {ALGOS}", file=sys.stderr)
        return 2
    for flag, algos, default in ALGO_FLAGS:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.algo not in algos:
            print(f"--algo {args.algo} does not read {flag}", file=sys.stderr)
            return 2
    # a flag that --algo does not read holds its default here, which passes
    if _below_minimum(args, steps=1, pop_size=2, generations=1, init_sp_steps=1):
        return 2
    env_cfg = _env_or_exit_code(args.env)
    if isinstance(env_cfg, int):
        return env_cfg

    p = env_cfg.players
    if args.teammates is not None and p.num_unctrl == 0:
        print("--teammates needs uncontrolled slots in the env config", file=sys.stderr)
        return 2
    # self-play trains every slot; HOLA's initial population is self-play too
    slots = {"sp": (p.num_p,), "hola": (p.num_p, p.num_ctrl), "hola-nog": (p.num_p, p.num_ctrl)}
    cfg = rl.PpoConfig.for_learners(*slots.get(args.algo, (p.num_ctrl,)), total_steps=args.steps)
    _write_manifest(rl.RunDir(args.out), "train", args, env_cfg)
    try:
        _train(args, cfg, env_cfg)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _train(args, cfg: rl.PpoConfig, env_cfg) -> None:
    """Run the trainer of `--algo`, which writes the rest of the run directory."""
    out = args.out
    if args.algo == "sp":
        rl.ippo_selfplay_train(cfg, env_cfg, args.seed, out_dir=out)
    elif args.algo == "pbt":
        rl.pbt_train(args.pop_size, cfg, env_cfg, args.seed, out_dir=out)
    elif args.algo == "mappo":
        pool = _teammate_pool(args.teammates, env_cfg) if env_cfg.players.num_unctrl > 0 else None
        rl.mappo_train(cfg, env_cfg, args.seed, teammate_pool=pool, out_dir=out)
    elif args.algo in ("hola", "hola-nog"):
        population.hola_train(
            cfg,
            env_cfg,
            args.seed,
            generations=args.generations,
            gen_budget=args.steps,
            sp_budget=args.init_sp_steps,
            uniform_rho=args.algo == "hola-nog",
            out_dir=out,
        )
    else:  # naht-d / naht-d-nodec
        pool = _teammate_pool(args.teammates, env_cfg)
        teammate.naht_d_train(cfg, env_cfg, pool, args.seed, no_decoder=args.algo == "naht-d-nodec", out_dir=out)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _zoo_assets(root: str | None) -> evalkit.ZooAssets:
    root = root or os.environ.get("PURSUIT_LAB_DIR", "")
    names = sorted(os.listdir(root)) if root and os.path.isdir(root) else []
    return evalkit.ZooAssets(sp_checkpoints=[os.path.join(root, name) for name in names if name.endswith(".zip")])


def cmd_eval(args) -> int:
    if args.zoo not in (1, 2, 3):
        print(f"unknown zoo {args.zoo}; choose 1, 2, or 3", file=sys.stderr)
        return 2
    if _below_minimum(args, episodes=1, jobs=1):
        return 2
    env_cfg = _env_or_exit_code(args.env)
    if isinstance(env_cfg, int):
        return env_cfg
    run = rl.RunDir(args.report)
    _write_manifest(run, "eval", args, env_cfg)
    try:
        zoo = evalkit.build_zoo(f"zoo{args.zoo}", _zoo_assets(args.zoo_assets))
        report, records = evalkit.run_evaluation(
            list(args.ckpt),
            zoo,
            env_cfg,
            n_episodes=args.episodes,
            seed=args.seed,
            jobs=args.jobs,
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run.text("report.json", report.to_json())
    row = report.row()
    run.csv("report.csv", list(row), [row])
    episodes = [{**asdict(rec), "seed": evalkit.episode_seed(args.seed, rec.seed_block, rec.index)} for rec in records]
    run.text("episodes.ndjson", "".join(json.dumps(ep) + "\n" for ep in episodes))
    print(
        f"SUC {report.suc:.2f}%  COL {report.col}  "
        f"AST {report.ast if report.ast is not None else 'n/a'}  REW {report.rew:.2f}"
    )
    return 0


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def cmd_render(args) -> int:
    try:
        records = sim.load_trajectory(args.log)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read log: {exc}", file=sys.stderr)
        return 2
    if not records:
        print("error: empty trajectory log", file=sys.stderr)
        return 2
    if args.env:
        env_cfg = _env_or_exit_code(args.env)
        if isinstance(env_cfg, int):
            return env_cfg
    elif not isinstance(records[0], dict) or "env" not in records[0]:
        print("error: log has no embedded env; pass --env", file=sys.stderr)
        return 2
    try:
        if not args.env:
            env_cfg = config.parse_config(json.dumps(records[0]["env"]))
        svg = render.render_episode(records, env_cfg)
    except ValueError as exc:  # ConfigError and InvalidConfigError among them
        print(f"error: malformed log: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pursuit-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate an environment config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(fn=cmd_validate)

    p_train = sub.add_parser("train", help="train a policy")
    p_train.add_argument("--algo", required=True)
    p_train.add_argument("--env", required=True, help="built-in name or config path")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument(
        "--steps",
        type=int,
        default=1_000_000,
        help="learner-transition budget, per generation for hola; rounds up to whole PPO batches (default 1000000)",
    )
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--pop-size", type=int, help="pbt population size (default 4)")
    p_train.add_argument("--generations", type=int, help="hola generations (default 5)")
    p_train.add_argument(
        "--init-sp-steps",
        type=int,
        help="self-play budget of each initial hola population member; rounds up to whole PPO batches (default 50000)",
    )
    p_train.add_argument(
        "--teammates",
        help="comma-separated policy refs for the uncontrolled slots of mappo and naht-d "
        "(default: the config's players.unseen_drones)",
    )
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate checkpoints against an unseen zoo")
    p_eval.add_argument("--ckpt", nargs="+", required=True, help="learner policy refs (paths or scripted ids)")
    p_eval.add_argument("--zoo", type=int, required=True)
    p_eval.add_argument("--env", required=True)
    p_eval.add_argument("--episodes", type=int, default=evalkit.DEFAULT_EPISODES)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument(
        "--report", required=True, help="output directory: manifest.json, report.json, report.csv, episodes.ndjson"
    )
    p_eval.add_argument("--zoo-assets", default=None, help="directory of self-play checkpoints (default $PURSUIT_LAB_DIR)")
    p_eval.add_argument("--jobs", type=int, default=1)
    p_eval.set_defaults(fn=cmd_eval)

    p_render = sub.add_parser("render", help="render a trajectory log to SVG")
    p_render.add_argument("--log", required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--env", default=None, help="override the env embedded in the log")
    p_render.set_defaults(fn=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
