"""pursuit-lab benchmark: one workload, one run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics, with `--trace 1` the per-layer metrics (see
bench/README.md). The line before it carries the environment and the
digest of the deterministic outputs. A full record is written to
`bench/out/`, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

#: BLAS threads for this process. One thread keeps the PPO update times
#: steady: with default OpenBLAS threading, self-play learner transitions/s
#: swung about 25 % over three back-to-back runs on a 2-CPU machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit() -> str | None:
    """HEAD's commit in a git work tree, when HEAD or its branch ref is a plain file."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        return (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pursuit_lab").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "pursuit_lab" / "__init__.py").is_file():
        print(f"error: no pursuit_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from hostclock import HostClock

    with HostClock() as clock:
        return _run(argv, clock, t0)


def _run(argv, clock, t0: float) -> int:
    """The run, with `clock` running since just after `t0`, the start of the imports."""
    import measure
    import workloads

    import_s = clock.scaled(t0, time.perf_counter())
    import pursuit_lab

    if Path(pursuit_lab.__file__).resolve().parent != ROOT / "src" / "pursuit_lab":
        print(f"error: imported pursuit_lab from {pursuit_lab.__file__}", file=sys.stderr)
        return 2
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        clock.stop()  # the spans hold wall time, with no reference samples inside them
        result = measure.run_traced(workload, args.seed, spans_path=OUT / f"{stem}.spans.npz")
        specs = measure.per_layer_specs()
    else:
        result = measure.run_untraced(workload, args.seed, args.seconds, clock, import_s=import_s)
        specs = measure.END_TO_END

    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "digest": result.digest,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_frac": result.failed / result.attempted,
        "metrics": result.metrics,
        "detail": result.detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    info = {k: record[k] for k in ("workload", "seed", "digest", "failed_frac")}
    print("bench " + json.dumps({**info, "environment": env}))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit, _ in specs},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
