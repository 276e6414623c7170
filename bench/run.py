"""relbc benchmark: one workload, one fresh child process, one JSON result.

    python3 bench/run.py --workload attack --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it are a readable report.  Exit code 0 only when a result
was printed.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ops import BLOCK_SIZE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# A whole run must end within 180 s; a child gets what is left of this.
DEADLINE_S = 170.0
# Set-up is repeated in fresh processes (up to SETUP_SAMPLES, the median is
# reported) while the samples so far leave room within SETUP_BUDGET_S.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 12.0
TAIL_BEYOND = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """Cap BLAS threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for key in BLAS_ENV:
        try:
            cur = int(env.get(key, nproc))
        except ValueError:
            cur = nproc
        env[key] = str(max(1, min(cur, nproc)))
    return env


def spawn_child(args, scratch: Path, deadline: float, setup_only=False) -> dict:
    result = scratch / ("setup.json" if setup_only else "result.json")
    result.unlink(missing_ok=True)
    spawn = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawn", repr(spawn), "--scratch", str(scratch), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("child process overran the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result.exists():
        raise RuntimeError(f"child process exited with code {code}")
    return json.loads(result.read_text())


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    n = len(walls)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} ops: the tail needs more than {TAIL_BEYOND}")
    k = n - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND values above it
    return sorted(walls)[k - 1], 100.0 * k / n


def block_rates(ops: list[dict], block: int) -> list[float]:
    """Rows per second of op wall time in each whole block of the run."""
    rates = []
    for b in range(0, len(ops) - block + 1, block):
        part = ops[b:b + block]
        rates.append(sum(r["rows"] for r in part) / sum(r["wall_s"] for r in part))
    return rates


def end_to_end(child: dict, setups: list[float], block: int) -> tuple[dict, list[str]]:
    ops = child["ops"]
    walls = [r["wall_s"] for r in ops]
    tail_s, tail_pct = tail(walls)
    rates = block_rates(ops, block)
    failed = sum(r["failed"] for r in ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # the median over blocks, so a burst of load on the shared machine
        # moves one block's rate, not the run's
        "rows_per_s": (statistics.median(rates), "rows/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    notes = [
        f"ops {len(ops)}  timed wall {sum(walls):.3f} s  rows {sum(r['rows'] for r in ops)}",
        f"rows_per_s is the median of {len(rates)} blocks of {block} ops",
        f"op_tail_s is p{tail_pct:.1f} of {len(ops)} ops ({TAIL_BEYOND} ops beyond it)",
        f"fail_ratio {failed / len(ops):.6g} ratio ({failed} of {len(ops)} ops failed)",
        "setup_s samples " + " ".join(f"{s:.3f}" for s in setups),
    ]
    return metrics, notes


def per_layer(child: dict) -> tuple[dict, list[str]]:
    metrics = {k: (v["value"], v["unit"]) for k, v in child["trace_metrics"].items()}
    layer_sum = sum(v for k, (v, _) in metrics.items()
                    if k.endswith(".self_s") and k.count(".") == 1)
    wall = metrics["trace.op_wall_s"][0]
    notes = [
        f"traced ops {child['traced_ops']}, {child['wrapped']} functions wrapped",
        f"layer self times sum to {layer_sum:.6f} s/op; traced op wall {wall:.6f} s/op "
        f"(difference {wall - layer_sum:.2e} s/op is the loop outside cli.main)",
    ]
    for row in child["per_call"]:
        mixed = "" if row["mixed"] is None else (" mixed" if row["mixed"] else " pure")
        notes.append(f"per call {row['name']}{mixed} n={row['n']}: "
                     f"{row['mean_s']:.4f} s over {row['calls']} calls")
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="relbc benchmark (see bench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".bench_scratch"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        child = spawn_child(args, scratch, deadline)
        if args.trace:
            metrics, notes = per_layer(child)
        else:
            setups = [child["setup_s"]]
            while (len(setups) < SETUP_SAMPLES
                   and sum(setups) + setups[-1] <= SETUP_BUDGET_S):
                setups.append(spawn_child(args, scratch, deadline, setup_only=True)["setup_s"])
            metrics, notes = end_to_end(child, setups, BLOCK_SIZE[args.workload])
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    failed = sum(r["failed"] for r in child["ops"])
    env = child["env"]
    print(f"relbc benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if "preflight" in child:
        print("preflight " + json.dumps(child["preflight"], sort_keys=True))
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(child["ops"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
