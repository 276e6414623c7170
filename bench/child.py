"""One workload in one fresh process: set-up, timed closed loop, gate, trace.

Run by ``run.py``; writes its raw measurements as JSON to ``--result``.
Set-up is timed from ``--spawn``, the parent's monotonic clock reading
taken just before this process was started, through ``import relbc``,
op-list generation and the untimed warm-up.  The timed loop is a closed
loop with one client: each op is one in-process ``relbc.cli.main(argv)``
call, issued when the previous one has returned.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from gate import Gate, count_rows
from ops import BLOCK_SIZE, GUARDED_CASE, MIN_BLOCKS, WARMUP_OPS, make_ops

ROOT = Path(__file__).resolve().parent.parent

# The tail percentile needs at least 10 ops beyond it.
MIN_OPS = 11
MIN_TRACED_OPS = 2


def import_relbc():
    """Import relbc from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import relbc

    src = (ROOT / "src").resolve()
    if src not in Path(relbc.__file__).resolve().parents:
        raise ImportError(f"relbc imported from {relbc.__file__}, not from {src}")
    return relbc


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if one is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(relbc) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "relbc": relbc.__version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def warm_grids(relbc, ops) -> None:
    """Build every grid the op list needs once, filling the quadrature-rule cache."""
    seen = set()
    for op in ops:
        cfg = op["config"]
        if op["cmd"] == "sweep":
            t = max(cfg["times"])
            wanted = [([relbc.make_amplitude(s, cfg["k_c"] * d, d)], t)
                      for s in cfg["shapes"] for d in cfg["deltas"]]
        elif op["cmd"] in ("run", "attack"):
            shape = cfg.get("shape", "rectangular")
            wanted = [([relbc.make_amplitude(shape, cfg["k1"], cfg["delta"]),
                        relbc.make_amplitude(shape, cfg["k2"], cfg["delta"])], cfg["t_open"])]
        else:
            wanted = []
        for amps, t in wanted:
            key = (tuple(a.support for a in amps), t)
            if key not in seen:
                seen.add(key)
                relbc.grid_for_amplitudes(amps, T=t)


def preflight(relbc, case: dict) -> dict:
    """Dense-memory estimate for a protocol case, made without running it."""
    amps = [relbc.make_amplitude("rectangular", case[k], case["delta"]) for k in ("k1", "k2")]
    n = relbc.grid_for_amplitudes(amps, T=case["t_open"]).size
    dense = n * n * 16  # one complex128 n x n matrix
    povm = 3 * dense  # M1, M2 and M_perp held at once
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "case": "protocol two carriers, T*delta = 1e4",
        "config": case,
        "n": n,
        "dense_matrix_bytes": dense,
        "povm_bytes": povm,
        "bytes_label": "computed",
        "memory_bytes": memory,
        "status": "oom-guarded" if povm > memory else "fits",
        "launched": False,
    }


class Runner:
    """Writes configs, issues ops through the CLI and gates their output."""

    def __init__(self, relbc, ops, block: int, seed: int, scratch: Path):
        self.cli = relbc.cli
        self.ops = ops
        self.block = block
        self.seed = seed
        self.gate = Gate(seed)
        self.out = scratch / "out.txt"
        self.paths = []
        for i, op in enumerate(ops):
            path = None
            if op["config"] is not None:
                path = scratch / f"op{i:04d}.json"
                path.write_text(json.dumps(op["config"]))
            self.paths.append(path)

    def argv(self, op: dict, path) -> list[str]:
        argv = [op["cmd"], "--seed", str(self.seed), "--out", str(self.out)]
        if path is not None:
            argv += ["--config", str(path)]
        return argv + op["args"]

    def call(self, op: dict, path) -> int:
        try:
            return self.cli.main(self.argv(op, path))
        except Exception:  # an op that crashes counts as failed; keep measuring
            traceback.print_exc()
            return -1

    def run_op(self, i: int, tracer=None) -> dict:
        """Time one op, then gate it with the clock stopped."""
        k = i % len(self.ops)
        op, path = self.ops[k], self.paths[k]
        self.out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        code = self.call(op, path)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        text = self.out.read_text() if self.out.exists() else ""
        problems = self.gate.check(k, op, code, text)
        for p in problems:
            print(f"gate: op {k} ({op['cmd']}): {p}", file=sys.stderr)
        return {
            "op": k,
            "wall_s": wall,
            "rows": count_rows(op, text) if code == 0 else 0,
            "out_bytes": len(text.encode()),
            "failed": bool(problems),
        }

    def more(self, timed: float, seconds: float, done: int, min_ops: int) -> bool:
        """Keep going until the time is up, with enough ops and whole blocks."""
        return (timed < seconds or done < max(min_ops, MIN_BLOCKS * self.block)
                or done % self.block != 0)

    def loop(self, seconds: float, min_ops: int) -> list[dict]:
        """Closed loop: next op only after the previous one returned."""
        done, timed = [], 0.0
        while self.more(timed, seconds, len(done), min_ops):
            rec = self.run_op(len(done))
            timed += rec["wall_s"]
            done.append(rec)
        return done

    def paired_loop(self, seconds: float, min_ops: int, tracer):
        """Each op twice, untraced and traced, alternating which goes first.

        The untraced calls pass through the installed wrappers with
        recording off, which costs one flag test per call.
        """
        untraced, traced, timed = [], [], 0.0
        while self.more(timed, seconds, len(traced), min_ops):
            i = len(traced)
            order = (None, tracer) if i % 2 == 0 else (tracer, None)
            for t in order:
                rec = self.run_op(i, t)
                timed += rec["wall_s"]
                (untraced if t is None else traced).append(rec)
        return untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    relbc = import_relbc()
    import relbc.cli  # noqa: F401  (the ops' entry point)

    scratch = Path(args.scratch)
    ops = make_ops(args.workload, args.seed)
    runner = Runner(relbc, ops, BLOCK_SIZE[args.workload], args.seed, scratch)
    warm_grids(relbc, ops)
    warm = WARMUP_OPS[args.workload]
    warm_path = None
    if warm["config"] is not None:
        warm_path = scratch / "warmup.json"
        warm_path.write_text(json.dumps(warm["config"]))
    if runner.call(warm, warm_path) != 0:
        print("warm-up op failed", file=sys.stderr)
        return 2
    result = {"setup_s": time.monotonic() - args.spawn}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    result["env"] = environment(relbc)
    if args.workload == "attack" and args.trace:
        # once per traced run, after set-up and outside the timed loop: the
        # grid it builds needs a cold 5200-node rule, several seconds
        result["preflight"] = preflight(relbc, GUARDED_CASE)

    if not args.trace:
        result["ops"] = runner.loop(args.seconds, MIN_OPS)
    else:
        import spans

        tracer = spans.Tracer()
        result["wrapped"] = spans.install(tracer)
        untraced, traced = runner.paired_loop(args.seconds, MIN_TRACED_OPS, tracer)
        n = len(traced)
        metrics = spans.layer_metrics(tracer.spans, n, sum(r["out_bytes"] for r in traced))
        traced_wall = sum(r["wall_s"] for r in traced)
        untraced_wall = sum(r["wall_s"] for r in untraced)
        metrics["trace.overhead_s"] = ((traced_wall - untraced_wall) / n, "s/op")
        metrics["trace.op_wall_s"] = (traced_wall / n, "s/op")
        result["ops"] = untraced + traced
        result["traced_ops"] = n
        result["trace_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["per_call"] = spans.per_call_table(tracer.spans, (
            "window.build_window", "measurement.state_povm", "measurement.support_povm",
            "measurement.outcome_dist", "protocol.ProtocolContext.__init__",
        ))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
