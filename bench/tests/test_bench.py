"""Tests for the benchmark's own code: op lists, span arithmetic, the gate."""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import gate  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
from relbc import cli  # noqa: E402


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert ops.make_ops(workload, 5) == ops.make_ops(workload, 5)
    if workload != "validate":
        assert ops.make_ops(workload, 5) != ops.make_ops(workload, 6)


def test_sweep_ops_stay_in_range():
    for op in ops.make_ops("sweep", 3):
        cfg = op["config"]
        for d, t in itertools.product(cfg["deltas"], cfg["times"]):
            assert ops.SWEEP_TD[0] * 0.999 <= d * t <= ops.SWEEP_TD[1] * 1.001


def test_block_rates_cover_whole_blocks_only():
    import run

    recs = [{"rows": r, "wall_s": w} for r, w in
            [(2, 1.0), (2, 1.0), (6, 1.0), (2, 1.0), (1, 0.5), (1, 1.5), (9, 9.0)]]
    assert run.block_rates(recs, 2) == [2.0, 4.0, 1.0]


def _span(name, start, end, parent=None, op=0, **attrs):
    return spans.Span(name, start, end, parent, op, attrs)


def test_self_times_on_synthetic_tree():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("window.build_window", 1.0, 4.0, parent=0, key=("grid", 1.0), bytes=8),
        _span("measurement.state_povm", 5.0, 9.0, parent=0),
        _span("window.build_window", 6.0, 7.0, parent=2, key=("grid", 1.0), bytes=8),
        # overlapping children: their union, not their sum, is subtracted
        _span("oracle.sine_integral", 11.0, 20.0),
        _span("spectra.sample", 12.0, 15.0, parent=4),
        _span("spectra.sample", 14.0, 16.0, parent=4),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([3.0, 3.0, 3.0, 1.0, 5.0, 3.0, 2.0])
    roots = (0.0 + 10.0) + (20.0 - 11.0)
    metrics = spans.layer_metrics(tree[:4], n_ops=2, out_bytes=100)
    layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(10.0 / 2)
    assert metrics["window.build_s"][0] == pytest.approx((3.0 + 1.0) / 2)
    assert metrics["window.build_calls"][0] == 1.0
    assert metrics["window.build_bytes"][0] == 8.0
    assert metrics["window.build_useful_ratio"][0] == 0.5  # the same (grid, T) twice
    assert metrics["cli.out_bytes"] == (50.0, "B/op")
    # without overlap the self times of a tree add up to its root's duration;
    # the overlapping second of the children is in both children's own time
    assert sum(own) == pytest.approx(roots + 1.0)


def test_traced_op_self_times_add_up(tmp_path):
    """Install the wrappers in a fresh interpreter and trace one real op."""
    script = f"""
import json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]
import relbc.cli, spans
tracer = spans.Tracer()
spans.install(tracer)
cfg = {str(tmp_path / 'c.json')!r}
open(cfg, 'w').write(json.dumps({{"shapes": ["rectangular"], "deltas": [1.0], "times": [1.0, 10.0]}}))
tracer.begin_op(0)
code = relbc.cli.main(["sweep", "--config", cfg, "--out", {str(tmp_path / 'o.csv')!r}])
tracer.end_op()
roots = [s for s in tracer.spans if s.parent is None]
own = spans.self_times(tracer.spans)
print(json.dumps({{"code": code, "roots": [s.name for s in roots],
                  "root_s": sum(s.end - s.start for s in roots), "self_s": sum(own),
                  "names": sorted({{s.name for s in tracer.spans}})}}))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["code"] == 0
    assert res["roots"] == ["cli.main"]
    assert res["self_s"] == pytest.approx(res["root_s"], rel=1e-9)
    # calls bound by ``from .window import ...`` and by module attribute alike
    for name in ("cli.cmd_sweep", "spectra.grid_for_amplitudes",
                 "spectra.gauss_legendre_grid", "spectra.sample",
                 "window.build_window", "window.detect_prob"):
        assert name in res["names"]


def _run(tmp_path, argv):
    out = tmp_path / "out.txt"
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_gate_rejects_injected_corruption(tmp_path):
    op = {"cmd": "validate", "config": None, "args": []}
    g = gate.Gate(seed=0)
    code, text = _run(tmp_path, ["validate"])
    assert g.check(0, op, code, text) == []
    code, text = _run(tmp_path, ["validate", "--inject-corruption"])
    assert code != 0 and g.check(0, op, code, text)
    # the report alone is enough, whatever the exit code says
    assert g.check(0, op, 0, text)


def test_gate_rejects_tampered_sweep_row(tmp_path):
    cfg = {"shapes": ["rectangular"], "deltas": [0.5, 2.0], "times": [0.3, 40.0], "k_c": 10.0}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    op = {"cmd": "sweep", "config": cfg, "args": []}
    g = gate.Gate(seed=0)
    code, text = _run(tmp_path, ["sweep", "--config", str(path)])
    assert g.check(0, op, code, text) == []
    lines = text.splitlines()
    fields = lines[-1].split(",")
    fields[3] = repr(float(fields[3]) + 1e-7)  # p_detect, off by 10x the tolerance
    tampered = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    assert g.check(0, op, code, tampered)
    assert g.check(0, op, code, "\n".join(lines[:-1]) + "\n")  # a missing row


def test_abort_probability_matches_enumeration():
    q = {0: 0.13, 1: 0.02}
    for n, bit in itertools.product((1, 2, 5), (0, 1)):
        strings = [s for s in itertools.product((0, 1), repeat=n) if sum(s) % 2 == bit]
        clean = sum(math.prod(1 - q[b] for b in s) for s in strings) / len(strings)
        assert gate.abort_probability(q[0], q[1], n, bit) == pytest.approx(1 - clean)
    assert gate.abort_probability(0.0, 0.0, 7, 1) == 0.0


def test_binomial_tail():
    assert gate.binomial_tail(0, 10, 0.0) == 1.0
    assert gate.binomial_tail(1, 10, 0.0) == 0.0
    # one abort in 6 runs at p = 1e-3 is unremarkable; 6 of 6 is not
    assert gate.binomial_tail(1, 6, 1e-3) > gate.ABORT_TAIL
    assert gate.binomial_tail(6, 6, 1e-3) < gate.ABORT_TAIL


def test_run_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark must fail and print no result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert not (tmp_path / ".bench_scratch").exists()
