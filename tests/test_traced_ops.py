"""The benchmark's traced path on the two benchmarked subcommands.

``bench/spans.py`` wraps the public functions of every layer and reads
attributes of what some of them return (the dense matrix of a window, the
elements of a POVM).  A change to those names breaks every traced op of the
benchmark while the untraced program still works, so one small ``attack``
op and one ``validate`` op are traced here, in a fresh interpreter.  A
context builds its POVM references without a POVM (``support_refs``,
``state_refs``), so a third op calls the two POVM builders the benchmark
annotates directly, on the README carriers' 768-node grid.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ATTACK_CFG = {
    "n_channels": 2, "delta": 1.0, "k1": 12.0, "k2": 10.0, "t_open": 10.0,
    "family": "state", "bit": 0, "adversary": "mixed", "times": [1.0, 10.0],
}


def test_traced_attack_and_validate_ops(tmp_path):
    cfg = tmp_path / "attack.json"
    cfg.write_text(json.dumps(ATTACK_CFG))
    script = f"""
import json, sys
sys.path[:0] = [{str(ROOT / 'bench')!r}, {str(ROOT / 'src')!r}]
import relbc.cli, spans
tracer = spans.Tracer()
spans.install(tracer)
codes = []
for op, argv in enumerate((["attack", "--config", {str(cfg)!r}], ["validate"])):
    tracer.begin_op(op)
    codes.append(relbc.cli.main(argv + ["--out", {str(tmp_path / 'out.txt')!r}]))
    tracer.end_op()
from relbc import measurement, spectra
tracer.begin_op(2)
a1, a2 = spectra.disjoint_pair(12.0, 10.0, 1.0)
grid = spectra.grid_for_amplitudes([a1, a2], T=10.0)
measurement.support_povm(grid, a1.support, a2.support, 10.0)
measurement.state_povm(spectra.sample(a1, grid), spectra.sample(a2, grid), 10.0)
tracer.end_op()
builders = ("measurement.support_povm", "measurement.state_povm")
povm_ops = sorted({{s.op for s in tracer.spans if s.name in builders}})
metrics = spans.layer_metrics(tracer.spans, 3, 0)
print(json.dumps({{"codes": codes, "names": sorted({{s.name for s in tracer.spans}}),
                  "n": grid.size, "povm_ops": povm_ops,
                  "povm_bytes": metrics["measurement.povm_bytes"][0],
                  "build_bytes": metrics["window.build_bytes"][0]}}))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["codes"] == [0, 0]
    assert res["n"] == 768
    for name in ("cli.cmd_attack", "cli.cmd_validate", "measurement.state_povm",
                 "measurement.support_povm", "measurement.outcome_dists",
                 "measurement.support_refs", "measurement.state_refs",
                 "window.build_window", "oracle.povm_validity_bruteforce"):
        assert name in res["names"]
    # the attack and validate ops build no POVM through the two builders
    assert res["povm_ops"] == [2]
    # the two annotations that read the dense matrices: Povm.elements and
    # WindowOperator.matrix
    assert res["povm_bytes"] > 0
    assert res["build_bytes"] > 0
