"""The benchmark's traced path on the two benchmarked subcommands.

``bench/spans.py`` wraps the public functions of every layer and reads
attributes of what some of them return (the dense matrix of a window, the
elements of a POVM).  A change to those names breaks every traced op of the
benchmark while the untraced program still works, so one small ``attack``
op and one ``validate`` op are traced here, in a fresh interpreter.
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
metrics = spans.layer_metrics(tracer.spans, 2, 0)
print(json.dumps({{"codes": codes, "names": sorted({{s.name for s in tracer.spans}}),
                  "povm_bytes": metrics["measurement.povm_bytes"][0]}}))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["codes"] == [0, 0]
    for name in ("cli.cmd_attack", "cli.cmd_validate", "measurement.state_povm",
                 "measurement.support_povm", "measurement.outcome_dists",
                 "window.build_window", "oracle.povm_validity_bruteforce"):
        assert name in res["names"]
    assert res["povm_bytes"] > 0
