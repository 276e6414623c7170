"""The ``<layer>.<name>`` strings the benchmark reads must resolve in ``relbc``.

``bench/spans.py`` and ``bench/child.py`` name the functions they trace and
the spans they count by string.  A renamed or deleted function leaves its
string behind, and the per-layer metric built from it silently reads 0.
"""

import ast
import functools
import importlib
import json
from pathlib import Path

import relbc

ROOT = Path(__file__).resolve().parent.parent
LAYERS = {p.stem for p in Path(relbc.__file__).parent.glob("*.py")} - {"__init__"}

# Names the benchmark still reads that no longer exist in the package.
STALE = {
    "attacks.early_binding_advantage",
    "attacks.per_channel_flag_prob",
    "measurement.pure_density",
    "measurement.sample_outcome",
    "protocol.measure_all",
    "spectra.grid_from_spec",
    "window.build_offset_window",
    "window.perp_prob",
}


def _bench_names() -> set[str]:
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    names = set()
    for path in (ROOT / "bench" / "spans.py", ROOT / "bench" / "child.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if (len(parts) > 1 and parts[0] in LAYERS
                        and all(p.isidentifier() for p in parts)):
                    names.add(node.value)
    return names - metrics


def _resolves(name: str) -> bool:
    layer, *path = name.split(".")
    try:
        functools.reduce(getattr, path, importlib.import_module(f"relbc.{layer}"))
    except AttributeError:
        return False
    return True


def test_bench_names_resolve_but_the_known_stale_ones():
    names = _bench_names()
    unresolved = {n for n in names if not _resolves(n)}
    assert unresolved == STALE
    assert len(names - unresolved) == 20, sorted(names - unresolved)
