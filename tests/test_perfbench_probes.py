"""The benchmark's tracer wraps package functions by name; every name it
wraps or replaces must exist, or a traced benchmark run fails.  Its probes
also read what a run returns, which a traced run of the child checks."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np

from tumorhs import config, limit

CHILD = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def probe_targets(source: str) -> list:
    """(module, attribute) of every tracer.wrap / tracer.replace call; a name
    given by a loop variable expands to the loop's literal tuple."""
    tree = ast.parse(source)
    loops = {node.target.id: [ast.literal_eval(e) for e in node.iter.elts]
             for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
             and isinstance(node.iter, (ast.Tuple, ast.List))}
    targets = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("wrap", "replace")):
            continue
        owner = node.func.value
        owner_name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
        if owner_name != "tracer":
            continue
        module, name = node.args[:2]
        names = [name.value] if isinstance(name, ast.Constant) else loops[name.id]
        targets += [(module.id, n) for n in names]
    return targets


def test_every_probe_target_exists():
    targets = probe_targets(CHILD.read_text(encoding="utf-8"))
    assert ("monitors", "compute_report") in targets
    assert ("config", "build_setup") in targets
    missing = [f"{module}.{name}" for module, name in targets
               if not hasattr(importlib.import_module(f"tumorhs.{module}"), name)]
    assert not missing, f"perfbench/child.py probes names tumorhs lacks: {missing}"


SMALL_RUN = """
[model]
gamma = 12
[grid]
dimension = 1
box_half_width = 2.6
cells = 96
[initial]
builder = plateau
theta = 0.4
radius = 0.6
edge_width = 0.25
[barrier]
radius_slack = 1.3
[time]
horizon = 0.06
snapshot_dt = 2e-3
[monitors]
zeta_center = 0.0
zeta_radius = 0.8
zeta_t_center = 0.03
zeta_t_halfwidth = 0.02
"""


def test_child_measures_a_streamed_run(tmp_path):
    # the unmodified benchmark child, traced, on a small 1D run: what its
    # probes read of a run (steps, dts, the first and the last density) must
    # still be there when the run streams its snapshots
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_RUN, encoding="utf-8")
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    root = CHILD.parent.parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("TUMORHS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = ["run", "--config", str(cfg_path), "--out", "{out}"]
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--command", json.dumps(command),
         "--seconds", "0.5", "--trace", "1", "--scratch", str(scratch),
         "--trace-out", str(tmp_path / "trace"), "--t0", repr(time.perf_counter())],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads((scratch / "child.json").read_text(encoding="utf-8"))
    rounds = result["rounds"]
    assert rounds and all(r["exit_code"] == 0 for r in rounds)
    assert all(r["steps"] > 0 for r in rounds)
    assert result["mass_balance_failures"] == []
    held = limit.run_once(config.parse_config_text(SMALL_RUN, env={}))[0]
    with np.load(scratch / "captured.npz") as captured:
        assert len(captured["h"]) == len(rounds)
        for i in range(len(rounds)):
            assert np.array_equal(captured[f"n0_{i}"], held.n[0])
            assert np.array_equal(captured[f"nT_{i}"], held.n[-1])
