"""The benchmark's tracer wraps package functions by name; every name it
wraps or replaces must exist, or a traced benchmark run fails."""

import ast
import importlib
import pathlib

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
