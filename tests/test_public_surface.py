"""The package's public names resolve: every export exists, every name the
package root imports is exported by its module, and pruned names stay gone."""

import ast
import importlib
from pathlib import Path

import gradplay

MODULES = ("bounds", "dynamics", "errors", "game", "harness", "network")

PRUNED = {
    "game": ("local_gradient", "game_to_dict", "game_from_dict", "save_game", "load_game"),
    "network": ("graph_from_edgelist",),
}


def exported(module):
    """``module.__all__``; ``errors`` has none and exports the classes it defines."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {
        name
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    }


def test_public_surface_resolves():
    for name in MODULES:
        module = importlib.import_module(f"gradplay.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"gradplay.{name}.__all__ names missing attributes {missing}"

    imports = [
        node
        for node in ast.parse(Path(gradplay.__file__).read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
    ]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        module = importlib.import_module(f"gradplay.{node.module}")
        unexported = {alias.name for alias in node.names} - exported(module)
        assert not unexported, f"gradplay imports {unexported} not exported by {node.module}"

    for name, pruned in PRUNED.items():
        module = importlib.import_module(f"gradplay.{name}")
        for attr in pruned:
            assert not hasattr(module, attr) and not hasattr(gradplay, attr)
    assert not hasattr(gradplay.StepSizePlan, "to_json")
    assert not hasattr(gradplay.RateComparison, "to_json")
