"""The package's public names resolve: every export exists, every name the
package root imports is exported by its module, and pruned names stay gone.
Every module-level private name is used somewhere else in the package."""

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


def defined_names(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def referenced_names(node):
    """Every name ``node`` reads, imports or takes as an attribute."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name


def test_no_dangling_private_names():
    # a module-level _name that no other statement of the package uses is dead
    statements = [
        node
        for path in sorted(Path(gradplay.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    uses = [set(referenced_names(node)) for node in statements]
    dangling = [
        name
        for node, own in zip(statements, uses)
        for name in defined_names(node)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in used for used in uses if used is not own)
    ]
    assert dangling == []


def test_one_json_writer():
    # every JSON text the package writes comes from harness._json_pieces
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(gradplay.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in ("dump", "dumps")
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
        or isinstance(node, ast.ImportFrom)
        and node.module == "json"
        and {alias.name for alias in node.names} & {"dump", "dumps"}
    ]
    assert calls == []
