"""The audit lives apart from the run path and reaches it only through
``gradplay.harness``'s module globals, the names a profiler or a test patches
there to see the calls of both."""

import ast
import builtins
from pathlib import Path

from gradplay import audit, harness

#: Every name of ``harness`` that the audit calls and that is patched there.
PATCHED = (
    "run",
    "random_game",
    "estimate_constants",
    "build_graph",
    "metropolis_weights",
    "average_property_check",
    "game_mapping",
    "lemma_slack_minima",
    "zdomination_excess",
    "envelope_excess",
)


def test_audit_calls_and_writes_through_harness(tmp_path, monkeypatch):
    calls = dict.fromkeys(PATCHED, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in PATCHED:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    opened = []

    def counted_open(file, mode="r", **kwargs):
        opened.append((Path(file).name, mode))
        return builtins.open(file, mode, **kwargs)

    # a module global named open shadows the builtin for harness alone
    monkeypatch.setattr(harness, "open", counted_open, raising=False)
    report = audit(sizes=(5,), seeds=1, iters=5, out_dir=tmp_path)
    assert report.ok
    assert [name for name, count in calls.items() if not count] == []
    assert ("audit.json", "w") in opened and ("audit.txt", "w") in opened


def test_run_path_holds_no_audit_code():
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name if isinstance(node, ast.Import) else f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert not [name for name in imported if "auditing" in name]
    assert not [name for name in vars(harness) if name.lstrip("_").lower().startswith("audit")]
