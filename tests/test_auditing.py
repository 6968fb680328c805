"""The audit lives apart from the run path and reaches it only through
``gradplay.harness``'s module globals, the names a profiler or a test patches
there to see the calls of both."""

import ast
import builtins
from pathlib import Path

import pytest

from gradplay import DivergenceError, audit, dynamics, harness

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


@pytest.mark.parametrize("alpha_override", [None, 0.75], ids=["default", "diverging"])
def test_grouped_cells_give_the_bytes_of_runs_alone(monkeypatch, alpha_override):
    # each of the 45 non-degenerate cells makes its own harness.run call as
    # one cell of its size's Lockstep group; at alpha 0.75 some diverge, each
    # at its own iteration, and the others reach the horizon
    calls = []
    run = harness.run

    def recorded(*args, **kwargs):
        try:
            outcome = run(*args, **kwargs)
        except DivergenceError as exc:
            calls.append((args, kwargs, exc))
            raise
        calls.append((args, kwargs, outcome))
        return outcome

    monkeypatch.setattr(harness, "run", recorded)
    audit(alpha_override=alpha_override)
    assert len(calls) == 45
    assert all(isinstance(kwargs["batch"], dynamics.Lockstep) for _, kwargs, _ in calls)
    stops = []
    for args, kwargs, outcome in calls:
        try:
            alone = dynamics.run(*args, max_iters=kwargs["max_iters"], tol=kwargs["tol"])
        except DivergenceError as exc:
            alone = exc
        assert type(outcome) is type(alone)
        if isinstance(alone, DivergenceError):
            stops.append(alone.iteration)
            assert (outcome.iteration, str(outcome)) == (alone.iteration, str(alone))
            assert outcome.trace.tobytes() == alone.trace.tobytes()
        else:
            for got, expected in zip(outcome, alone):
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    if alpha_override is None:
        assert stops == []
    else:
        assert 0 < len(stops) < 45 and len(set(stops)) > 1
