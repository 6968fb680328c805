"""Configuration-driven experiment runner and batch invariant auditor.

``run_experiment`` reproduces the headline simulation (20 players on a
random tree) or any variant described by an :class:`ExperimentConfig`:
it draws the game and graph, computes the exact constants and the step-size
certificate, runs the iteration with full trace recording, and writes
``trace.csv``, ``summary.txt``, ``summary.json`` and a standalone
``plot.py`` that renders ``plot.svg``.

``audit`` sweeps a matrix of sizes, topologies and seeds and re-verifies
every checkable statement: the game assumptions, the mixing-matrix
properties, the per-iteration inequalities, the running-average recursion,
elementwise domination by the 2x2 comparison matrix, the spectral
cross-checks and the geometric envelope.  Its report is machine-readable
and the CLI maps failures to a nonzero exit status.
"""

from __future__ import annotations

import json
import math
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import bounds
from .dynamics import _BLOCK, TRACE_COLUMNS, IterationTrace, _csv_rows, initial_estimates, run
from .errors import DivergenceError, InadmissibleStepSizeError, PerfectMixingError
from .game import _dump_game, estimate_constants, game_mapping, random_game
from .network import (
    _row_dots,
    average_property_check,
    complete,
    graph_to_edgelist,
    metropolis_weights,
    random_tree,
    ring,
    save_mixing_matrix,
    star,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "AuditCheck",
    "AuditCell",
    "AuditReport",
    "TOPOLOGIES",
    "PRESETS",
    "paper_sim_config",
    "build_graph",
    "run_experiment",
    "audit",
    "lemma_slack_minima",
    "first_lemma_violation",
    "zdomination_excess",
    "envelope_excess",
    "fit_tail_contraction",
    "OUT_DIR_ENV",
]

#: Environment variable naming the default output directory for the CLI.
OUT_DIR_ENV = "GRADPLAY_OUT_DIR"

TOPOLOGIES = ("tree", "ring", "complete", "star")

#: Relative slack below which a per-iteration inequality counts as violated.
SLACK_TOL = 1e-9


#: Accepted value types of each :class:`ExperimentConfig` annotation, and
#: how a refusal names them.
_FIELD_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "float | str": ((int, float, str), 'a number or "auto"'),
    "str": (str, "a string"),
    "bool": (bool, "true or false"),
}


#: Dense ``n x n`` float64 arrays a run holds at its peak, and bytes per
#: trace row (the record, the per-state norms and the analysis; ``trace.csv``
#: is written in blocks): peak RSS above the interpreter's was 9.7 and 8.7
#: arrays at n = 600 and 1200 (tree, 3 steps), and 207 bytes a row at n = 5
#: over 200 000 steps, artifacts written in process.
_DENSE_ARRAYS = 9
_TRACE_ROW_BYTES = 256


def _physical_memory(root="/"):
    """Bytes of memory this process may use, or None where nothing says: the
    smaller of physical memory and the memory limits of the process's cgroups
    and their ancestors (:func:`_cgroup_memory_limits`).  The cgroup files are
    read under ``root``."""
    limits = _cgroup_memory_limits(root)
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        pass
    return min((size for size in limits if size > 0), default=None)


#: Where each cgroup version keeps a memory limit: the controllers field of
#: its ``/proc/self/cgroup`` line, the hierarchy's mount and the file.
_CGROUP_MEMORY_FILES = (
    ("", "sys/fs/cgroup", "memory.max"),
    ("memory", "sys/fs/cgroup/memory", "memory.limit_in_bytes"),
)

#: A cgroup memory limit of at least this is none: v2 writes no limit as ``max``,
#: v1 as 2**63 rounded down to a page (9223372036854771712 with 4 KiB pages).
_NO_CGROUP_LIMIT = 2**62


def _cgroup_memory_limits(root) -> list:
    """The memory limits set on this process's cgroups and on each of their
    ancestors: the cgroup v2 ``memory.max`` (the ``0::`` line of
    ``/proc/self/cgroup``) and the cgroup v1 ``memory.limit_in_bytes`` (the
    line of the ``memory`` controller)."""
    try:
        with open(os.path.join(root, "proc/self/cgroup"), encoding="utf-8") as f:
            lines = [line.rstrip("\n").split(":", 2) for line in f]
    except OSError:
        return []
    limits = []
    for controllers, mount, name in _CGROUP_MEMORY_FILES:
        path = next((line[2] for line in lines if line[1:2] == [controllers]), None)
        if path is None:
            continue
        parts = [part for part in path.split("/") if part]
        if ".." in parts:  # a cgroup outside this namespace's view
            continue
        for depth in range(len(parts) + 1):
            try:
                with open(
                    os.path.join(root, mount, *parts[:depth], name), encoding="utf-8"
                ) as f:
                    limit = int(f.read())
            except (OSError, ValueError):  # absent, or "max"
                continue
            if limit < _NO_CGROUP_LIMIT:
                limits.append(limit)
    return limits


def _check_footprint(n: int, max_iters: int, tol: float = 0.0) -> None:
    """Refuse, before anything is allocated, a run of ``n`` players and
    ``max_iters`` steps whose estimated footprint exceeds the memory it may
    use (:func:`_physical_memory`): it would end in an out-of-memory kill,
    not in an error.  With ``tol > 0`` the run may stop long before
    ``max_iters``, so only the dense arrays count."""
    limit = _physical_memory()
    rows = max_iters + 1 if tol == 0 else 0
    need = _DENSE_ARRAYS * 8 * n * n + _TRACE_ROW_BYTES * rows
    if limit is not None and need > limit:
        gib = need / 2**30 if need < 2**1000 else math.inf  # an int beyond floats
        raise ValueError(
            f"n={n} and max_iters={max_iters} need an estimated {gib:.3g} GiB, "
            f"more than the {limit / 2**30:.3g} GiB of physical memory this process may use"
        )


def _finite(x) -> bool:
    """``math.isfinite``, except that an int beyond the float range is not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit-for-bit.

    ``alpha`` is either a float or the string ``"auto"``, which resolves to
    0.9 times the certified step-size ceiling of the generated game/network
    pair.  ``tol = 0`` runs the full ``max_iters`` horizon.
    """

    n: int = 20
    game_seed: int = 1
    graph_seed: int = 2
    init_seed: int = 3
    coupling_scale: float = 0.2
    topology: str = "tree"
    alpha: float | str = "auto"
    max_iters: int = 1000
    tol: float = 0.0
    check_lemmas: bool = True

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            types, expected = _FIELD_TYPES[f.type]
            # bool is an int subclass: only a bool field takes true/false
            if isinstance(value, bool) != (f.type == "bool") or not isinstance(value, types):
                raise ValueError(f"{f.name} must be {expected}, got {value!r}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}"
            )
        if self.topology == "ring" and self.n < 3:
            raise ValueError("ring topology needs n >= 3")
        if not (_finite(self.coupling_scale) and self.coupling_scale >= 0):
            raise ValueError(f"coupling_scale must be finite and >= 0, got {self.coupling_scale}")
        if isinstance(self.alpha, str):
            if self.alpha != "auto":
                raise ValueError(f'alpha must be a number or "auto", got {self.alpha!r}')
        elif not (_finite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not (_finite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
        _check_footprint(self.n, self.max_iters, self.tol)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown config keys {sorted(unknown)}; known keys: {sorted(known)}"
            )
        config = cls(**doc)
        config.validate()
        return config


def paper_sim_config() -> ExperimentConfig:
    """The headline preset: 20 players, random tree, alpha = 0.05.

    The 0.05 step size follows the published simulation; for games of this
    size it sits far above the certified ceiling (which is O(1e-6) here), so
    the run report flags it as uncertified while the divergence guard stays
    armed.  ``max_iters`` covers convergence to well below 1e-6 relative
    error.
    """
    return ExperimentConfig(
        n=20,
        game_seed=3,
        graph_seed=103,
        init_seed=203,
        coupling_scale=0.2,
        topology="tree",
        alpha=0.05,
        max_iters=10_000,
        tol=0.0,
        check_lemmas=True,
    )


PRESETS = {"paper-sim": paper_sim_config}


def build_graph(topology: str, n: int, seed: int = 0):
    if topology == "tree":
        return random_tree(n, seed)
    if topology == "ring":
        return ring(n)
    if topology == "complete":
        return complete(n)
    if topology == "star":
        return star(n)
    raise ValueError(f"unknown topology {topology!r}")


# ---------------------------------------------------------------------------
# trace analysis helpers


def _normalized_slacks(trace, mu: float, alpha: float, n: int) -> dict:
    """Each recorded inequality's slack normalized by ``1 + |rhs|``, so a
    single tolerance applies across scales.

    Keys come in check order (lemma2, lemma1, lemma3); values are columns
    with NaN where the inequality has no transition (``t = 0``).
    """
    # a diverged run's trace may end in inf or NaN; its slacks stay non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        lhs3 = (1.0 + mu * alpha / n) * trace.avg_distance_to_ne**2
        pairs = {
            "lemma2": (trace.lemma2_slack, trace.grad_norm),
            "lemma1": (trace.lemma1_slack, trace.consensus_violation),
            "lemma3": (trace.lemma3_slack, lhs3),
        }
        return {name: slack / (1.0 + np.abs(slack + lhs)) for name, (slack, lhs) in pairs.items()}


def lemma_slack_minima(trace, mu: float, l: float, alpha: float, n: int) -> dict:
    """Worst normalized slack of each recorded inequality over a trace.

    The averaged-iterate inequality only holds under ``alpha <= mu / l**2``;
    outside that range it is reported but marked inapplicable.
    """
    slacks = _normalized_slacks(trace, mu, alpha, n)
    mins = {
        name: float(np.fmin.reduce(slacks[name], initial=math.inf))
        for name in ("lemma1", "lemma2", "lemma3")
    }
    mins["lemma3_applicable"] = alpha <= mu / l**2
    return mins


def first_lemma_violation(trace, mu, l, alpha, n):
    """First (name, iteration, normalized slack) below ``-SLACK_TOL``, or None.

    Earliest iteration first; within one iteration the order is lemma2,
    lemma1, lemma3.  lemma3 counts only where it applies
    (``alpha <= mu / l**2``).
    """
    slacks = _normalized_slacks(trace, mu, alpha, n)
    if alpha > mu / l**2:
        del slacks["lemma3"]
    table = np.column_stack(list(slacks.values()))
    hits = np.argwhere(table < -SLACK_TOL)  # row-major: by iteration, then check order
    if not len(hits):
        return None
    row, col = hits[0]
    return list(slacks)[col], int(trace.t[row]), float(table[row, col])


def zdomination_excess(trace, z: np.ndarray) -> float:
    """Worst normalized violation of ``z_next <= Z z`` over a trace.

    Nonpositive means the domination held everywhere; compare against
    ``SLACK_TOL``.
    """
    if len(trace) < 2:
        return -math.inf
    zv = np.stack([trace.avg_distance_to_ne**2, trace.consensus_violation**2], axis=1)
    # a stack of 2x2 matrix-vector products, one per transition
    bound = (z @ zv[:-1, :, None])[..., 0]
    return float(np.max((zv[1:] - bound) / (1.0 + np.abs(bound))))


def envelope_excess(trace, z: np.ndarray, lambda1: float, lambda2: float) -> float:
    """Worst normalized excess of the squared error over its geometric envelope.

    The envelope constant is assembled from the comparison matrix and the
    ``t = 0`` error components:

        K = 4 / (lambda1 - lambda2) * ((Z11 + Z21) * avg_err0^2
                                       + (Z12 + Z22) * cons_viol0^2)

    and the bound checked is ``dist(t)^2 <= K * lambda1**(t-1)`` for
    ``t >= 1``.  Nonpositive return means it held everywhere.
    """
    if len(trace) < 2:
        return -math.inf
    z10 = trace.avg_distance_to_ne[0] ** 2
    z20 = trace.consensus_violation[0] ** 2
    k = 4.0 / (lambda1 - lambda2) * ((z[0, 0] + z[1, 0]) * z10 + (z[0, 1] + z[1, 1]) * z20)
    env = k * lambda1 ** (trace.t[1:] - 1.0)
    return float(np.max((trace.distance_to_ne[1:] ** 2 - env) / (1.0 + env)))


def fit_tail_contraction(trace, burn_frac: float = 0.5, min_points: int = 20):
    """Least-squares line through ``log(dist^2)`` over the trace tail.

    Returns ``(slope, r_squared, n_points)`` or ``None`` when the tail is
    too short or already at numerical zero.  ``exp(slope)`` estimates the
    per-step squared-error contraction ratio.
    """
    if not len(trace):
        return None
    floor = max(1e-13 * trace.distance_to_ne[0], 1e-300)
    tail = trace[int(len(trace) * burn_frac) :]
    tail = tail[tail.distance_to_ne > floor]
    if len(tail) < min_points:
        return None
    t = tail.t.astype(float)
    y = 2.0 * np.log(tail.distance_to_ne)
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2, len(tail)


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class ExperimentReport:
    """Everything ``run_experiment`` measured, plus the trace itself."""

    config: ExperimentConfig
    mu: float
    l: float
    kappa: float
    sigma: float
    terms: tuple | None
    alpha_max: float | None
    alpha: float
    alpha_admissible: bool | None
    alpha_note: str
    q: float | None
    iterations: int
    initial_distance: float
    final_distance: float
    final_relative_error: float
    fitted_contraction_ratio: float | None
    fit_r_squared: float | None
    lemma_min_slacks: dict
    first_violation: tuple | None
    diverged: bool
    runtime_seconds: float
    ok: bool
    trace: list = field(repr=False, default_factory=list)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}
        doc["config"] = self.config.to_dict()
        doc["terms"] = list(self.terms) if self.terms is not None else None
        doc["first_violation"] = list(self.first_violation) if self.first_violation else None
        return doc

    def to_text(self) -> str:
        lines = [
            "# experiment summary",
            "# relative error = ||x_t - x*||_Fro / ||x_0 - x*||_Fro, the distance of the",
            "# estimation matrix to the consensual equilibrium matrix normalized by its",
            "# initial value (normalization chosen here; no canonical definition exists).",
        ]
        doc = self.to_dict()
        config = doc.pop("config")
        for key, value in config.items():
            lines.append(f"config.{key}: {value!r}")
        for key, value in doc.items():
            lines.append(f"{key}: {value!r}")
        return "\n".join(lines) + "\n"


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render log10(relative error) vs iteration from trace.csv into plot.svg.

Standard library only: the plot is one SVG polyline.
\"\"\"
import csv
import math
import os

WIDTH, HEIGHT, PAD = 640, 420, 60

here = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(here, "trace.csv")) as f:
    rows = list(csv.DictReader(f))
d0 = float(rows[0]["distance_to_ne"]) or 1.0
points = []
for r in rows:
    # clamp zero error (a run that starts at consensus) onto the log scale
    rel = max(float(r["distance_to_ne"]) / d0, 1e-300)
    if math.isfinite(rel):
        points.append((int(r["t"]), math.log10(rel)))
ts = [t for t, _ in points] or [0]
ys = [y for _, y in points] or [0.0]


def sx(t):
    return PAD + (WIDTH - 2 * PAD) * (t - min(ts)) / ((max(ts) - min(ts)) or 1)


def sy(y):
    return HEIGHT - PAD - (HEIGHT - 2 * PAD) * (y - min(ys)) / ((max(ys) - min(ys)) or 1)


polyline = " ".join(f"{sx(t):.2f},{sy(y):.2f}" for t, y in points)
svg = f\"\"\"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" \\
viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">
<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>
<rect x="{PAD}" y="{PAD}" width="{WIDTH - 2 * PAD}" height="{HEIGHT - 2 * PAD}" \\
fill="none" stroke="black"/>
<polyline points="{polyline}" fill="none" stroke="#1f77b4" stroke-width="1.2"/>
<text x="{WIDTH / 2}" y="{PAD / 2}" text-anchor="middle">distributed gradient play</text>
<text x="{WIDTH / 2}" y="{HEIGHT - PAD / 4}" text-anchor="middle">iteration</text>
<text x="{PAD / 4}" y="{HEIGHT / 2}" text-anchor="middle" \\
transform="rotate(-90 {PAD / 4} {HEIGHT / 2})">log10 relative error</text>
<text x="{PAD}" y="{HEIGHT - PAD + 16}" text-anchor="middle">{min(ts)}</text>
<text x="{WIDTH - PAD}" y="{HEIGHT - PAD + 16}" text-anchor="middle">{max(ts)}</text>
<text x="{PAD - 4}" y="{PAD}" text-anchor="end">{max(ys):.1f}</text>
<text x="{PAD - 4}" y="{HEIGHT - PAD}" text-anchor="end">{min(ys):.1f}</text>
</svg>
\"\"\"
out = os.path.join(here, "plot.svg")
with open(out, "w") as f:
    f.write(svg)
print("wrote", out)
"""


def _json_safe(value):
    """``value`` with every non-finite float in it, at any depth, as None."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json_text(doc) -> str:
    """``doc`` as strict, indented JSON text ending in a newline; a
    non-finite float becomes ``null``.  Every JSON artifact and every
    ``--json`` output is this text."""
    return json.dumps(_json_safe(doc), indent=2, allow_nan=False) + "\n"


_CEILING_NOTE = (
    "alpha={alpha} exceeds the certified ceiling alpha_max={ceiling!r}; "
    "geometric-rate certificate does not apply (divergence guard stays active)"
)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(_json_text(doc))


def _resolve_alpha(alpha, mu, l, sigma, n, ceiling_note=_CEILING_NOTE):
    """Resolve ``alpha`` (``"auto"`` or a number) against the certificate.

    Returns ``(alpha, terms, ceiling, admissible, note, plan)``: ``plan`` is
    the :class:`~gradplay.bounds.StepSizePlan` of an admissible alpha and
    None otherwise; ``terms``, ``ceiling`` and ``admissible`` are None when
    perfect mixing leaves no ceiling.  ``"auto"`` is ``0.9 * ceiling``.  An
    alpha at or above the ceiling gets ``ceiling_note`` formatted with
    ``alpha`` and ``ceiling``; one below it whose ``q`` rounds to 1 (``"auto"``
    included) gets the certificate's refusal; either way the run goes ahead.
    """
    try:
        terms = bounds.step_size_terms(mu, l, sigma, n)
    except PerfectMixingError as exc:
        note = f"step-size ceiling unavailable: {exc}"
        if alpha == "auto":
            raise PerfectMixingError("alpha='auto' needs a step-size ceiling, but " + note)
        return float(alpha), None, None, None, note, None
    ceiling = min(terms)
    auto = alpha == "auto"
    alpha = 0.9 * ceiling if auto else float(alpha)
    try:
        plan = bounds.step_size_plan(mu, l, sigma, n, alpha)
    except InadmissibleStepSizeError as exc:
        note = str(exc) if alpha < ceiling else ceiling_note.format(alpha=alpha, ceiling=ceiling)
        return alpha, terms, ceiling, False, note, None
    if auto:
        return alpha, terms, ceiling, True, "alpha resolved to 0.9 * alpha_max", plan
    return alpha, terms, ceiling, True, "explicit alpha below the certified ceiling", plan


#: Floats of ``game.json`` and ``trace.csv`` text, ``c.size + 7 * (max_iters +
#: 1)``, from which :func:`run_experiment` writes both in a forked child while
#: it runs.  Whole jobs on a random tree, one process per side, 10 alternating
#: rounds, medians, forked minus in process (2 vCPUs, one BLAS thread): +2.1
#: ms at n = 20 over 1,000 steps (7,407 floats), -1.4 ms over 1,500 (10,907),
#: -8.2 ms over 2,000 (14,407); over 80 steps, -5.8 ms at n = 100 (10,567)
#: and -12.9 ms at n = 125 (16,192).
_FORK_FLOATS = 12_000


@contextmanager
def _write_aside(game, out_dir, fork):
    """Write ``game.json`` and ``trace.csv`` into ``out_dir`` while the block
    runs; the block gets the ``rows`` callback of :func:`~gradplay.dynamics.run`.

    Both go under temporary names next to their artifacts: the game and the
    trace header first, then each block of rows as the text of
    :func:`~gradplay.dynamics._csv_rows`.  Without ``fork`` the callback
    appends the block; with it, the callback sends the rows down a pipe to
    a forked child that writes both parts (and always leaves through
    ``os._exit``), until the child stops reading (it failed).  When the
    block ends, the pipe is closed, the child reaped and the parts renamed;
    a failed child raises ``OSError``.  When the block raises, the child is
    killed and reaped and the parts removed.
    """
    names = ("game.json", "trace.csv")
    parts = [os.path.join(out_dir, f".{name}.{os.getpid()}.part") for name in names]

    def start():  # game.json, then the trace.csv header
        with open(parts[0], "w", encoding="utf-8") as f:
            _dump_game(game, f)
        with open(parts[1], "w", encoding="utf-8") as f:
            f.write(",".join(TRACE_COLUMNS) + "\n")

    def append(block):
        with open(parts[1], "a", encoding="utf-8") as f:
            f.write(_csv_rows(block))

    def send(block):
        data = memoryview(block.tobytes())
        try:
            while data and pipe:
                data = data[os.write(pipe[0], data) :]
        except BrokenPipeError:  # the child failed: its exit status says how
            os.close(pipe.pop())

    pid, pipe = None, []  # the child, and its pipe's write end until closed
    try:
        if not fork:
            start()
        else:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 255
                try:
                    os.close(write_end)
                    start()
                    size = _BLOCK * IterationTrace.itemsize  # one block of run() a read
                    with os.fdopen(read_end, "rb") as rows:
                        for chunk in iter(lambda: rows.read(size), b""):
                            append(np.frombuffer(chunk, IterationTrace))
                    code = 0
                except OSError as exc:
                    code = exc.errno if exc.errno and exc.errno < 255 else 255
                finally:
                    os._exit(code)
            os.close(read_end)
            pipe.append(write_end)
        yield send if fork else append
        if pipe:
            os.close(pipe.pop())
        if fork:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = None
            # the child opens the trace.csv part only once game.json is written
            path = os.path.join(out_dir, names[os.path.exists(parts[1])])
            if 0 < code < 255:
                raise OSError(code, os.strerror(code), path)
            if code:
                raise OSError(f"could not write {path}: its writer process ended with status {code}")
        for part, name in zip(parts, names):
            os.replace(part, os.path.join(out_dir, name))
    except BaseException:
        if pipe:
            os.close(pipe.pop())
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            try:
                os.remove(part)
            except FileNotFoundError:
                pass
        raise


def run_experiment(config: ExperimentConfig, out_dir=None, game=None, graph=None, x0=None):
    """Run one configured experiment; optionally write its artifacts.

    ``game``, ``graph`` and ``x0`` override the seeded constructions (useful
    for hand-built cases); everything else comes from ``config``.  With
    ``out_dir`` set, makes it and writes ``trace.csv``, ``summary.txt``,
    ``summary.json``, ``plot.py``, plus the game, graph and mixing-matrix
    documents.  ``game.json`` and ``trace.csv`` are written while the run
    goes on (:func:`_write_aside`), by a child process where ``os.fork``
    exists and their text holds at least ``_FORK_FLOATS`` floats; the call
    reaps it before it returns or raises.
    """
    config.validate()
    t_start = time.perf_counter()
    if game is None:
        game = random_game(config.n, config.game_seed, config.coupling_scale)
    if graph is None:
        graph = build_graph(config.topology, config.n, config.graph_seed)
    if graph.n != game.n:
        raise ValueError(f"graph has {graph.n} nodes but game has {game.n} players")
    if out_dir is None:
        return _measure(config, game, graph, x0, t_start, None)[0]
    fork = game.c.size + 7 * (config.max_iters + 1) >= _FORK_FLOATS and hasattr(os, "fork")
    os.makedirs(out_dir, exist_ok=True)
    with _write_aside(game, out_dir, fork) as rows:
        report, w = _measure(config, game, graph, x0, t_start, rows)
        with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as f:
            f.write(report.to_text())
        _write_json(os.path.join(out_dir, "summary.json"), report.to_dict())
        with open(os.path.join(out_dir, "plot.py"), "w", encoding="utf-8") as f:
            f.write(_PLOT_SCRIPT)
        with open(os.path.join(out_dir, "graph.edges"), "w", encoding="utf-8") as f:
            f.write(graph_to_edgelist(graph))
        save_mixing_matrix(w, os.path.join(out_dir, "mixing.csv"))
    return report


def _measure(config, game, graph, x0, t_start, rows):
    """The report of one run of ``game`` on ``graph``, and its mixing matrix;
    ``rows`` is passed to :func:`~gradplay.dynamics.run`."""
    w = metropolis_weights(graph)
    consts = estimate_constants(game)
    alpha, terms, ceiling, admissible, note, plan = _resolve_alpha(
        config.alpha, consts.mu, consts.l, w.sigma, game.n
    )

    if x0 is None:
        x0 = initial_estimates(game.n, config.init_seed)
    diverged = False
    try:
        final, trace = run(
            game, w, alpha, x0, max_iters=config.max_iters, tol=config.tol, rows=rows
        )
    except DivergenceError as exc:
        diverged = True
        trace = exc.trace
        final = None
        note = (note + "; " if note else "") + str(exc)

    initial_distance, final_distance = trace.distance_to_ne[[0, -1]].tolist()
    rel = final_distance / initial_distance if initial_distance > 0 else 0.0

    mins = lemma_slack_minima(trace, consts.mu, consts.l, alpha, game.n)
    violation = None
    if config.check_lemmas:
        violation = first_lemma_violation(trace, consts.mu, consts.l, alpha, game.n)

    fit = fit_tail_contraction(trace)
    fitted_ratio = math.exp(fit[0]) if fit else None
    fit_r2 = fit[1] if fit else None

    return ExperimentReport(
        config=config,
        mu=consts.mu,
        l=consts.l,
        kappa=consts.kappa,
        sigma=w.sigma,
        terms=terms,
        alpha_max=ceiling,
        alpha=alpha,
        alpha_admissible=admissible,
        alpha_note=note,
        q=plan.q if plan else None,
        iterations=len(trace) - 1,
        initial_distance=initial_distance,
        final_distance=final_distance,
        final_relative_error=rel,
        fitted_contraction_ratio=fitted_ratio,
        fit_r_squared=fit_r2,
        lemma_min_slacks=mins,
        first_violation=violation,
        diverged=diverged,
        runtime_seconds=time.perf_counter() - t_start,
        ok=not diverged and violation is None,
        trace=trace,
    ), w


# ---------------------------------------------------------------------------
# batch audit


@dataclass
class AuditCheck:
    name: str
    passed: bool
    worst: float
    note: str = ""

    def __post_init__(self):
        # numpy scalars sneak in from comparisons; keep the report JSON-clean
        self.passed = bool(self.passed)
        self.worst = float(self.worst)


@dataclass
class AuditCell:
    n: int
    topology: str
    seed: int
    sigma: float
    mu: float | None
    l: float | None
    alpha: float | None
    admissible: bool | None
    degenerate: bool
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "checks"}
        doc["ok"] = self.ok
        doc["checks"] = [asdict(c) for c in self.checks]
        return doc


@dataclass
class AuditReport:
    cells: list

    @property
    def ok(self) -> bool:
        """True when at least one cell was built and every cell passed."""
        return bool(self.cells) and all(cell.ok for cell in self.cells)

    def failures(self):
        return [
            (cell, check)
            for cell in self.cells
            for check in cell.checks
            if not check.passed
        ]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
            "failures": [
                {
                    "n": cell.n,
                    "topology": cell.topology,
                    "seed": cell.seed,
                    "check": check.name,
                    "worst": check.worst,
                    "note": check.note,
                }
                for cell, check in self.failures()
            ],
        }

    def to_text(self) -> str:
        lines = []
        for cell in self.cells:
            status = "ok" if cell.ok else "FAIL"
            lines.append(
                f"n={cell.n:3d} {cell.topology:8s} seed={cell.seed} "
                f"sigma={cell.sigma:.4f} {status}"
            )
            for check in cell.checks:
                if not check.passed:
                    lines.append(
                        f"    FAILED {check.name}: worst={check.worst!r} {check.note}"
                    )
        verdict = "all passed" if self.ok else "FAILURES PRESENT" if self.cells else "no cells"
        lines.append(f"audit: {verdict}")
        return "\n".join(lines) + "\n"


def _audit_game_assumptions(game, consts, rng, samples=100):
    """Worst normalized margins of monotonicity and the Lipschitz bounds.

    Each sample is a pair of joint actions ``u``, ``v`` and a player ``i``,
    drawn in one call each (``u``, then ``v``, then the players); the
    margins are then column expressions over all samples.
    """
    n = game.n
    u = rng.uniform(-5, 5, (samples, n))
    v = rng.uniform(-5, 5, (samples, n))
    players = rng.integers(0, n, samples)
    f = game_mapping(game, np.concatenate([u, v]))
    f_diff = f[:samples] - f[samples:]
    du = u - v
    du_sq = _row_dots(du, du)
    du_norm = np.sqrt(du_sq)
    rhs = consts.mu * du_sq
    mono = (_row_dots(f_diff, du) - rhs) / (1.0 + np.abs(rhs))
    # per-player bound on column i of F(u) - F(v), and the full-mapping bound
    g_diff = np.abs(f_diff[np.arange(samples), players])
    f_norm = np.sqrt(_row_dots(f_diff, f_diff))
    lip_rhs = consts.l_per_player[players] * du_norm
    map_rhs = consts.l_mapping * du_norm
    lip = np.minimum((lip_rhs - g_diff) / (1.0 + lip_rhs), (map_rhs - f_norm) / (1.0 + map_rhs))
    return float(np.min(mono, initial=math.inf)), float(np.min(lip, initial=math.inf))


def _audit_mixing(graph, w):
    err = max(
        float(np.max(np.abs(w.w.sum(axis=1) - 1.0))),
        float(np.max(np.abs(w.w.sum(axis=0) - 1.0))),
    )
    symmetric = bool(np.array_equal(w.w, w.w.T))
    edges = np.array(graph.edges, dtype=int).reshape(-1, 2)
    adjacency = np.zeros((graph.n, graph.n), dtype=bool)
    adjacency[edges[:, 0], edges[:, 1]] = adjacency[edges[:, 1], edges[:, 0]] = True
    support = w.w > 0
    np.fill_diagonal(support, False)
    sparsity_ok = np.array_equal(support, adjacency)
    diag_ok = bool(np.all(np.diag(w.w) > 0))
    ok = err <= 1e-12 and symmetric and sparsity_ok and diag_ok and 0 <= w.sigma < 1
    return ok, err


def _audit_average_property(w, rng, samples=200):
    """Worst normalized margin of the averaging contraction over ``samples``
    vectors drawn in one call (the same values as one draw per vector)."""
    lhs, rhs = average_property_check(w, rng.uniform(-10, 10, (samples, w.n)))
    return float(np.min((rhs - lhs + 1e-12) / (1.0 + rhs), initial=math.inf))


def audit(
    sizes=(2, 5, 10, 20),
    topologies=TOPOLOGIES,
    seeds=5,
    coupling_scale=0.2,
    iters=200,
    alpha_override=None,
    eq5_samples=200,
    out_dir=None,
) -> AuditReport:
    """Verify every checkable invariant over a matrix of configurations.

    Each cell draws a fresh game and graph, picks ``alpha`` (0.9 of the
    certified ceiling unless ``alpha_override`` is given), runs the
    iteration and checks: the game assumptions, the mixing-matrix
    properties, the averaging contraction, the three per-iteration
    inequalities, the running-average recursion, elementwise domination by
    the comparison matrix, the spectral cross-checks and the geometric
    envelope.  Cells whose mixing matrix has ``sigma = 0`` (the 2-node
    complete graph) instead verify the documented degenerate-mixing error.
    Invalid combinations (ring with n < 3) are skipped; a matrix of them
    alone is refused.  Before any cell runs, ``seeds`` must be an int,
    ``iters`` and ``eq5_samples`` ints >= 1 (an audit of no transition or no
    sample would pass vacuously), every size an int >= 2, every topology
    known and ``alpha_override`` finite and > 0 (an all-degenerate matrix
    never reaches ``run``'s check).
    """
    sizes, topologies = tuple(sizes), tuple(topologies)
    for name, value in (("seeds", seeds), ("iters", iters), ("eq5_samples", eq5_samples)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"audit {name} must be an int, got {value!r}")
        if name != "seeds" and value < 1:
            raise ValueError(f"audit needs {name} >= 1, got {value}")
    for n in sizes:
        if isinstance(n, bool) or not isinstance(n, int) or n < 2:
            raise ValueError(f"audit sizes must be ints >= 2, got {n!r}")
    for t in topologies:
        if t not in TOPOLOGIES:
            raise ValueError(f"unknown topology {t!r}; choose from {TOPOLOGIES}")
    if alpha_override is not None and not (_finite(alpha_override) and alpha_override > 0):
        raise ValueError(f"alpha_override must be finite and > 0, got {alpha_override}")
    pairs = [(n, t) for n in sizes for t in topologies if not (t == "ring" and n < 3)]
    if seeds >= 1 and sizes and topologies and not pairs:
        raise ValueError(
            "audit matrix selects no cell: every (size, topology) pair is a ring with n < 3"
        )
    _check_footprint(max(sizes, default=0), iters)
    cells = [
        _audit_cell(n, topology, seed, coupling_scale, iters, alpha_override, eq5_samples)
        for n, topology in pairs
        for seed in range(seeds)
    ]
    report = AuditReport(cells=cells)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "audit.json"), report.to_dict())
        with open(os.path.join(out_dir, "audit.txt"), "w", encoding="utf-8") as f:
            f.write(report.to_text())
    return report


def _audit_cell(n, topology, seed, coupling_scale, iters, alpha_override, eq5_samples):
    rng = np.random.default_rng(10_000 + 7 * seed + n)
    graph = build_graph(topology, n, seed=1000 + seed)
    w = metropolis_weights(graph)
    game = random_game(n, seed=2000 + seed, coupling_scale=coupling_scale)
    consts = estimate_constants(game)
    checks = []

    mix_ok, mix_err = _audit_mixing(graph, w)
    checks.append(AuditCheck("mixing_matrix", mix_ok, mix_err))
    avg_worst = _audit_average_property(w, rng, eq5_samples)
    checks.append(AuditCheck("averaging_contraction", avg_worst >= 0, avg_worst))
    mono_worst, lip_worst = _audit_game_assumptions(game, consts, rng)
    checks.append(AuditCheck("strong_monotonicity", mono_worst >= -SLACK_TOL, mono_worst))
    checks.append(AuditCheck("lipschitz_bounds", lip_worst >= -SLACK_TOL, lip_worst))

    degenerate = w.sigma == 0.0
    alpha = admissible = None
    if degenerate:
        # Degenerate perfect mixing: the ceiling terms must refuse, loudly.
        try:
            bounds.step_size_terms(consts.mu, consts.l, w.sigma, n)
            checks.append(
                AuditCheck("degenerate_mixing_error", False, 0.0, "error not raised")
            )
        except PerfectMixingError:
            checks.append(AuditCheck("degenerate_mixing_error", True, 0.0))
    else:
        alpha, _terms, ceiling, admissible, note, plan = _resolve_alpha(
            "auto" if alpha_override is None else alpha_override,
            consts.mu, consts.l, w.sigma, n, "alpha={alpha} vs ceiling={ceiling!r}",
        )
        checks.append(
            AuditCheck("admissible_step", admissible, alpha / ceiling, "" if admissible else note)
        )

        x0 = initial_estimates(n, seed=3000 + seed)
        try:
            _, trace = run(game, w, alpha, x0, max_iters=iters, tol=0.0)
        except DivergenceError as exc:
            trace = exc.trace
            checks.append(AuditCheck("no_divergence", False, math.inf, str(exc)))
        else:
            checks.append(AuditCheck("no_divergence", True, 0.0))

        # run() records t = 0 before any stop, so every trace has a row
        mins = lemma_slack_minima(trace, consts.mu, consts.l, alpha, n)
        for name in ("lemma1", "lemma2", "lemma3"):
            if name != "lemma3" or mins["lemma3_applicable"]:
                checks.append(AuditCheck(name, mins[name] >= -SLACK_TOL, mins[name]))

        resid = np.fmax.reduce(trace.recursion_residual[1:], initial=0.0)
        checks.append(AuditCheck("average_recursion", resid <= 1e-12, resid))

        if admissible:
            eig = np.sort(np.linalg.eigvals(plan.z).real)
            eig_err = max(abs(eig[1] - plan.lambda1), abs(eig[0] - plan.lambda2))
            rate_ok = (
                0 < plan.q < 1
                and plan.lambda1 > abs(plan.lambda2)
                and eig_err <= 1e-12
            )
            checks.append(AuditCheck("rate_certificate", rate_ok, eig_err))
            t5 = plan.terms[4]
            alt = bounds.quadratic_form_alpha_bound(consts.mu, consts.l, w.sigma, n)
            t5_err = abs(t5 - alt) / abs(t5)
            checks.append(AuditCheck("fifth_term_equivalence", t5_err <= 1e-12, t5_err))
            zdom = zdomination_excess(trace, plan.z)
            checks.append(AuditCheck("z_domination", zdom <= SLACK_TOL, zdom))
            env = envelope_excess(trace, plan.z, plan.lambda1, plan.lambda2)
            checks.append(AuditCheck("geometric_envelope", env <= SLACK_TOL, env))

    return AuditCell(
        n=n,
        topology=topology,
        seed=seed,
        sigma=w.sigma,
        mu=consts.mu,
        l=consts.l,
        alpha=alpha,
        admissible=admissible,
        degenerate=degenerate,
        checks=checks,
    )
