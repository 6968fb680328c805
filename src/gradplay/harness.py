"""Configuration-driven experiment runner.

``run_experiment`` reproduces the headline simulation (20 players on a
random tree) or any variant described by an :class:`ExperimentConfig`:
it draws the game and graph, computes the exact constants and the step-size
certificate, runs the iteration with full trace recording, and writes
``trace.csv``, ``summary.txt``, ``summary.json`` and a standalone
``plot.py`` that renders ``plot.svg``.  The trace-analysis helpers and the
artifact writers here serve the batch auditor as well
(:mod:`gradplay.auditing`), which imports this module; this module never
imports it.
"""

from __future__ import annotations

import builtins
import ctypes
import math
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from . import bounds, floattext
from .dynamics import _BLOCK, TRACE_COLUMNS, IterationTrace, _csv_rows, initial_estimates, run
from .errors import DivergenceError, InadmissibleStepSizeError, PerfectMixingError
from .footprint import _check_footprint
# game_mapping and average_property_check serve only the audit, which calls
# them as harness.<name> like every constructor and analysis helper it
# shares with the run, so that one patch of this module sees both.
from .game import estimate_constants, game_mapping, random_game
from .network import (
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
    "TOPOLOGIES",
    "PRESETS",
    "paper_sim_config",
    "build_graph",
    "run_experiment",
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
        for key in ("game_seed", "graph_seed", "init_seed"):  # numpy takes no negative seed
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
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
    trace = trace.view(np.ndarray)  # np.recarray reads a column in Python
    # a diverged run's trace may end in inf or NaN; its slacks stay non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        lhs3 = (1.0 + mu * alpha / n) * trace["avg_distance_to_ne"] ** 2
        pairs = {
            "lemma2": (trace["lemma2_slack"], trace["grad_norm"]),
            "lemma1": (trace["lemma1_slack"], trace["consensus_violation"]),
            "lemma3": (trace["lemma3_slack"], lhs3),
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
    return list(slacks)[col], int(trace["t"][row]), float(table[row, col])


def zdomination_excess(trace, z: np.ndarray) -> float:
    """Worst normalized violation of ``z_next <= Z z`` over a trace.

    Nonpositive means the domination held everywhere; compare against
    ``SLACK_TOL``.
    """
    if len(trace) < 2:
        return -math.inf
    trace = trace.view(np.ndarray)
    zv = np.stack([trace["avg_distance_to_ne"] ** 2, trace["consensus_violation"] ** 2], axis=1)
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
    trace = trace.view(np.ndarray)
    z10 = trace["avg_distance_to_ne"][0] ** 2
    z20 = trace["consensus_violation"][0] ** 2
    k = 4.0 / (lambda1 - lambda2) * ((z[0, 0] + z[1, 0]) * z10 + (z[0, 1] + z[1, 1]) * z20)
    env = k * lambda1 ** (trace["t"][1:] - 1.0)
    return float(np.max((trace["distance_to_ne"][1:] ** 2 - env) / (1.0 + env)))


def fit_tail_contraction(trace, burn_frac: float = 0.5, min_points: int = 20):
    """Least-squares line through ``log(dist^2)`` over the trace tail.

    Returns ``(slope, r_squared, n_points)`` or ``None`` when the tail is
    too short or already at numerical zero.  ``exp(slope)`` estimates the
    per-step squared-error contraction ratio.
    """
    if not len(trace):
        return None
    start = int(len(trace) * burn_frac)
    dist = trace["distance_to_ne"]
    keep = dist[start:] > max(1e-13 * dist[0], 1e-300)
    dist = dist[start:][keep]
    if len(dist) < min_points:
        return None
    t = trace["t"][start:][keep].astype(float)
    y = 2.0 * np.log(dist)
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2, len(dist)


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


def _json_float(x) -> str:
    return float.__repr__(x) if math.isfinite(x) else "null"


#: The JSON text of a scalar, by exact type; subclasses go through
#: :func:`_json_scalar`'s isinstance checks.
_JSON_SCALARS = {
    str: _json_string,
    float: _json_float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_scalar(value):
    """The JSON text of ``value``, or None when it is a container."""
    encode = _JSON_SCALARS.get(type(value))
    if encode is not None:
        return encode(value)
    if isinstance(value, (dict, list, tuple, np.ndarray)):
        return None
    for kind in (str, bool, int, float):  # json's order: a bool is an int
        if isinstance(value, kind):
            return _JSON_SCALARS[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_pieces(value, newline="\n", depth=2):
    """The JSON text of ``value``, in pieces; ``newline`` is the line break
    and indent of the line it starts on.

    The text is that of ``json.dumps(value, indent=2)`` with every
    non-finite float as ``null``: strings and keys (which must be ``str``)
    through json's C string encoder, floats as ``float.__repr__``.  Each
    item of a container up to ``depth`` levels down is its own piece, and
    anything deeper is built as one string, so neither a file nor its text
    is ever held as thousands of small strings.  A finite ndarray of floats
    is the list of its items in C order, one piece per ``CHUNK`` items of
    :func:`~gradplay.floattext.pieces`, so a large matrix is never one list
    of Python floats or one string.  Any type ``json`` refuses raises
    ``TypeError``.
    """
    text = _json_scalar(value)
    if text is not None:
        yield text
        return
    inner = newline + "  "
    comma = "," + inner
    if isinstance(value, np.ndarray):
        # min and max are NaN or infinite when any item is, and need no
        # temporary array
        if value.dtype.kind != "f" or value.itemsize > 8 or not (
            value.size == 0 or math.isfinite(value.min()) and math.isfinite(value.max())
        ):
            yield from _json_pieces(value.ravel().tolist(), newline, depth)
        elif not value.size:
            yield "[]"
        else:
            yield "[" + inner
            yield from floattext.pieces(value, comma)
            yield newline + "]"
        return
    if not value:
        yield "{}" if isinstance(value, dict) else "[]"
        return
    if isinstance(value, dict):
        heads = [_json_string(key) + ": " for key in value]  # TypeError unless a str
        items, (opener, closer) = value.values(), "{}"
    else:
        heads, items, (opener, closer) = None, value, "[]"
    if depth <= 0:
        texts = [
            encode(item)
            if (encode := _JSON_SCALARS.get(type(item)))
            else "".join(_json_pieces(item, inner, 0))
            for item in items
        ]
        body = texts if heads is None else map(str.__add__, heads, texts)
        yield opener + inner + comma.join(body) + newline + closer
        return
    separator = opener + inner
    for k, item in enumerate(items):
        yield separator if heads is None else separator + heads[k]
        yield from _json_pieces(item, inner, depth - 1)
        separator = comma
    yield newline + closer


def _json_text(doc) -> str:
    """``doc`` as JSON text ending in a newline (:func:`_json_pieces`):
    every ``--json`` output."""
    return "".join(_json_pieces(doc)) + "\n"


def _dump_json(doc, f) -> None:
    """Write :func:`_json_text` of ``doc`` to the text file ``f`` piece by
    piece; every JSON artifact is written through this."""
    f.writelines(_json_pieces(doc))
    f.write("\n")


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as f:
        _dump_json(doc, f)


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _dump_game(game, f) -> None:
    """Write the game to the text file ``f`` as JSON, then a newline.

    The document is ``{"n": n, "a": [...], "b": [...], "c": [...]}`` with
    ``c`` flattened row-major, plus ``"seed"`` when the game has one.  Read
    it back with ``QuadraticGame(a, b, np.reshape(c, (n, n)))``.
    """
    doc = {"n": game.n, "a": game.a, "b": game.b, "c": game.c}
    if game.seed is not None:
        doc["seed"] = int(game.seed)
    _dump_json(doc, f)


_CEILING_NOTE = (
    "alpha={alpha} exceeds the certified ceiling alpha_max={ceiling!r}; "
    "geometric-rate certificate does not apply (divergence guard stays active)"
)


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


#: Trace floats, ``7 * (max_iters + 1)``, from which :func:`_write_aside`
#: writes ``trace.csv`` and ``game.json`` in a forked child while the run
#: goes on.  Whole jobs at n = 20, a fresh process per job, 8 alternating
#: rounds, forked minus in process (medians at the host probe's reference
#: speed, 2 vCPUs, one BLAS thread): +7.3 ms over 1,000 steps, +12.6 over
#: 2,000, +13.5 over 4,000, +12.7 over 8,000 (56,007 floats), +13.7 over
#: 10,000.  Repeated paper-sim jobs (10,000 steps) in one perfbench
#: process read 0.086, 0.088 and 0.134 s forked against 0.118-0.125 s in
#: process in three runs, then 0.130-0.141 against 0.119-0.126 s in eight
#: alternating pairs (the forked path depends on the host's second vCPU),
#: so paper-sim keeps its child.
_FORK_FLOATS = 56_000

#: Game floats, ``n * n``, from which a run that does not fork writes
#: ``game.json`` from a thread while it goes on (n >= 750).  Whole jobs of
#: 80 steps on a random tree, 20 alternating pairs in one warm process per
#: size, thread minus in process, medians at the probe's reference speed:
#: +1.1 to +2.0 ms at n = 100-200, +5.6 to +11.8 at 300-500, +3.4 (-7.1 to
#: +10.9 over three runs) at 700, +22.7 at 725, -85 (-152 to +47 over
#: three runs) at 750, -145 (-184 to +19 over four runs) at 800, and -186
#: to -295 ms at 850-1000, lower in 20 of 20 pairs in every run.  Why the
#: runs at 750 and 800 differ so was not found.
_THREAD_FLOATS = 750 * 750


class _Stopped(Exception):
    """The writer thread was told to stop."""


class _StoppableFile:
    """The writes of a text file, refused once ``stop`` is set."""

    def __init__(self, f, stop):
        self.f, self.stop = f, stop

    def write(self, text):
        if self.stop.is_set():
            raise _Stopped
        self.f.write(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def _trim_heap():
    """Hand the free memory of every malloc arena back to the system, where
    the C library has glibc's ``malloc_trim``.  A thread's arena otherwise
    keeps its high-water mark after the thread ends: 2-4 MB for the
    ``game.json`` text of a 1000-player game, which every later peak of
    the process would carry."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


@contextmanager
def _write_aside(game, out_dir, max_iters):
    """Write ``game.json`` and ``trace.csv`` into ``out_dir`` while the block
    runs; the block gets the ``rows`` callback of :func:`~gradplay.dynamics.run`.

    Both go under temporary names next to their artifacts: the game and the
    trace header first, then each block of rows as the text of
    :func:`~gradplay.dynamics._csv_rows`.  A trace of at least
    ``_FORK_FLOATS`` floats is written by a forked child (where ``os.fork``
    exists): the callback sends the rows down a pipe to the child, which
    writes both parts (and always leaves through ``os._exit``), until the
    child stops reading (it failed).  Otherwise the callback appends each
    block in process, and a game of at least ``_THREAD_FLOATS`` floats is
    written by a thread, which checks a stop flag between pieces.  The
    thread opens its file with ``builtins.open``, never this module's
    ``open``, which a tracer may wrap with spans kept for one thread (as
    ``perfbench/tracing.py`` does).  When the block ends, the pipe is
    closed, the child reaped or the thread joined, and the parts renamed.  A
    failed write raises ``OSError`` on every path by one rule, from its
    errno and the artifact it was writing.  When the block raises, the child
    is killed and reaped or the thread stopped and joined, and the parts
    removed.
    """
    names = ("game.json", "trace.csv")
    parts = [os.path.join(out_dir, f".{name}.{os.getpid()}.part") for name in names]
    fork = 7 * (max_iters + 1) >= _FORK_FLOATS and hasattr(os, "fork")
    thread = not fork and game.c.size >= _THREAD_FLOATS

    def start_game():
        with open(parts[0], "w", encoding="utf-8") as f:
            _dump_game(game, f)

    def start_trace():
        with open(parts[1], "w", encoding="utf-8") as f:
            f.write(",".join(TRACE_COLUMNS) + "\n")

    def append(block):
        with open(parts[1], "a", encoding="utf-8") as f:
            f.write(_csv_rows(block))

    def failed(code, name):  # the error of a write of name that ended with status code
        path = os.path.join(out_dir, name)
        if 0 < code < 255:
            return OSError(code, os.strerror(code), path)
        return OSError(f"could not write {path}: its writer process ended with status {code}")

    def status(exc):  # an OSError's exit status in the child
        return exc.errno if exc.errno and exc.errno < 255 else 255

    def in_process(name, write, *args):
        try:
            write(*args)
        except OSError as exc:
            raise failed(status(exc), name) from exc

    def write_game(stop, errors):  # the writer thread
        try:
            with builtins.open(parts[0], "w", encoding="utf-8") as f:
                _dump_game(game, _StoppableFile(f, stop))
        except _Stopped:
            pass
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    def send(block):
        data = memoryview(block.tobytes())
        try:
            while data and pipe:
                data = data[os.write(pipe[0], data) :]
        except BrokenPipeError:  # the child failed: its exit status says how
            os.close(pipe.pop())

    pid, pipe, writer = None, [], None  # the child and its pipe's write end, or the thread
    stop, errors = threading.Event(), []
    try:
        if fork:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 255
                try:
                    os.close(write_end)
                    start_game()
                    start_trace()
                    size = _BLOCK * IterationTrace.itemsize  # one block of run() a read
                    with os.fdopen(read_end, "rb") as rows:
                        for chunk in iter(lambda: rows.read(size), b""):
                            append(np.frombuffer(chunk, IterationTrace))
                    code = 0
                except OSError as exc:
                    code = status(exc)
                finally:
                    os._exit(code)
            os.close(read_end)
            pipe.append(write_end)
        else:
            if thread:
                writer = threading.Thread(target=write_game, args=(stop, errors), name="game.json")
                writer.start()
            else:
                in_process(names[0], start_game)
            in_process(names[1], start_trace)
        yield send if fork else lambda block: in_process(names[1], append, block)
        if pipe:
            os.close(pipe.pop())
        if fork:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = None
            if code:  # the trace.csv part is opened only once game.json is written
                raise failed(code, names[os.path.exists(parts[1])])
        if writer is not None:
            writer.join()
            writer = None
            _trim_heap()
            if errors and isinstance(errors[0], OSError):
                raise failed(status(errors[0]), names[0]) from errors[0]
            if errors:
                raise errors[0]
        for part, name in zip(parts, names):
            os.replace(part, os.path.join(out_dir, name))
    except BaseException:
        if pipe:
            os.close(pipe.pop())
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if writer is not None:
            stop.set()
            writer.join()
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
    goes on (:func:`_write_aside`): by a child process where ``os.fork``
    exists and the trace holds at least ``_FORK_FLOATS`` floats, and
    otherwise ``game.json`` by a thread when the game holds at least
    ``_THREAD_FLOATS``; the call reaps the child or joins the thread before
    it returns or raises.
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
    os.makedirs(out_dir, exist_ok=True)
    with _write_aside(game, out_dir, config.max_iters) as rows:
        report, w = _measure(config, game, graph, x0, t_start, rows)
        _write_text(os.path.join(out_dir, "summary.txt"), report.to_text())
        _write_json(os.path.join(out_dir, "summary.json"), report.to_dict())
        _write_text(os.path.join(out_dir, "plot.py"), _PLOT_SCRIPT)
        _write_text(os.path.join(out_dir, "graph.edges"), graph_to_edgelist(graph))
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

    initial_distance, final_distance = trace["distance_to_ne"][[0, -1]].tolist()
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
