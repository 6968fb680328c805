"""Property tests: any JSON object given to ``gradplay run --config``, any
numbers given to ``gradplay bounds`` and ``gradplay compare-grane``, and any
floats given to ``gradplay audit`` either give a checked result or are
refused, and never escape as an exception.

Sizes stay small: an integer ``n`` is drawn only from 2-12 (the state is
``n x n``) and ``max_iters`` stays at or below 50.  Every other field takes
arbitrary JSON values, so wrong types, huge integers, non-finite floats and
nested containers all reach the validator.  The certificate commands
allocate nothing of size ``n``, so their ``n`` may be huge.  An audit takes
sizes from {2, 3, 5}, at most 40 iterations and at most 2 seeds.
"""

import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradplay.cli import main
from gradplay.harness import ExperimentConfig

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(["auto", "tree", "ring", "complete", "star"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
# Values that pass the type check, so runs get past validation often.
typed_values = {
    "game_seed": st.integers(0, 2**64),
    "graph_seed": st.integers(0, 2**64),
    "init_seed": st.integers(0, 2**64),
    "coupling_scale": st.floats(0, 2.0) | st.floats(0) | st.integers(0, 10**400),
    "topology": st.sampled_from(["tree", "ring", "complete", "star"]),
    "alpha": st.just("auto") | st.floats(0, exclude_min=True) | st.integers(1, 10**400),
    "tol": st.floats(0) | st.integers(0, 10**400),
    "check_lemmas": st.booleans(),
}
configs = st.fixed_dictionaries(
    {
        "n": st.integers(2, 12) | json_values.filter(lambda v: type(v) is not int),
        "max_iters": st.integers(0, 50) | json_values.filter(lambda v: type(v) is not int),
    },
    optional={
        **{key: strategy | json_values for key, strategy in typed_values.items()},
        "extra_key": json_values,
    },
)


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs)
def test_any_json_config_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        out_dir = os.path.join(tmp, "out")
        code = main(["run", "--config", config_path, "--out", out_dir])
        assert code in (0, 1, 2)
        if code == 2:
            return
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as f:
            summary = json.loads(f.read(), parse_constant=reject_constant)
    assert summary["ok"] == (code == 0)
    assert not (summary["ok"] and not math.isfinite(summary["final_distance"]))
    assert summary["config"] == ExperimentConfig.from_dict(doc).to_dict()


# Plausible constants mixed with nan, inf, huge, tiny and negative floats.
numbers = (
    st.floats(0.01, 10.0)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e200, 1.7e308, 1e-100, 5e-324, -1.0, 0.0])
)
certificate_options = st.dictionaries(
    st.sampled_from(["sigma", "alpha", "lap-sigma-max", "lap-lambda-min"]), numbers
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["bounds", "compare-grane"]),
    numbers,
    numbers,
    st.integers(-2, 40) | st.integers(2, 10**400),
    certificate_options,
    st.booleans(),
)
def test_certificate_commands_exit_cleanly(command, mu, l, n, options, as_json):
    if command == "bounds":
        options = {"sigma": 0.5, **options}  # --sigma is required
        allowed = ("sigma", "alpha")
    else:
        allowed = ("sigma", "lap-sigma-max", "lap-lambda-min")
    argv = [command, f"--mu={mu!r}", f"--L={l!r}", f"--n={n}"]
    argv += [f"--{key}={value!r}" for key, value in options.items() if key in allowed]
    argv += ["--json"] if as_json else []
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        return
    if as_json:
        json.loads(out.getvalue(), parse_constant=reject_constant)
    else:
        assert not re.search(r"\b(nan|inf)\b", out.getvalue())


# Floats for the audit's options: plausible values, non-finite, huge and subnormal.
audit_floats = (
    st.floats(0.01, 1.0)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 5e-324, 0.0, -1.0])
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(["tree", "ring", "complete", "star"]), min_size=1, unique=True),
    st.integers(0, 40),
    st.integers(1, 2),
    st.none() | audit_floats,
    st.none() | audit_floats,
)
def test_audit_argv_exits_cleanly(sizes, topologies, iters, seeds, coupling, alpha):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["audit", "--sizes", ",".join(map(str, sizes))]
        argv += ["--topologies", ",".join(topologies), f"--iters={iters}", f"--seeds={seeds}"]
        argv += [f"--coupling-scale={coupling!r}"] if coupling is not None else []
        argv += [f"--alpha-override={alpha!r}"] if alpha is not None else []
        out_dir = os.path.join(tmp, "out")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--out", out_dir])
        assert code in (0, 1, 2)
        assert not re.search("Traceback|Warning", err.getvalue())
        if alpha is not None and not (math.isfinite(alpha) and alpha > 0):
            # refused up front, even where every cell is degenerate
            assert code == 2
        if code == 2:
            assert err.getvalue().count("\n") == 1
        json_path = os.path.join(out_dir, "audit.json")
        if os.path.exists(json_path):
            with open(json_path, encoding="utf-8") as f:
                doc = json.loads(f.read(), parse_constant=reject_constant)
            assert doc["ok"] == (code == 0)
