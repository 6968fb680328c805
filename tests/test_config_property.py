"""Property test: any JSON object given to ``gradplay run --config`` either
runs to a checked result or is refused, and never escapes as an exception.

Sizes stay small: an integer ``n`` is drawn only from 2-12 (the state is
``n x n``) and ``max_iters`` stays at or below 50.  Every other field takes
arbitrary JSON values, so wrong types, huge integers, non-finite floats and
nested containers all reach the validator.
"""

import json
import math
import os
import tempfile

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
            summary = json.load(f)
    assert summary["ok"] == (code == 0)
    assert not (summary["ok"] and not math.isfinite(summary["final_distance"]))
    assert summary["config"] == ExperimentConfig.from_dict(doc).to_dict()
