"""gradplay.floattext against its oracle, ``sep.join(map(float.__repr__, ...))``."""

import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gradplay import dynamics, floattext, random_game, run_experiment
from gradplay.harness import paper_sim_config


@pytest.fixture(autouse=True, scope="module")
def arrays_for_every_size():
    """Format even the smallest arrays with the arrays, not ``repr``: most
    inputs here are below ``SMALL``."""
    small, floattext.SMALL = floattext.SMALL, 0
    yield
    floattext.SMALL = small


SMALL = floattext.SMALL


def oracle(values, sep=","):
    values = np.asarray(values).ravel()
    text = float.__repr__ if values.dtype.kind == "f" else int.__repr__
    return sep.join(map(text, values.tolist()))


def fallbacks(values):
    """The values that the arrays could not certify: they take ``repr``."""
    words = np.empty((len(values), floattext._FLOAT_WORDS), np.uint64)
    return floattext._float_records(np.asarray(values, dtype=np.float64), words)


def edge_values():
    values = [2.0**k for k in range(-1074, 1024)]
    for k in range(-323, 309):
        ten = float(f"1e{k}")
        values += [ten, math.nextafter(ten, 0.0), math.nextafter(ten, math.inf)]
    values += [
        9.999999999999999e-05, 1e16, 1e15, 1e-5, 1e-4, 0.0001234, 1234567890123456.7,
        1 + 2**-17, 1 + 2**-52, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.5, 1.0, 123456.789,
        2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**54 + 4, 2.0**63, 9007199254740993.0,
        sys.float_info.max, sys.float_info.min, 5e-324, 2.2250738585072009e-308,
        1e-270, 1e300, math.nextafter(1e-270, 0.0), math.nextafter(1e300, math.inf),
        0.0, math.inf, math.nan,
    ]
    values = np.array(values)
    return np.concatenate([values, -values])


SEPARATORS = [",", ",\n    ", " ", ""]


class TestJoin:
    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_edge_values(self, sep):
        values = edge_values()
        assert floattext.join(values, sep) == oracle(values, sep)

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(np.float64, st.integers(0, 300), elements=st.floats(width=64)),
        st.sampled_from(SEPARATORS),
    )
    def test_any_float64(self, values, sep):
        # NaN, infinities, signed zeros and subnormals included
        assert floattext.join(values, sep) == oracle(values, sep)

    def test_a_million_random_bit_patterns(self):
        rng = np.random.default_rng(23)
        values = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False).view(np.float64)
        assert floattext.join(values) == oracle(values)

    def test_pieces_hold_at_most_a_chunk(self):
        values = np.random.default_rng(1).uniform(-1, 1, 2 * floattext.CHUNK + 5)
        pieces = list(floattext.pieces(values, ";"))
        assert [piece.count(";") for piece in pieces] == [floattext.CHUNK] * 2 + [4]
        assert "".join(pieces) == oracle(values, ";")
        assert list(floattext.pieces(values[:0], ";")) == []

    def test_narrower_floats_are_their_float64_text(self):
        values = np.random.default_rng(2).uniform(-1e4, 1e4, 500).astype(np.float32)
        assert floattext.join(values) == oracle(values)

    def test_int_path(self):
        rng = np.random.default_rng(3)
        ints = np.concatenate(
            [
                np.arange(0, 20_001),
                rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 10_000),
                [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 10**16 - 1, 10**16, -(10**16)],
            ]
        ).astype(np.int64)
        for sep in SEPARATORS:
            assert floattext.join(ints, sep) == oracle(ints, sep)
        assert floattext.join(np.arange(5, dtype=np.uint8)) == "0,1,2,3,4"

    def test_fewer_than_small_values_take_repr(self, monkeypatch):
        monkeypatch.setattr(floattext, "SMALL", SMALL)
        values = edge_values()
        for size in (1, SMALL - 1, SMALL):
            assert floattext.join(values[:size], ", ") == oracle(values[:size], ", ")
            assert floattext.join(np.arange(size), ", ") == oracle(np.arange(size), ", ")
        assert list(floattext.pieces(values[: SMALL - 1], ",")) == [oracle(values[: SMALL - 1])]

    def test_tables_are_uint64_words(self):
        # numpy 1's value-based casting would keep a narrower table narrow
        # through a shift by a uint64 scalar and drop its high digits
        for table in (floattext._DIGITS4, floattext._PREFIX, floattext._LEADS):
            assert table.dtype.kind == "u" and table.dtype.itemsize == 8
        words = floattext._eight(np.array([12345678, 90000001, 99999999]))
        assert words.dtype == np.uint64
        assert words.astype("<u8").tobytes() == b"123456789000000199999999"

    def test_refuses_other_dtypes(self):
        with pytest.raises(TypeError, match="dtype"):
            floattext.join(np.array(["a"]))


class TestArtifactValues:
    def test_a_1000_player_game(self):
        c = random_game(1000, 3).c.ravel()
        assert floattext.join(c, ",\n    ") == oracle(c, ",\n    ")
        assert len(fallbacks(c)) < 0.01 * c.size

    def test_paper_sim_trace(self):
        trace = run_experiment(paper_sim_config()).trace
        columns = np.column_stack([trace[name] for name in dynamics.TRACE_COLUMNS[1:]])
        lines = "".join(
            f"{t},{oracle(row)}\n" for t, row in zip(trace["t"].tolist(), columns)
        )
        assert dynamics.trace_to_csv(trace) == ",".join(dynamics.TRACE_COLUMNS) + "\n" + lines
        assert len(fallbacks(columns.ravel())) < 0.01 * columns.size

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 300), (3000, 3)])
    def test_csv_lines(self, shape):
        rng = np.random.default_rng(4)
        table = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 20, size=shape)
        table[rng.random(shape) < 0.3] = 0.0
        table[rng.random(shape) < 0.05] = -0.0
        index = rng.integers(-5, 10**6, shape[0])
        expected = "".join(f"{oracle(row)}\n" for row in table)
        assert "".join(floattext.csv_lines(table)) == expected
        with_index = "".join(f"{t},{oracle(row)}\n" for t, row in zip(index.tolist(), table))
        assert "".join(floattext.csv_lines(table, index=index)) == with_index
        assert "".join(floattext.matrix_lines(table)) == expected

    @pytest.mark.parametrize("share", [0.0, 0.01, 0.19, 0.21, 1.0])
    def test_matrix_lines_sparse_and_dense(self, share):
        # below a fifth of the entries set, the runs of +0.0 are sliced text
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(60, 50)) * 10.0 ** rng.integers(-8, 20, size=(60, 50))
        matrix[rng.random(matrix.shape) >= share] = 0.0
        matrix[rng.random(matrix.shape) < 0.02] = -0.0
        expected = "".join(f"{oracle(row)}\n" for row in matrix)
        assert "".join(floattext.matrix_lines(matrix)) == expected

    def test_matrix_lines_of_zeros_and_signed_zeros(self):
        matrix = np.zeros((5, 4))
        assert "".join(floattext.matrix_lines(matrix)) == "0.0,0.0,0.0,0.0\n" * 5
        matrix[[0, 4], [3, 0]] = -0.0
        assert "".join(floattext.matrix_lines(matrix)) == "".join(f"{oracle(row)}\n" for row in matrix)


class TestNoWarnings:
    def test_caller_errstate_is_not_consulted(self):
        values = edge_values()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                assert floattext.join(values) == oracle(values)

    def test_in_a_thread(self):
        # errstate is per context: a thread starts from numpy's defaults
        values, result, caught = edge_values(), [], []

        def format_values():
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                result.append(floattext.join(values))
            caught.extend(seen)

        thread = threading.Thread(target=format_values)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result == [oracle(values)] and caught == []


def test_import_builds_the_tables_without_fractions_or_decimal():
    script = (
        "import sys, gradplay; from gradplay import floattext; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)), "
        "len(floattext._P_HI), len(floattext._DIGITS4))"
    )
    src = str(Path(floattext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "581", "10000"]
