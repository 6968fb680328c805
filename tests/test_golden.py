"""Golden artifact hashes: the bytes of paper-sim's artifacts, of a random
tree at n = 250 over 20 steps, of the default audit and of an audit whose
step size makes 27 of its 45 runs diverge, at 24 different iterations
(93 to 198 of 200), on one BLAS thread.

numpy's bundled OpenBLAS is built for many CPUs and picks its kernels by the
CPU it runs on; another core's kernels may round differently, and the
artifacts then differ in their last bits.  The hashes below pin the kernels
of the core named in ``GOLDEN_CORE``, and the test skips on any other core.
A change that alters these bytes on purpose updates the hashes and says why.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradplay

#: The OpenBLAS core (``scipy_openblas_get_corename64_``) the hashes were taken on.
GOLDEN_CORE = "SkylakeX"

#: sha256 of each artifact, ``runtime_seconds`` lines left out.
GOLDEN = {
    "paper-sim/game.json": "a9e5e25592ed7c88efb38d1c28d25896377303a057762e8160c807267f5365dd",
    "paper-sim/graph.edges": "00cf34aa1feadbe5b6c0f82b237565eb8aed03efcb6bc9c218476ce0b32dce5e",
    "paper-sim/mixing.csv": "a7c0b256f967b8ed891a2a41b6786f4ad3621f225d6464143fa6aec8ba12403b",
    "paper-sim/plot.py": "c8e554ff18ef47d112a4108dad9ceec3cc556d43425ec138b6c4b261cb87dd99",
    "paper-sim/summary.json": "eb35f0d385d0653e1c968d13ee7b6ef50ff050ca83f4022052813f76f6fcc09b",
    "paper-sim/summary.txt": "a6c219463d11fbc6db27e17fd195f8619d916683bfcde9a8239e1b71b6210c4c",
    "paper-sim/trace.csv": "0db8f9a9508bd1b0371a72c238cabcb042d112fc0e45d928dae4267a58eb5aee",
    "tree-250/game.json": "1d6f46cc32f4bf8cd12fc7877c54da4ab1b1e83a7860ba38d10ac1fa9275a201",
    "tree-250/graph.edges": "2932a0c5d6474de93fafa89048708b533164b5db8d76f7f9643c966bd3548271",
    "tree-250/mixing.csv": "9b90cc59a091b4f147f77c0d68e4fd40d3efae347145a5323aacd8eb34e78438",
    "tree-250/plot.py": "c8e554ff18ef47d112a4108dad9ceec3cc556d43425ec138b6c4b261cb87dd99",
    "tree-250/summary.json": "9d8ed97887c7a236d89ad6ade173586cf95798928c72f605490e950a2c337458",
    "tree-250/summary.txt": "27fa678a69f30022002d9bfa280a34b58ebf617b443706dbeb597f8e04139a95",
    "tree-250/trace.csv": "1aaec73aec162c6fa8bc126aa52c3781ca86f053db92b90b4c0fd8792b57f883",
    "audit/audit.json": "067255e256d9028875f7f865923ea77534b44f17b2340e99f9ddce6c2dde11cb",
    "audit/audit.txt": "f028c2e44c9e7dac0430f72d699215b8e9761d7832136d0f3a7b497ffd29d448",
    "audit-diverging/audit.json": "2f71a74f7773ad81ad900a47b45567cbb0b5657dec2ef96508a6b1446ef19e5b",
    "audit-diverging/audit.txt": "3fc897558fccd6f4940ba53205778356934b8e796976a7aac2df1ea6551b8bf0",
}

#: Writes the four jobs' artifacts under the directory in argv[1] and
#: prints their hashes as one JSON object.
SCRIPT = """
import hashlib, json, os, sys
from gradplay import ExperimentConfig, audit, paper_sim_config, run_experiment

root = sys.argv[1]
jobs = {
    "paper-sim": lambda out: run_experiment(paper_sim_config(), out_dir=out),
    "tree-250": lambda out: run_experiment(ExperimentConfig(n=250, max_iters=20), out_dir=out),
    "audit": lambda out: audit(out_dir=out),
    "audit-diverging": lambda out: audit(alpha_override=0.75, out_dir=out),
}
digests = {}
for job, write in jobs.items():
    out = os.path.join(root, job)
    write(out)
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as f:
            lines = [line for line in f if b"runtime_seconds" not in line]
        digests[f"{job}/{name}"] = hashlib.sha256(b"".join(lines)).hexdigest()
print(json.dumps(digests))
"""


def openblas_core():
    """The core name numpy's bundled OpenBLAS chose, or None where it cannot
    be read."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def test_artifacts_match_their_golden_hashes(tmp_path):
    core = openblas_core()
    if core != GOLDEN_CORE:
        pytest.skip(f"hashes taken with OpenBLAS core {GOLDEN_CORE}, this one is {core}")
    src = str(Path(gradplay.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == GOLDEN
