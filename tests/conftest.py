"""Test-session setup that must run before numpy is imported.

The suite's matrices are at most 64 x 256, so BLAS threading is pure
overhead: one thread keeps the suite about 3x faster on a 2-CPU host.
setdefault leaves any value the caller exported in place.
"""
import os
from pathlib import Path

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def package_env():
    """Environment for a child interpreter: the directory holding the
    imported gmmadapt package goes first on PYTHONPATH."""
    import gmmadapt

    env = dict(os.environ)
    parent = str(Path(gmmadapt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (parent, env.get("PYTHONPATH")) if p)
    return env
