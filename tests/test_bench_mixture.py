"""Microbenchmarks of one mixture step, update plus likelihood_vectors, and
of writing and loading a mixture snapshot.

The step at d = 64 (the default fd_r) for C = 9 (the default run), 65 and
345 (the scale of the paper's memory table); the snapshot write and load
at C = 345, the pair mixture-c345 times once per run. Each makes three
timed rounds (the step on a fresh copy of a warmed-up mixture), so the
suite stays fast. Run them alone with

    python -m pytest tests/test_bench_mixture.py --benchmark-only

They are skipped where pytest-benchmark is not installed.
"""
import numpy as np
import pytest

from gmmadapt.gmm_stream import GaussianMixtureStream

pytest.importorskip("pytest_benchmark")

DIM, N_B = 64, 64


def step(gmm, feats, weights):
    gmm.update(feats, weights)
    return gmm.likelihood_vectors(feats)


@pytest.mark.parametrize("n_classes", [9, 65, 345])
def test_update_and_likelihoods(benchmark, n_classes):
    rng = np.random.default_rng(n_classes)
    batches = [(rng.standard_normal((N_B, DIM)), rng.dirichlet(np.ones(n_classes), size=N_B))
               for _ in range(3)]
    warm = GaussianMixtureStream(n_classes, DIM, jitter=2e-2)
    for feats, weights in batches[:2]:
        warm.update(feats, weights)
    lik = benchmark.pedantic(step, setup=lambda: ((warm.copy(), *batches[2]), {}),
                             rounds=3, warmup_rounds=1)
    assert lik.shape == (N_B, n_classes)
    np.testing.assert_allclose(lik.sum(axis=1), 1.0, atol=1e-12)


def snapshot_mixture():
    n_classes = 345
    rng = np.random.default_rng(n_classes)
    gmm = GaussianMixtureStream(n_classes, DIM, jitter=2e-2)
    gmm.update(rng.standard_normal((N_B, DIM)), rng.dirichlet(np.ones(n_classes), size=N_B))
    return gmm


def test_snapshot_write(benchmark):
    """to_snapshot of a 345-class mixture, the write mixture-c345 times."""
    gmm = snapshot_mixture()
    blob = benchmark.pedantic(gmm.to_snapshot, rounds=3, warmup_rounds=1)
    assert GaussianMixtureStream.from_snapshot(blob).to_snapshot() == blob


def test_snapshot_load(benchmark):
    """from_snapshot of a 345-class mixture, the load mixture-c345 times."""
    gmm = snapshot_mixture()
    blob = gmm.to_snapshot()
    back = benchmark.pedantic(GaussianMixtureStream.from_snapshot, args=(blob,),
                              rounds=3, warmup_rounds=1)
    for name in ("means", "cov_packed", "mass"):
        assert getattr(back, name).tobytes() == getattr(gmm, name).tobytes()
