"""The benchmark's ESS and MCSE estimators on series with known answers.

An AR(1) series x_t = rho x_{t-1} + sqrt(1 - rho^2) e_t with unit stationary
variance has integrated autocorrelation time (1 + rho) / (1 - rho), so its
ESS is n (1 - rho) / (1 + rho) and the standard error of its mean is
sqrt((1 + rho) / ((1 - rho) n)).
"""

import math

import numpy as np
import pytest

import essdiag


def ar1(rho: float, chains: int, draws: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((chains, draws)) * math.sqrt(1.0 - rho * rho)
    x = np.empty((chains, draws))
    x[:, 0] = rng.standard_normal(chains)
    for t in range(1, draws):
        x[:, t] = rho * x[:, t - 1] + noise[:, t]
    return x


def tau(rho: float) -> float:
    return (1.0 + rho) / (1.0 - rho)


@pytest.mark.parametrize("rho", [-0.3, 0.0, 0.5, 0.9])
def test_ess_matches_ar1_autocorrelation_time(rho):
    x = ar1(rho, chains=4, draws=20_000, seed=11)
    expected = x.size / tau(rho)
    assert essdiag.ess(x) == pytest.approx(expected, rel=0.1)
    assert essdiag.bulk_ess(x) == pytest.approx(expected, rel=0.1)


def test_bulk_ess_ignores_monotone_transforms():
    x = ar1(0.7, chains=4, draws=5_000, seed=3)
    assert essdiag.bulk_ess(np.exp(3.0 * x)) == pytest.approx(essdiag.bulk_ess(x), rel=1e-12)


def test_bulk_ess_sees_chains_that_disagree():
    x = ar1(0.0, chains=4, draws=5_000, seed=5)
    x[:2] += 1.0  # two chains stuck in another place
    assert essdiag.bulk_ess(x) < 0.05 * x.size


def test_mcse_of_mean_matches_ar1():
    rho = 0.8
    x = ar1(rho, chains=4, draws=25_000, seed=7)
    assert essdiag.mcse_mean(x) == pytest.approx(math.sqrt(tau(rho) / x.size), rel=0.1)


def test_mcse_covers_the_true_mean():
    # Over independent replicates the error of the mean, in MCSE units,
    # has unit spread.
    z = []
    for seed in range(200):
        x = ar1(0.6, chains=2, draws=2_000, seed=100 + seed)
        z.append(float(x.mean()) / essdiag.mcse_mean(x))
    assert np.std(z) == pytest.approx(1.0, abs=0.15)


def test_constant_draws_count_in_full():
    assert essdiag.ess(np.ones((3, 10))) == 30.0


def test_split_chains_halves_each_chain():
    x = np.arange(14.0).reshape(2, 7)
    np.testing.assert_array_equal(
        essdiag.split_chains(x), [[0, 1, 2], [7, 8, 9], [4, 5, 6], [11, 12, 13]]
    )
