"""Rank-normalised bulk ESS and Monte Carlo standard errors.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat": chains are
split in half, draws are replaced by the normal scores of their pooled
ranks, and the autocorrelation sum is truncated by Geyer's initial monotone
sequence over the multi-chain autocovariance.

Every function takes draws shaped (chains, draws per chain).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

__all__ = ["split_chains", "rank_normalise", "ess", "bulk_ess", "mcse_mean"]


def split_chains(draws: np.ndarray) -> np.ndarray:
    """Each chain cut into its first and second half (an odd middle draw is dropped)."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    half = draws.shape[1] // 2
    return np.concatenate([draws[:, :half], draws[:, -half:]], axis=0)


def rank_normalise(draws: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled ranks, Blom's offset (r - 3/8) / (S + 1/4)."""
    ranks = rankdata(draws, method="average").reshape(draws.shape)
    return ndtri((ranks - 0.375) / (draws.size + 0.25))


def _autocov(draws: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each chain at every lag, by FFT."""
    n = draws.shape[1]
    centred = draws - draws.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=1)[:, :n] / n


def ess(draws: np.ndarray) -> float:
    """Multi-chain effective sample size of the draws as given (no split, no ranks)."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    n_chain, n_draw = draws.shape
    if n_draw < 4:
        raise ValueError("ESS needs at least 4 draws per chain")
    if float(draws.max() - draws.min()) < np.finfo(float).resolution:
        return float(draws.size)
    acov = _autocov(draws)
    mean_var = acov[:, 0].mean() * n_draw / (n_draw - 1.0)
    var_plus = mean_var * (n_draw - 1.0) / n_draw
    if n_chain > 1:
        var_plus += draws.mean(axis=1).var(ddof=1)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer's initial positive sequence over pairs of lags...
    kept = np.zeros(n_draw)
    kept[:2] = rho[:2]
    t = 1
    even, odd = 1.0, rho[1]
    while t < n_draw - 3 and even + odd > 0.0:
        even, odd = rho[t + 1], rho[t + 2]
        if even + odd >= 0.0:
            kept[t + 1], kept[t + 2] = even, odd
        t += 2
    max_t = t - 2
    if even > 0.0:
        kept[max_t + 1] = even
    # ... made monotone.
    t = 1
    while t <= max_t - 2:
        if kept[t + 1] + kept[t + 2] > kept[t - 1] + kept[t]:
            kept[t + 1] = kept[t + 2] = 0.5 * (kept[t - 1] + kept[t])
        t += 2
    tau = -1.0 + 2.0 * kept[: max_t + 1].sum() + kept[max_t + 1 : max_t + 2].sum()
    tau = max(tau, 1.0 / math.log10(draws.size))
    return float(draws.size / tau)


def bulk_ess(draws: np.ndarray) -> float:
    """Rank-normalised split-chain bulk ESS."""
    return ess(rank_normalise(split_chains(draws)))


def mcse_mean(draws: np.ndarray) -> float:
    """Monte Carlo standard error of the mean, sd / sqrt(split-chain ESS).

    Applied to an indicator it gives the standard error of a probability.
    """
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    return float(draws.std(ddof=1) / math.sqrt(ess(split_chains(draws))))

