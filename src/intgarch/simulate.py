"""Exact simulation of the interval GARCH process.

Randomness comes from numpy's PCG64 generator. For a run seeded with s,
`numpy.random.SeedSequence(s).spawn(2)` yields two independent substreams:
the first drives the normal center shocks eps_t, the second the Gamma
radius shocks eta_t. The Gamma sampler is numpy's exact rejection sampler,
valid for every shape k > 0. Identical (seed, config) inputs reproduce the
output bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ModelError, NumericalError
from .intervals import IntervalSeries
from .process import InitMode, ModelParams, mean_stationarity, recurse

__all__ = ["SimConfig", "simulate", "simulate_paths"]


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    length is the number of retained observations; burn_in extra steps are
    generated first and discarded. init_mode picks the pre-sample h level
    (ZERO_H or the stationary mean). Pre-sample returns sit at their
    expectation: centers 0, radii k times the pre-sample level.
    """

    params: ModelParams
    length: int
    seed: int | np.random.SeedSequence
    burn_in: int = 0
    init_mode: InitMode = InitMode.ZERO_H

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ModelError("length must be >= 1")
        if self.burn_in < 0:
            raise ModelError("burn_in must be >= 0")


def _presample_level(params: ModelParams, init_mode: InitMode) -> tuple:
    """(h_init, radius_level) for the pre-sample lags.

    Under mean stationarity the level is E(h). Otherwise MEAN_H is
    refused; ZERO_H falls back to mu as the radius level, since E(h)
    does not exist.
    """
    ok, s = mean_stationarity(params)
    if ok:
        level = params.mu / (1.0 - s)
    elif init_mode is InitMode.MEAN_H:
        raise ModelError(
            f"nonstationary parameters (weight sum {s:.6g} >= 1): stationary-mean "
            "initialization undefined; use ZERO_H"
        )
    else:
        level = params.mu
    h_init = level if init_mode is InitMode.MEAN_H else 0.0
    return h_init, params.k * level


def simulate(config: SimConfig) -> tuple:
    """Simulate one path.

    Returns
    -------
    (IntervalSeries, numpy.ndarray)
        The retained interval returns and the matching h path.
    """
    centers, radii, h = simulate_paths(
        config.params,
        n_paths=1,
        length=config.length,
        seed=config.seed,
        burn_in=config.burn_in,
        init_mode=config.init_mode,
    )
    return IntervalSeries(centers[0], radii[0]), h[0]


def simulate_paths(
    params: ModelParams,
    n_paths: int,
    length: int,
    seed: int,
    burn_in: int = 0,
    init_mode: InitMode = InitMode.ZERO_H,
) -> tuple:
    """Simulate n_paths independent paths (vectorized across paths).

    Returns (centers, radii, h), each shaped (n_paths, length). The h
    paths of all paths come from one time-varying `recurse` call, and each
    path uses its own slices of the two shock substreams; the whole block
    is reproducible from (seed, n_paths, length, burn_in, init_mode), and a
    path's values do not depend on how many paths run beside it.
    """
    if n_paths < 1:
        raise ModelError("n_paths must be >= 1")
    if length < 1:
        raise ModelError("length must be >= 1")
    if burn_in < 0:
        raise ModelError("burn_in must be >= 0")
    o = params.orders
    m = o.max_lag
    total = length + burn_in

    try:
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    except ValueError as exc:
        raise ModelError(f"seed must be a nonnegative integer, got {seed!r}") from exc
    seq_eps, seq_eta = root.spawn(2)
    eps = np.random.default_rng(seq_eps).standard_normal((n_paths, total))
    eta = np.random.default_rng(seq_eta).gamma(params.k, 1.0, (n_paths, total))

    h_init, radius_level = _presample_level(params, init_mode)
    # coefficient groups padded with zeros to the longest lag
    alpha, beta, gamma = (
        np.pad(c, (0, m - len(c))) for c in (params.alpha, params.beta, params.gamma)
    )

    # h_t = mu + sum_i c_{t,i} h_{t-i} with c_{t,i} = alpha_i |eps_{t-i}| +
    # beta_i eta_{t-i} + gamma_i; lags before the sample enter the source
    # with centre 0, radius radius_level and h h_init
    abs_eps, eta_t = np.abs(eps.T), eta.T
    coefs = np.zeros((total, n_paths, m))
    source = np.full((total, 1), params.mu)
    for i in range(1, m + 1):
        coefs[i:, :, i - 1] = alpha[i - 1] * abs_eps[:-i] + beta[i - 1] * eta_t[:-i] + gamma[i - 1]
        source[: min(i, total)] += beta[i - 1] * radius_level + gamma[i - 1] * h_init

    # overflow surfaces as a raised error below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        h = recurse(source, coefs).T
        centers = np.ascontiguousarray((h * eps)[:, burn_in:])
        radii = np.ascontiguousarray((h * eta)[:, burn_in:])
    h_out = np.ascontiguousarray(h[:, burn_in:])

    if not np.all(np.isfinite(h_out)):
        raise NumericalError("numerical overflow in h recursion")
    return centers, radii, h_out
