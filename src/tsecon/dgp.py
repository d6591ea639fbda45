"""Data generating processes with reproducible Gaussian innovations.

Every spec is a frozen dataclass carrying its parameters plus a seed and an
optional burn-in override.  ``simulate`` returns named :class:`TimeSeries`
objects through :func:`sample_values`, which draws one path from a supplied
generator.  The Monte Carlo engine's null chunks draw each replication from
its own generator into one block and turn the whole block into white noise or
random walks with :func:`gaussian_paths`, the arithmetic `sample_values` runs
for one path, so simulated laws are identical through every entry point.

Burn-in defaults to 10x the recursion order with a floor of 50 for
stationary kinds; random walks get none.  Stationary kinds reject unstable
parameters at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .armodel import companion_matrix  # noqa: F401  re-exported
from .armodel import LagPolynomial, is_stationary, stability
from .errors import DomainError
from .series import TimeSeries

__all__ = [
    "WhiteNoise",
    "ArProcess",
    "MaProcess",
    "ArmaProcess",
    "RandomWalk",
    "VarProcess",
    "CointegratedPair",
    "InterceptBreakAr",
    "DgpSpec",
    "simulate",
    "sample_values",
    "innovation_count",
    "gaussian_paths",
    "rng_for",
]

GENERATOR_NAME = "numpy PCG64 seeded via SeedSequence(entropy=seed, spawn_key=(index,))"


def rng_for(seed, index: int | None = None) -> np.random.Generator:
    """Generator for a replication stream.

    Streams are split by SeedSequence spawn keys, so replication ``index``
    always sees the same draws no matter how work is batched or scheduled.
    """
    if index is None:
        ss = np.random.SeedSequence(entropy=seed)
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def _check_sigma2(sigma2: float) -> None:
    if not np.isfinite(sigma2) or sigma2 < 0.0:
        raise DomainError("innovation variance must be finite and nonnegative")


def _check_stable(betas) -> None:
    if len(betas) == 0:
        return
    check = is_stationary(LagPolynomial(betas))
    if not check.stable:
        raise DomainError(
            "autoregressive parameters are not stationary "
            f"(eigenvalue moduli {[round(m, 6) for m in check.root_moduli]})"
        )


@dataclass(frozen=True)
class WhiteNoise:
    sigma2: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        _check_sigma2(self.sigma2)


@dataclass(frozen=True)
class ArProcess:
    """Y_t = beta0 + sum_i betas[i-1] Y_{t-i} + u_t."""

    beta0: float = 0.0
    betas: tuple = (0.5,)
    sigma2: float = 1.0
    burn_in: int | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        _check_sigma2(self.sigma2)
        _check_stable(self.betas)


@dataclass(frozen=True)
class MaProcess:
    """Y_t = alpha0 + u_t - sum_j alphas[j-1] u_{t-j}."""

    alpha0: float = 0.0
    alphas: tuple = ()
    sigma2: float = 1.0
    burn_in: int | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        _check_sigma2(self.sigma2)


@dataclass(frozen=True)
class ArmaProcess:
    """AR and MA parts combined; reduces to ArProcess when alphas is empty."""

    beta0: float = 0.0
    betas: tuple = ()
    alphas: tuple = ()
    sigma2: float = 1.0
    burn_in: int | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        _check_sigma2(self.sigma2)
        _check_stable(self.betas)


@dataclass(frozen=True)
class RandomWalk:
    """Y_t = drift + Y_{t-1} + u_t, started at the deterministic value y0.

    The starting value is the first sample, so differencing a simulated walk
    returns drift plus the innovation sequence.  No burn-in.
    """

    drift: float = 0.0
    y0: float = 0.0
    sigma2: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        _check_sigma2(self.sigma2)


@dataclass(frozen=True)
class VarProcess:
    """Z_t = delta + A_1 Z_{t-1} + ... + A_p Z_{t-p} + U_t with U_t ~ N(0, cov)."""

    delta: tuple
    coeff_matrices: tuple  # p matrices, each k x k
    innovation_cov: tuple
    names: tuple | None = None
    burn_in: int | None = None
    seed: int | None = None

    def __post_init__(self):
        field = "delta"
        try:
            delta = np.asarray(self.delta, dtype=float)
            field = "coeff_matrices"
            mats = tuple(np.asarray(a, dtype=float) for a in self.coeff_matrices)
            field = "innovation_cov"
            cov = np.asarray(self.innovation_cov, dtype=float)
        except (TypeError, ValueError):
            raise DomainError(f"VAR {field} must be an array of numbers") from None
        if delta.ndim != 1:
            raise DomainError("delta must be a vector")
        k = delta.size
        for a in mats:
            if a.shape != (k, k):
                raise DomainError(f"coefficient matrices must be {k} x {k}")
        if cov.shape != (k, k) or not np.allclose(cov, cov.T):
            raise DomainError("innovation covariance must be a symmetric k x k matrix")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise DomainError("innovation covariance must be positive definite") from None
        if mats and not stability(mats).stable:
            raise DomainError("VAR parameters are not stable")
        names = self.names
        if names is None:
            names = tuple(f"y{i + 1}" for i in range(k))
        elif len(names) != k:
            raise DomainError("one name per variable is required")
        object.__setattr__(self, "delta", tuple(delta))
        object.__setattr__(self, "coeff_matrices", tuple(tuple(map(tuple, a)) for a in mats))
        object.__setattr__(self, "innovation_cov", tuple(map(tuple, cov)))
        object.__setattr__(self, "names", tuple(names))

    @property
    def k(self) -> int:
        return len(self.delta)

    @property
    def p(self) -> int:
        return len(self.coeff_matrices)


@dataclass(frozen=True)
class CointegratedPair:
    """X a driftless or drifting random walk, Y = theta X + z.

    z follows an AR(1) with parameter ``noise_ar``; its innovation is
    e_t + endogeneity * u_x_t, which ties the noise to the walk's own
    innovations and makes X endogenous when the loading is nonzero.
    """

    theta: float = 1.0
    drift: float = 0.0
    noise_ar: float = 0.0
    endogeneity: float = 0.0
    sigma2: float = 1.0
    burn_in: int | None = None
    seed: int | None = None

    def __post_init__(self):
        _check_sigma2(self.sigma2)
        if abs(self.noise_ar) >= 1.0:
            raise DomainError("noise_ar must lie strictly inside the unit interval")


@dataclass(frozen=True)
class InterceptBreakAr:
    """Stationary AR whose intercept jumps at floor(break_frac * T).

    Observations at 0-based positions below the break index use beta0_pre;
    the rest use beta0_post.  Used as the alternative in break-test power
    studies.
    """

    beta0_pre: float = 0.0
    beta0_post: float = 1.0
    break_frac: float = 0.5
    betas: tuple = (0.5,)
    sigma2: float = 1.0
    burn_in: int | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        _check_sigma2(self.sigma2)
        _check_stable(self.betas)
        if not (0.0 < self.break_frac < 1.0):
            raise DomainError("break_frac must lie strictly between 0 and 1")


DgpSpec = Union[
    WhiteNoise,
    ArProcess,
    MaProcess,
    ArmaProcess,
    RandomWalk,
    VarProcess,
    CointegratedPair,
    InterceptBreakAr,
]


def _default_burn(order: int) -> int:
    return max(50, 10 * order)


def _lfilter(b, a, x: np.ndarray) -> np.ndarray:
    """scipy.signal.lfilter(b, a, x) for a 1-D float x and a[0] == 1, bit for bit.

    Like scipy, it convolves when `a` has one coefficient and otherwise runs
    the direct form II transposed recursion, with the same operation order.
    Importing scipy.signal for this one function took over a second.
    """
    if len(a) == 1:
        return np.convolve(b, x)[: len(x)]
    k = max(len(a), len(b))
    b = [float(v) for v in b] + [0.0] * (k - len(b))
    a = [float(v) for v in a] + [0.0] * (k - len(a))
    z = [0.0] * (k - 1)
    y = []
    for xn in x.tolist():
        yn = z[0] + b[0] * xn
        for n in range(k - 2):
            z[n] = z[n + 1] + xn * b[n + 1] - yn * a[n + 1]
        z[k - 2] = xn * b[k - 1] - yn * a[k - 1]
        y.append(yn)
    return np.array(y)


def _arma_values(beta0, betas, alphas, sigma2, burn_in, T, rng) -> np.ndarray:
    p, q = len(betas), len(alphas)
    burn = _default_burn(max(p, q)) if burn_in is None else int(burn_in)
    shocks = np.sqrt(sigma2) * rng.standard_normal(burn + T)
    b = np.concatenate([[1.0], -np.asarray(alphas, dtype=float)])
    a = np.concatenate([[1.0], -np.asarray(betas, dtype=float)])
    denom = 1.0 - sum(betas)
    mean = beta0 / denom if p else beta0
    y = mean + _lfilter(b, a, shocks)
    return y[burn:]


def innovation_count(spec: WhiteNoise | RandomWalk, T: int) -> int:
    """Standard normal draws behind one WhiteNoise or RandomWalk path of length T."""
    return T - 1 if isinstance(spec, RandomWalk) else T


def gaussian_paths(spec: WhiteNoise | RandomWalk, z: np.ndarray) -> np.ndarray:
    """WhiteNoise or RandomWalk paths (..., T) from their standard normal draws z.

    z (..., innovation_count(spec, T)) holds each path's draws along its last
    axis; it is overwritten.  White noise is sqrt(sigma2) z.  A walk starts at
    y0 and adds the steps drift + sqrt(sigma2) z, cumulated along the last
    axis.  :func:`sample_values` draws one path through this, and the Monte
    Carlo engine a whole block of them, so a block's rows are its paths bit
    for bit.
    """
    np.multiply(z, np.sqrt(spec.sigma2), out=z)
    if isinstance(spec, WhiteNoise):
        return z
    np.add(z, spec.drift, out=z)
    y = np.empty(z.shape[:-1] + (z.shape[-1] + 1,))
    y[..., 0] = 0.0
    np.cumsum(z, axis=-1, out=y[..., 1:])
    return np.add(y, spec.y0, out=y)


def sample_values(spec: DgpSpec, T: int, rng: np.random.Generator):
    """Draw one sample path as a plain array, using the supplied generator.

    Scalar kinds return shape (T,); VarProcess returns (T, k); the
    cointegrated pair returns (T, 2) ordered (y, x).
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise DomainError("sample length must be a positive integer")
    T = int(T)

    if isinstance(spec, (WhiteNoise, RandomWalk)):
        return gaussian_paths(spec, rng.standard_normal(innovation_count(spec, T)))

    if isinstance(spec, ArProcess):
        return _arma_values(spec.beta0, spec.betas, (), spec.sigma2, spec.burn_in, T, rng)

    if isinstance(spec, MaProcess):
        return _arma_values(spec.alpha0, (), spec.alphas, spec.sigma2, spec.burn_in, T, rng)

    if isinstance(spec, ArmaProcess):
        return _arma_values(
            spec.beta0, spec.betas, spec.alphas, spec.sigma2, spec.burn_in, T, rng
        )

    if isinstance(spec, VarProcess):
        k, p = spec.k, spec.p
        delta = np.asarray(spec.delta)
        mats = [np.asarray(a) for a in spec.coeff_matrices]
        cov = np.asarray(spec.innovation_cov)
        L = np.linalg.cholesky(cov)
        burn = _default_burn(p) if spec.burn_in is None else int(spec.burn_in)
        total = burn + T
        shocks = rng.standard_normal((total, k)) @ L.T
        mean = np.linalg.solve(np.eye(k) - sum(mats), delta) if p else delta
        z = np.empty((p + total, k))
        z[:p] = mean
        for t in range(p, p + total):
            acc = delta + shocks[t - p]
            for i in range(1, p + 1):
                acc = acc + mats[i - 1] @ z[t - i]
            z[t] = acc
        return z[p + burn :]

    if isinstance(spec, CointegratedPair):
        burn = _default_burn(1) if spec.burn_in is None else int(spec.burn_in)
        sd = np.sqrt(spec.sigma2)
        eps_pre = rng.standard_normal(burn)
        eps_x = rng.standard_normal(T)
        eps_z = rng.standard_normal(T)
        u_x = sd * eps_x
        x = spec.drift * np.arange(1, T + 1) + np.cumsum(u_x)
        e_pre = sd * np.sqrt(1.0 + spec.endogeneity**2) * eps_pre
        e_z = sd * (eps_z + spec.endogeneity * eps_x)
        z = _lfilter([1.0], [1.0, -spec.noise_ar], np.concatenate([e_pre, e_z]))[burn:]
        y = spec.theta * x + z
        return np.column_stack([y, x])

    if isinstance(spec, InterceptBreakAr):
        p = len(spec.betas)
        burn = _default_burn(p) if spec.burn_in is None else int(spec.burn_in)
        total = burn + T
        shocks = np.sqrt(spec.sigma2) * rng.standard_normal(total)
        break_at = burn + int(spec.break_frac * T)
        denom = 1.0 - sum(spec.betas)
        mean_pre = spec.beta0_pre / denom if p else spec.beta0_pre
        y = np.empty(p + total)
        y[:p] = mean_pre
        for t in range(p, p + total):
            b0 = spec.beta0_pre if (t - p) < break_at else spec.beta0_post
            acc = b0 + shocks[t - p]
            for i in range(1, p + 1):
                acc += spec.betas[i - 1] * y[t - i]
            y[t] = acc
        return y[p + burn :]

    raise DomainError(f"unknown DGP spec {spec!r}")


def simulate(spec: DgpSpec, T: int):
    """Simulate a spec into named :class:`TimeSeries` using its own seed.

    Scalar kinds return one TimeSeries; multivariate kinds return a dict of
    them keyed by variable name.
    """
    rng = rng_for(spec.seed)
    values = sample_values(spec, T, rng)
    if isinstance(spec, VarProcess):
        return {name: TimeSeries(values[:, i], label=name) for i, name in enumerate(spec.names)}
    if isinstance(spec, CointegratedPair):
        return {
            "y": TimeSeries(values[:, 0], label="y"),
            "x": TimeSeries(values[:, 1], label="x"),
        }
    return TimeSeries(values, label="y")
