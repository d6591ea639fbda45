"""Shared fixtures and extended-precision reference implementations."""

import mpmath as mp
import numpy as np
import pytest


def mp_ols_coefficients(X, y, dps=50):
    """Solve the normal equations X'X b = X'y at dps decimal digits.

    Independent of the package's QR-based solver; used as the ground truth
    for coefficient accuracy checks.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    with mp.workdps(dps):
        Xm = mp.matrix([[mp.mpf(v) for v in row] for row in X])
        ym = mp.matrix([mp.mpf(v) for v in y])
        G = Xm.T * Xm
        h = Xm.T * ym
        b = mp.lu_solve(G, h)
        return np.array([float(v) for v in b])


def close(a, b, rel):
    """Agreement to `rel` of the larger array's scale."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(a)), np.max(np.abs(b)))


def var_sample(k, T, level, seed):
    """A stable k-variable VAR(2) path, every series shifted by `level`."""
    from tsecon import TimeSeries, VarProcess, simulate

    A1 = 0.4 * np.eye(k) + 0.1 * np.tri(k, k, -1)
    A2 = -0.2 * np.eye(k)
    spec = VarProcess(delta=tuple([0.1] * k), coeff_matrices=(A1.tolist(), A2.tolist()),
                      innovation_cov=np.eye(k).tolist(), seed=seed)
    return {nm: TimeSeries(s.values + level, label=nm) for nm, s in simulate(spec, T).items()}


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
