"""Valid matched pairs with dense constants and dim g != dim h (so(n) conjugates
against the lower-triangular matrices of gl(n, R), ``helpers.random_valid_pair``):
the validation report, the ``pair_from_double`` round trip, the flat Lie-Poisson
field and an RK4 energy check, at the tolerances the built-in pairs use."""

import numpy as np
import pytest

from mpmech.dynamics import HamiltonianSpec, integrate
from mpmech.lie_core import lie_poisson_rhs
from mpmech.matched_pair import matched_lp_rhs, pair_from_double, validation_report

from helpers import random_valid_pair

# (n, seed): dims 1+3, 3+6 and 6+10, two draws each
CASES = [(n, seed) for n in (2, 3, 4) for seed in (0, 1)]
IDS = [f"n{n}-seed{seed}" for n, seed in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def mp(request):
    n, seed = request.param
    return random_valid_pair(seed, n)


@pytest.mark.parametrize("n,seed", CASES, ids=IDS)
def test_dimensions_and_report(n, seed):
    mp = random_valid_pair(seed, n)
    assert mp.split == (n * (n - 1) // 2, n * (n + 1) // 2)
    checks = validation_report(mp)
    assert [c.name for c in checks if not c.ok] == []
    assert mp.validated


def test_pair_from_double_round_trip(mp):
    back = pair_from_double(mp.algebra.C, mp.g.dim, mp.g.names, mp.h.names)
    assert back.validated and (back.g.names, back.h.names) == (mp.g.names, mp.h.names)
    for got, want in ((back.g.C, mp.g.C), (back.h.C, mp.h.C),
                      (back.rho, mp.rho), (back.sigma, mp.sigma)):
        assert np.array_equal(got, want)


def test_matched_lp_rhs_is_the_flat_lie_poisson_rhs(mp, rng):
    d = mp.algebra.dim
    for convention in ("right", "left"):
        z, x = rng.standard_normal((2, d))
        want = lie_poisson_rhs(mp.algebra, z, x, convention)
        got = matched_lp_rhs(mp, z, x, convention)
        assert got.shape == (d,) and got.tobytes() == want.tobytes()


def test_energy_drift_short_window(mp, rng):
    # 1000 steps from a unit z0, each 1e-3 of the time scale 1 / (max |C| |z0|) of
    # the draw's constants (max |C| reaches about 320 here)
    d = mp.algebra.dim
    z0 = rng.standard_normal(d)
    z0 /= np.linalg.norm(z0)
    dt = 1e-3 / np.abs(mp.algebra.C).max()
    record = integrate(mp, HamiltonianSpec.quadratic(np.eye(d)), z0, dt, 1000 * dt)
    assert len(record.states) == 1001 and record.drift["H"] <= 1e-10
