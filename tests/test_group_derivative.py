"""The algebra read off the group: with k = exp(t Y_a) in K and U = exp(s X_i) in
SU(2), K(k) U = (k |> U) K(k <| U) gives [Y_a, X_i] = Y_a |> X_i + Y_a <| X_i at
order st.  So the st coefficient of ``group_act``'s k |> U, in su(2) coordinates,
is rho[:, a, i], and that of its k <| U, in (a, b, c) coordinates, is
sigma[:, a, i].  The 4-point mixed difference f(h, h) - f(h, -h) - f(-h, h) +
f(-h, -h) cancels every term in s alone or in t alone and reads both with O(h^2)
error."""

import numpy as np
import pytest

from helpers import su2_coordinates, traceless_exp
from mpmech.sl2c import group_act, iwasawa_factor, k_basis, su2_basis

H = 1e-4


@pytest.fixture(scope="module")
def group_actions():
    """(rho, sigma) of the group layer, by mixed differences at step H."""
    rho, sigma = np.zeros((2, 3, 3, 3))
    for a, Y in enumerate(k_basis()):
        for i, X in enumerate(su2_basis()):
            for s, t, sign in ((H, H, 1), (H, -H, -1), (-H, H, -1), (-H, -H, 1)):
                k = iwasawa_factor(traceless_exp(t * Y))[1]
                acted, rest = group_act(k, traceless_exp(s * X))
                rho[:, a, i] += sign * su2_coordinates(acted)
                sigma[:, a, i] += sign * rest
    return rho / (4 * H * H), sigma / (4 * H * H)


def test_derived_pair_is_the_derivative_of_the_group(group_actions, sl2c_derived):
    # measured: rho to 1.25e-9 and sigma to 5.0e-9 at h = 1e-4
    rho, sigma = group_actions
    assert np.abs(rho - sl2c_derived.rho).max() <= 1e-8
    assert np.abs(sigma - sl2c_derived.sigma).max() <= 1e-8


def test_printed_right_action_has_the_opposite_orientation(group_actions, sl2c_printed):
    # measured: sigma off by 2.0, and equal to minus the group's sigma to 5.0e-9
    rho, sigma = group_actions
    assert np.abs(rho - sl2c_printed.rho).max() <= 1e-8
    assert np.abs(sigma - sl2c_printed.sigma).max() > 1.0
    assert np.abs(sigma + sl2c_printed.sigma).max() <= 1e-8
