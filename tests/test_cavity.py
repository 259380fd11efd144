"""Cavity geometry: mode frequencies, intermode couplings, and the
perturbative coupling table."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochastic_dce.cavity import CavityConfig

QUASI_1D = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.01, nz_max=3)
CUBE = CavityConfig(Lx=1.0, Ly=1.0, Lz0=1.0, epsilon=0.01, nz_max=3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(Lx=0.0, Ly=1.0, Lz0=1.0, epsilon=0.01),
        dict(Lx=1.0, Ly=-1.0, Lz0=1.0, epsilon=0.01),
        dict(Lx=1.0, Ly=1.0, Lz0=0.0, epsilon=0.01),
        dict(Lx=1.0, Ly=1.0, Lz0=1.0, epsilon=1.0),
        dict(Lx=1.0, Ly=1.0, Lz0=1.0, epsilon=-0.1),
        dict(Lx=1.0, Ly=1.0, Lz0=1.0, epsilon=0.01, nz_max=0),
        dict(Lx=1.0, Ly=1.0, Lz0=1.0, epsilon=0.01, kx=0),
    ],
)
def test_invalid_geometry_rejected(kwargs):
    with pytest.raises(ValueError):
        CavityConfig(**kwargs)


def test_mode_index_validation():
    # a mode is its 1-based nz, and index is its one check: 0 is refused,
    # not read as row -1, and so is nz_max + 1
    for nz in (0, 4):
        with pytest.raises(ValueError, match="outside family 1..3"):
            CUBE.index(nz)
    assert CUBE.index(1) == 0
    assert CUBE.index(3) == 2


def test_omega_hand_values():
    # unit cube fundamental: pi sqrt(1+1+1)
    assert CUBE.omegas()[0] == pytest.approx(math.pi * math.sqrt(3.0), rel=1e-12)
    # wide transverse box: omega -> pi nz / Lz0
    assert QUASI_1D.omegas()[0] == pytest.approx(math.pi, rel=1e-10)
    assert QUASI_1D.omegas()[2] == pytest.approx(3.0 * math.pi, rel=1e-10)


def test_omega_strictly_increasing_in_nz():
    for cav in (CUBE, QUASI_1D):
        w = cav.omegas()
        assert np.all(np.diff(w) > 0)


def test_omega_z_hand_values():
    assert CUBE.omega_zs()[0] == pytest.approx(math.pi, rel=1e-12)
    cav = CavityConfig(Lx=1.0, Ly=1.0, Lz0=2.0, epsilon=0.01, nz_max=4)
    assert cav.omega_zs()[3] == pytest.approx(2.0 * math.pi, rel=1e-12)
    cav = CavityConfig(Lx=1.0, Ly=1.0, Lz0=math.pi, epsilon=0.01, nz_max=1)
    assert cav.omega_zs()[0] == pytest.approx(1.0, rel=1e-12)


def test_coupling_hand_values():
    # g(1,2) = (-1)^3 * 2*1*2/(4-1) = -4/3
    G = CUBE.g_matrix()
    assert G[0, 1] == pytest.approx(-4.0 / 3.0, rel=1e-12)
    assert G[1, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert G[2, 2] == 0.0


@given(st.integers(1, 10), st.integers(1, 10))
def test_coupling_antisymmetry_and_parity(knz, jnz):
    cav = CavityConfig(Lx=1.0, Ly=1.0, Lz0=1.0, epsilon=0.01, nz_max=10)
    G = cav.g_matrix()
    k, j = knz - 1, jnz - 1
    assert G[k, j] == -G[j, k]
    if knz != jnz:
        expected_sign = (-1.0) ** (knz + jnz) * math.copysign(1.0, jnz - knz)
        assert math.copysign(1.0, G[k, j]) == expected_sign


def test_g_matrix_antisymmetric():
    G = CUBE.g_matrix()
    np.testing.assert_allclose(G, -G.T, atol=0)


def test_v_diagonal_is_omega_z_sq_over_omega():
    for cav in (CUBE, QUASI_1D):
        np.testing.assert_allclose(np.diag(cav.v_matrix()),
                                   cav.omega_zs() ** 2 / cav.omegas(), rtol=1e-12)


def test_v_off_diagonal_hand_value():
    # quasi-1D, n=1, k=2: omega_n = pi, omega_k = 2 pi, g(2,1) = +4/3:
    # v = (4/3)(pi^2 - 4 pi^2) / (2 sqrt(2 pi^2)) = -sqrt(2) pi
    val = QUASI_1D.v_matrix()[0, 1]
    assert val == pytest.approx(-math.sqrt(2.0) * math.pi, rel=1e-9)


def test_v_independent_of_epsilon():
    a = CavityConfig(Lx=1.0, Ly=1.0, Lz0=1.0, epsilon=0.001, nz_max=2)
    b = CavityConfig(Lx=1.0, Ly=1.0, Lz0=1.0, epsilon=0.5, nz_max=2)
    assert a.v_matrix()[0, 1] == b.v_matrix()[0, 1]


def test_modes_span_family():
    # nz = 1..nz_max index the rows of every per-mode table
    rows = [CUBE.index(nz) for nz in range(1, CUBE.nz_max + 1)]
    assert rows == list(range(CUBE.omegas().size)) == [0, 1, 2]
