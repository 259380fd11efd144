"""Static cavity geometry: mode frequencies and the intermode coupling table.

One run simulates a single transverse family (kx, ky) with nz = 1..nz_max;
the wall motion only couples modes that share transverse indices, so this
truncation is exact in the transverse directions.  A mode of the family
is its plain 1-based index nz, and CavityConfig.index is the one check
that a mode number lies in 1..nz_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CavityConfig"]


@dataclass(frozen=True)
class CavityConfig:
    Lx: float
    Ly: float
    Lz0: float
    epsilon: float
    kx: int = 1
    ky: int = 1
    nz_max: int = 1

    def __post_init__(self):
        if min(self.Lx, self.Ly, self.Lz0) <= 0:
            raise ValueError("all cavity lengths must be > 0")
        if not 0 <= self.epsilon < 1:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.kx < 1 or self.ky < 1:
            raise ValueError("transverse indices must be >= 1")
        if self.nz_max < 1:
            raise ValueError("nz_max must be >= 1")

    @property
    def transverse_sq(self) -> float:
        return (self.kx / self.Lx) ** 2 + (self.ky / self.Ly) ** 2

    def omegas(self) -> np.ndarray:
        """Frequencies of the retained family, ordered by nz."""
        nz = np.arange(1, self.nz_max + 1)
        return np.pi * np.sqrt(self.transverse_sq + (nz / self.Lz0) ** 2)

    def omega_zs(self) -> np.ndarray:
        nz = np.arange(1, self.nz_max + 1)
        return np.pi * nz / self.Lz0

    def g_matrix(self) -> np.ndarray:
        """Antisymmetric coupling matrix over the retained family."""
        nz = np.arange(1, self.nz_max + 1, dtype=float)
        k = nz[:, None]
        j = nz[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            mat = (-1.0) ** (k + j) * 2.0 * k * j / (j * j - k * k)
        np.fill_diagonal(mat, 0.0)
        return mat

    def v_matrix(self) -> np.ndarray:
        """Perturbative couplings V[n-1, k-1] = v_nk over the retained family.

        v_nk = g_kn (w_n^2 - w_k^2) / (2 sqrt(w_n w_k)) + delta_nk w_z,k^2 / w_k
        depends only on the static geometry, not on epsilon.
        """
        w = self.omegas()
        wn, wk = w[:, None], w[None, :]
        V = self.g_matrix().T * (wn**2 - wk**2) / (2.0 * np.sqrt(wk * wn))
        V[np.diag_indices_from(V)] += self.omega_zs() ** 2 / w
        return V

    def index(self, nz: int) -> int:
        """Row of mode nz in the family's tables; nz outside 1..nz_max is refused."""
        if not 1 <= nz <= self.nz_max:
            raise ValueError(f"mode nz={nz} outside family 1..{self.nz_max}")
        return nz - 1
