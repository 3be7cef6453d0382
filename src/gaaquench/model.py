"""Generalized Aubry-Andre chain: on-site potential and single-particle Hamiltonian.

The chain of L sites carries the deformed quasiperiodic potential

    mu_i = 2 * lam * cos(2*pi*b*i + phi) / (1 - a * cos(2*pi*b*i + phi)),

with nearest-neighbor hopping -t and either open or periodic boundaries.
Sites are labeled 1..L; the phase argument always uses the 1-based index.
The standard Aubry-Andre model is recovered at a = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GOLDEN_INVERSE = (math.sqrt(5.0) - 1.0) / 2.0

BOUNDARIES = ("open", "periodic")


@dataclass(frozen=True)
class LatticeSpec:
    """All model parameters; the single source of truth for the chain.

    Parameters
    ----------
    L : int
        Number of sites, at least 2.
    lam : float
        Potential strength.
    a : float
        Deformation parameter, |a| < 1 so the potential denominator stays positive.
    t : float
        Hopping amplitude, nonzero.
    b : float or Fraction
        Modulation frequency. Open chains store a float (default the inverse
        golden ratio); periodic chains require an exact rational p/q whose
        reduced denominator divides L, so the potential closes seamlessly
        around the ring.
    phi : float
        Global phase in radians.
    boundary : str
        "open" or "periodic".
    """

    L: int
    lam: float
    a: float = 0.0
    t: float = 1.0
    b: float | Fraction = GOLDEN_INVERSE
    phi: float = 0.0
    boundary: str = "open"

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)) or self.L < 2:
            raise ValueError(f"L must be an integer >= 2, got {self.L!r}")
        if self.t == 0:
            raise ValueError("hopping amplitude t must be nonzero")
        if abs(self.a) >= 1:
            raise ValueError(f"|a| < 1 required, got a={self.a}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.boundary == "periodic":
            if not isinstance(self.b, Fraction):
                raise ValueError(
                    "periodic boundaries require b as a rational p/q (an exact Fraction, "
                    f"e.g. b = 144/233) with q dividing L, got {self.b!r}"
                )
            if self.L % self.b.denominator != 0:
                raise ValueError(
                    f"periodic b={self.b} has denominator {self.b.denominator}, "
                    f"which does not divide L={self.L}"
                )
        else:
            # open chains store b as a plain float
            object.__setattr__(self, "b", float(self.b))
        for name in ("lam", "a", "t", "b", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        # |mu_i| <= 2|lam| / (1 - |a|): a finite bound keeps every site finite, at no cost in L
        if not math.isfinite(2.0 * abs(self.lam) / (1.0 - abs(self.a))):
            raise ValueError(f"the on-site potential overflows at lambda = {self.lam!r}, a = {self.a!r}: "
                             "its bound 2|lambda| / (1 - |a|) is not finite")


def _phase(spec: LatticeSpec, i):
    """Potential phase 2*pi*b*i + phi for 1-based site index i (scalar or array)."""
    return 2.0 * math.pi * float(spec.b) * i + spec.phi


def potential_values(spec: LatticeSpec) -> np.ndarray:
    """On-site energies mu_i = 2*lam*cos(theta_i) / (1 - a*cos(theta_i)), theta_i = 2*pi*b*i + phi, of
    every site, as a length-L array: the 1-based site i at entry i-1."""
    c = np.cos(_phase(spec, np.arange(1, spec.L + 1)))
    return 2.0 * spec.lam * c / (1.0 - spec.a * c)


def build_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Dense real symmetric L x L single-particle Hamiltonian.

    Diagonal carries the on-site potential, first off-diagonals the hopping -t,
    and periodic boundaries add the wrap bond (1, L).
    """
    L = spec.L
    h = np.zeros((L, L))
    np.fill_diagonal(h, potential_values(spec))
    idx = np.arange(L - 1)
    h[idx, idx + 1] = -spec.t
    h[idx + 1, idx] = -spec.t
    if spec.boundary == "periodic":
        h[0, L - 1] = -spec.t
        h[L - 1, 0] = -spec.t
    return h
