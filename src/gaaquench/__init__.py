"""Quench dynamics of the generalized Aubry-Andre chain.

Spectra with a single-particle mobility edge, free-fermion entanglement
growth and saturation, subsystem information capacity, and a brute-force
many-body oracle for small sizes.
"""

from .model import GOLDEN_INVERSE, LatticeSpec, build_hamiltonian, potential
from .spectral import SpectrumData, analyze, classify, diagonalize, ipr, mobility_edge, phase_region
from .gaussian import (
    CorrelationMatrix,
    QuenchEvolution,
    QuenchSetup,
    initial_correlation,
)
from .observables import (
    EETimeSeries,
    SamplingProtocol,
    SicProfile,
    early_velocity,
    ee_timeseries,
    pearson,
    saturation_value,
    sic_jump,
    sic_profile,
)

__version__ = "0.1.0"

__all__ = [
    "GOLDEN_INVERSE",
    "LatticeSpec",
    "build_hamiltonian",
    "potential",
    "SpectrumData",
    "analyze",
    "classify",
    "diagonalize",
    "ipr",
    "mobility_edge",
    "phase_region",
    "CorrelationMatrix",
    "QuenchEvolution",
    "QuenchSetup",
    "initial_correlation",
    "EETimeSeries",
    "SamplingProtocol",
    "SicProfile",
    "early_velocity",
    "ee_timeseries",
    "pearson",
    "saturation_value",
    "sic_jump",
    "sic_profile",
    "__version__",
]
