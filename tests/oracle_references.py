"""Many-body references that only the tests use: one-shot direct paths and the
full Fock space, built on `gaaquench.oracle`."""

import numpy as np

from gaaquench.gaussian import reference_information
from gaaquench.oracle import FockBasis, _check_modes, exact_entropy


def exact_mutual_information(state: np.ndarray, basis: FockBasis, a_modes, r_mode: int) -> float:
    """I(A:R) in bits from exact reduced density matrices."""
    mi = reference_information([a_modes], r_mode, lambda sets: [exact_entropy(state, basis, x) for x in sets])
    return float(mi[0])


def full_basis(modes: int) -> FockBasis:
    """Every ket over `modes` modes, at any particle number."""
    _check_modes(modes)
    return FockBasis(modes, None, tuple(range(2**modes)))
