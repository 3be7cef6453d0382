"""Many-body references that only the tests use: one-shot direct paths built on `gaaquench.oracle`."""

import numpy as np

from gaaquench.gaussian import reference_information
from gaaquench.oracle import FockBasis, exact_entropy


def exact_mutual_information(state: np.ndarray, basis: FockBasis, a_modes, r_mode: int) -> float:
    """I(A:R) in bits from exact reduced density matrices."""
    mi = reference_information([a_modes], r_mode, lambda sets: [exact_entropy(state, basis, x, "two") for x in sets])
    return float(mi[0])
