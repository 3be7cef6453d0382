"""References for `gaussian.entropies`: its spectral routines applied to one block at a time, and the
bare textbook path (the entropy of one restricted block, Peschel 2003) built from package names alone."""

import numpy as np

from gaaquench import _blas, gaussian

# what _blas._kernel_routines looks up; hiding any one puts the kernel on its numpy path
KERNEL_SYMBOLS = ("scipy_cblas_zherk64_", "scipy_zhetrd_64_", "scipy_dsterf_64_")


def side_spectra(block, lead=False):
    """The kernel's routine (_SideSpectra) on one side block, the whole block of a one-time stack: its
    spectrum and, for a carrier (lead=True), that of its leading block, else None."""
    m = block.shape[0]
    group = gaussian._RowGroup(set(range(m)), [(tuple(range(m)), [0], [1] if lead else None)], 1)
    stack = np.array(block, dtype=complex, order="C")[None]  # a copy: the routine reduces it in place
    spectra = gaussian._SideSpectra(_blas._kernel_routines(), group, stack)
    table = spectra(1)
    (side, _), *leads = spectra.segments
    return table[0, side].copy(), table[0, leads[0][0]].copy() if lead else None


def kernel_entropy(block):
    """The entropy the kernel gives a side in no pair: its lone-side routine where the kernel routines
    are found, stacked eigvalsh (entropy_of_block) where not; 0 for the empty side."""
    if _blas._kernel_routines() is None or block.shape[0] == 0:
        return gaussian.entropy_of_block(block)
    return float(gaussian._binary_entropies(side_spectra(block)[0]))


def bare_entropy(c, sites):
    """Entropy of the modes `sites` (1-based) of a CorrelationMatrix: entropy_of_block of its restricted
    block, with none of the kernel's side choice, pairing or LAPACK path."""
    idx = gaussian._site_indices(sites, c.dim)
    return gaussian.entropy_of_block(c.matrix[np.ix_(idx, idx)])


def bare_information(c, a_sites):
    """I(A:R) in bits of a CorrelationMatrix with a reference mode, through reference_information on
    the bare entropies of the three sets (no purity is assumed)."""
    mi = gaussian.reference_information([a_sites], c.reference_index,
                                        lambda sets: [bare_entropy(c, x) for x in sets])
    return float(mi[0])
