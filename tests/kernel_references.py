"""The spectral routines of `gaussian.entropies` applied to one block at a time: exact references."""

import numpy as np

from gaaquench import gaussian

# what gaussian._kernel_routines looks up; hiding any one puts the kernel on its numpy path
KERNEL_SYMBOLS = ("scipy_cblas_zherk64_", "scipy_zhetrd_64_", "scipy_dsterf_64_")


def side_spectra(block, lead=False):
    """The kernel's routine (_SideSpectra) on one side block: its spectrum and, for a carrier
    (lead=True), that of its leading block, else None."""
    spectra = gaussian._SideSpectra(gaussian._kernel_routines(), block.shape[0], 1)
    nu, lead_nu = spectra(np.asarray(block)[None], 1, (slice(None), slice(None)), lead)
    return nu[0].copy(), None if lead_nu is None else lead_nu[0].copy()


def kernel_entropy(block, log_base="natural"):
    """The entropy the kernel gives a side in no pair: its lone-side routine where the kernel routines
    are found, stacked eigvalsh (entropy_of_block) where not; 0 for the empty side."""
    if gaussian._kernel_routines() is None or block.shape[0] == 0:
        return gaussian.entropy_of_block(block, log_base)
    return float(gaussian._binary_entropies(side_spectra(block)[0], log_base))
