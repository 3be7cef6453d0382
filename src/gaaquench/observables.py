"""Measurement protocols built on the Gaussian quench machinery.

Covers the half-chain entanglement-entropy time series, the early-time growth
velocity (least-squares slope over a fit window), the late-time saturation
value (mean over jittered sample times after a long burn-in), finite-size
scaling of the saturation entropy, steady-state information-capacity profiles
I(A:R) versus subsystem size for center- or edge-coupled references, and the
small-subsystem jump value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import QuenchSetup, _integer, entropies, quench_evolution, reference_information

COUPLINGS = ("center", "edge")

JUMP_SIZE = 5  # subsystem size probing information trapped by localized modes

# most points of a config grid or of a point's time table: far above the paper's 21-point lambda grid
# and its 1000 sample times
MAX_POINTS = 10**5

# latest time of a sample, a fit window or a time table: 50 times the paper's 2e4, and the last decade where
# the kernel meets the oracle's 1e-8 (9.0e-9 at worst, 9e-8 at 1e7); inf or 1e308 would turn blocks into NaN
MAX_TIME = 1e6

_WINDOW_TOL = 1e-12  # a sample time this far outside the fit window still counts as inside


@dataclass(frozen=True)
class SamplingProtocol:
    """Numeric extraction parameters for velocity fits and steady-state averages.

    The saturation stage is sampled at n_samples times starting from burn_in,
    with consecutive spacings drawn from Uniform[mean_interval - jitter,
    mean_interval + jitter] using the given seed.
    """

    fit_window: tuple[float, float] = (0.0, 20.0)
    fit_dt: float = 0.5
    burn_in: float = 10000.0
    n_samples: int = 1000
    mean_interval: float = 10.0
    jitter: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("fit_window", "fit_dt", "burn_in", "mean_interval", "jitter"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        lo, hi = self.fit_window
        if lo < 0 or hi <= lo:
            raise ValueError(f"fit window must satisfy 0 <= start < stop, got {self.fit_window}")
        if self.fit_dt <= 0:
            raise ValueError("fit_dt must be positive")
        if not (hi - lo) / self.fit_dt < MAX_POINTS - 0.5:  # the rounded count, as for a config grid
            raise ValueError(f"fit window {self.fit_window} at fit_dt {self.fit_dt} holds more than {MAX_POINTS} times")
        if not lo + self.fit_dt <= hi + _WINDOW_TOL:  # the second time of fit_window_times, as early_velocity masks it
            raise ValueError(f"fit_window {self.fit_window} is shorter than fit_dt {self.fit_dt}: "
                             "a velocity fit needs 2 samples inside it")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be non-negative, got {self.burn_in}")
        if not 2 <= _integer("n_samples", self.n_samples) <= MAX_POINTS:
            raise ValueError(f"n_samples must lie in 2..{MAX_POINTS}, got {self.n_samples}")
        if _integer("seed", self.seed) < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.mean_interval > self.jitter >= 0:
            raise ValueError("need mean_interval > jitter >= 0")
        if hi > MAX_TIME:
            raise ValueError(f"fit_window ends at {hi:g}, after the latest time {MAX_TIME:g}")
        last = self.burn_in + self.n_samples * (self.mean_interval + self.jitter)  # no sample time is later
        if not last <= MAX_TIME:
            raise ValueError(f"sample times reach burn_in + n_samples * (mean_interval + jitter) = {last:g}, "
                             f"after the latest time {MAX_TIME:g}")


def sample_times(protocol: SamplingProtocol) -> np.ndarray:
    """Steady-state sample times: burn_in plus cumulative jittered spacings."""
    rng = np.random.default_rng(protocol.seed)
    spacings = rng.uniform(
        protocol.mean_interval - protocol.jitter,
        protocol.mean_interval + protocol.jitter,
        protocol.n_samples,
    )
    return protocol.burn_in + np.cumsum(spacings)


def fit_window_times(protocol: SamplingProtocol) -> np.ndarray:
    lo, hi = protocol.fit_window
    return np.arange(lo, hi + 0.5 * protocol.fit_dt, protocol.fit_dt)


@dataclass
class EETimeSeries:
    """Half-chain entanglement entropy S(t) in natural-log units."""

    times: np.ndarray
    entropies: np.ndarray


@dataclass
class SicProfile:
    """Steady-state I(A:R) in bits versus subsystem size |A|."""

    coupling: str
    sizes: np.ndarray
    mi: np.ndarray
    boundary: str

    def __post_init__(self):
        self.sizes = np.asarray([_integer("a subsystem size", size) for size in self.sizes], dtype=int)
        self.mi = np.asarray(self.mi, dtype=float)
        if self.sizes.shape != self.mi.shape:
            raise ValueError("sizes and mi must have matching lengths")
        if not np.all((self.mi >= -1e-9) & (self.mi <= 2.0 + 1e-9)):  # a NaN fails too
            raise ValueError("mutual information must lie in [0, 2] bits")


def half_chain_sites(L: int) -> list[int]:
    return list(range(1, L // 2 + 1))


def ee_timeseries(setup: QuenchSetup, times) -> EETimeSeries:
    """Half-chain entropy (sites 1..L/2, natural log) at each requested time."""
    if setup.reference_site is not None:
        raise ValueError("entropy time series expects a plain chain without a reference mode")
    times = np.asarray(times, dtype=float)
    values = entropies(quench_evolution(setup), [half_chain_sites(setup.spec.L)], times)
    return EETimeSeries(times, values[:, 0])


def early_velocity(series: EETimeSeries, protocol: SamplingProtocol) -> float:
    """Least-squares slope of S versus t restricted to the protocol's fit window."""
    lo, hi = protocol.fit_window
    mask = (series.times >= lo - _WINDOW_TOL) & (series.times <= hi + _WINDOW_TOL)
    if np.count_nonzero(mask) < 2:
        raise ValueError("fewer than 2 samples inside the fit window")
    return float(np.polyfit(series.times[mask], series.entropies[mask], 1)[0])


def quench_velocity(setup: QuenchSetup, protocol: SamplingProtocol) -> float:
    """Early-time growth velocity from a fresh time series on the fit-window grid."""
    return early_velocity(ee_timeseries(setup, fit_window_times(protocol)), protocol)


def saturation_value(setup: QuenchSetup, protocol: SamplingProtocol) -> float:
    """Saturation entropy: mean half-chain entropy in nats over the protocol's steady-state sample times."""
    return float(np.mean(ee_timeseries(setup, sample_times(protocol)).entropies))


def fit_power_law(sizes, values) -> tuple[float, float]:
    """Exponent alpha and its standard error from an ln-ln least-squares fit.

    The error is the OLS slope error sqrt(sum(resid^2) / (n - 2) / Sxx), taken
    from the residuals directly so that an exact fit (a constant or an exact
    power law) reports 0 rather than NaN.
    """
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if sizes.size < 3:
        raise ValueError("power-law fit needs at least 3 sizes")
    if not (np.isfinite(sizes).all() and np.isfinite(values).all()):
        raise ValueError("power-law fit needs finite sizes and values")
    if np.any(sizes <= 0):
        raise ValueError("power-law fit needs positive sizes")
    if np.any(values <= 0):
        raise ValueError("non-positive saturation values are unfittable (localized freeze-out)")
    x, y = np.log(sizes), np.log(values)
    dx, dy = x - x.mean(), y - y.mean()
    sxx = float(dx @ dx)
    if sxx == 0:
        raise ValueError("power-law fit needs at least two distinct sizes")
    slope = float(dx @ dy) / sxx
    resid = dy - slope * dx
    stderr = float(np.sqrt((resid @ resid) / (sizes.size - 2) / sxx))
    return slope, stderr


def reference_site_for(L: int, coupling: str) -> int:
    """Chain site the reference couples to: the center L/2 or the edge 1."""
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be one of {COUPLINGS}, got {coupling!r}")
    return L // 2 if coupling == "center" else 1


def subsystem_window(L: int, coupling: str, size: int) -> list[int]:
    """The |A| sites probed at this size: centered on L/2 (left-biased, shifted
    to fit the chain at the |A| = L endpoint) or anchored at the edge."""
    if not 0 <= _integer("subsystem size", size) <= L:
        raise ValueError(f"subsystem size {size} outside 0..{L}")
    if size == 0:
        return []
    if coupling == "edge":
        return list(range(1, size + 1))
    e = reference_site_for(L, coupling)
    start = e - size // 2
    end = e + (size - 1) // 2
    if start < 1:
        start, end = 1, size
    elif end > L:
        start, end = L - size + 1, L
    return list(range(start, end + 1))


def information_table(setup: QuenchSetup, windows, times) -> np.ndarray:
    """I(A:R) in bits of each window (1-based sites) with the setup's reference mode: array [n_times, n_windows]."""
    ev = quench_evolution(setup)
    return reference_information(windows, ev.reference_index, lambda sets: entropies(ev, sets, times))


def sic_profile(
    setup: QuenchSetup,
    sizes,
    coupling: str,
    protocol: SamplingProtocol,
) -> SicProfile:
    """Steady-state I(A:R) in bits for each |A|, averaged over the protocol's sample times."""
    L = setup.spec.L
    expected = reference_site_for(L, coupling)
    if setup.reference_site != expected:
        raise ValueError(
            f"{coupling} coupling expects the reference at site {expected}, "
            f"got {setup.reference_site}"
        )
    sizes = sorted(sizes)
    windows = [subsystem_window(L, coupling, s) for s in sizes]
    mi = information_table(setup, windows, sample_times(protocol))
    return SicProfile(coupling, np.asarray(sizes), mi.mean(axis=0), setup.spec.boundary)


def sic_jump(profile: SicProfile) -> float:
    """The profile value at the small probe size |A| = 5."""
    hits = np.flatnonzero(profile.sizes == JUMP_SIZE)
    if hits.size == 0:
        raise ValueError(f"profile does not contain |A| = {JUMP_SIZE}")
    return float(profile.mi[hits[0]])


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equal-length samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("pearson needs two equal-length samples of size >= 3")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):  # n_e and n_l are NaN at the AA critical point
        raise ValueError("pearson needs finite samples")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ValueError("degenerate variance")
    dx, dy = x - x.mean(), y - y.mean()
    return float(np.clip(dx @ dy / np.sqrt((dx @ dx) * (dy @ dy)), -1.0, 1.0))
