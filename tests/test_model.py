import math
from fractions import Fraction

import numpy as np
import pytest

from gaaquench.model import GOLDEN_INVERSE, LatticeSpec, build_hamiltonian, potential, potential_values


class TestLatticeSpec:
    def test_defaults(self):
        spec = LatticeSpec(L=10, lam=1.0, a=0.3)
        assert spec.t == 1.0
        assert spec.phi == 0.0
        assert spec.boundary == "open"
        assert spec.b == pytest.approx(GOLDEN_INVERSE)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(L=1, lam=1.0, a=0.0),
            dict(L=10, lam=1.0, a=0.0, t=0.0),
            dict(L=10, lam=1.0, a=1.0),
            dict(L=10, lam=1.0, a=-1.2),
            dict(L=10, lam=1.0, a=0.0, boundary="twisted"),
            dict(L=8, lam=float("nan")),
            dict(L=8, lam=1.0, a=float("nan")),
            dict(L=8, lam=1.0, t=float("inf")),
            dict(L=8, lam=1.0, b=float("nan")),
            dict(L=8, lam=1.0, phi=float("nan")),
            dict(L=8, lam=1e308),  # finite, but 2 * lam overflows the potential to inf
            dict(L=8, lam=-1e308, a=0.3),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LatticeSpec(**kwargs)

    def test_periodic_requires_rational_b(self):
        with pytest.raises(ValueError):
            LatticeSpec(L=233, lam=1.0, a=0.3, boundary="periodic", b=GOLDEN_INVERSE)
        with pytest.raises(ValueError):
            LatticeSpec(L=10, lam=1.0, a=0.3, boundary="periodic", b=Fraction(1, 3))
        spec = LatticeSpec(L=233, lam=1.0, a=0.3, boundary="periodic", b=Fraction(144, 233))
        assert spec.b == Fraction(144, 233)

    def test_open_boundary_coerces_b_to_float(self):
        spec = LatticeSpec(L=4, lam=1.0, a=0.0, b=Fraction(1, 2))
        assert isinstance(spec.b, float)
        assert spec.b == 0.5


class TestPotential:
    def test_aa_limit_cosine(self):
        # a = 0 with b = 1/2: cos(2*pi*i/2) = +1 at even i
        spec = LatticeSpec(L=4, lam=1.0, a=0.0, b=0.5)
        assert potential(spec, 2) == pytest.approx(2.0)

    def test_deformed_cos_plus_one(self):
        spec = LatticeSpec(L=4, lam=1.0, a=0.5, b=0.5)
        assert potential(spec, 2) == pytest.approx(4.0)

    def test_deformed_cos_minus_one(self):
        spec = LatticeSpec(L=4, lam=1.0, a=0.5, b=0.5)
        assert potential(spec, 1) == pytest.approx(-4.0 / 3.0)

    def test_site_index_range_enforced(self):
        spec = LatticeSpec(L=4, lam=1.0, a=0.0)
        with pytest.raises(ValueError):
            potential(spec, 0)
        with pytest.raises(ValueError):
            potential(spec, 5)

    def test_reduces_to_plain_cosine_at_a_zero(self):
        spec = LatticeSpec(L=50, lam=0.7, a=0.0, phi=0.4)
        for i in (1, 7, 23, 50):
            expected = 2 * 0.7 * math.cos(2 * math.pi * GOLDEN_INVERSE * i + 0.4)
            assert potential(spec, i) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("lam,a", [(1.0, 0.3), (2.5, -0.7), (0.3, 0.9)])
    def test_amplitude_bound(self, lam, a):
        spec = LatticeSpec(L=100, lam=lam, a=a)
        mu = potential_values(spec)
        assert np.all(np.abs(mu) <= 2 * abs(lam) / (1 - abs(a)) + 1e-12)

    def test_rational_b_periodicity(self):
        # q = 4 divides L = 8: the potential repeats with period q
        spec = LatticeSpec(L=8, lam=1.3, a=0.4, boundary="periodic", b=Fraction(1, 4))
        mu = potential_values(spec)
        assert mu[:4] == pytest.approx(mu[4:], abs=1e-12)

    def test_zero_strength_any_deformation(self):
        spec = LatticeSpec(L=12, lam=0.0, a=0.5)
        assert potential_values(spec) == pytest.approx(np.zeros(12))


class TestBuildHamiltonian:
    def test_hopping_dimer(self):
        spec = LatticeSpec(L=2, lam=0.0, a=0.0)
        assert np.array_equal(build_hamiltonian(spec), [[0.0, -1.0], [-1.0, 0.0]])

    def test_three_site_ring(self):
        spec = LatticeSpec(L=3, lam=0.0, a=0.0, boundary="periodic", b=Fraction(1, 3))
        h = build_hamiltonian(spec)
        expected = -(np.ones((3, 3)) - np.eye(3))
        assert np.array_equal(h, expected)

    def test_diagonal_is_potential(self):
        spec = LatticeSpec(L=20, lam=1.5, a=0.3, phi=0.2)
        h = build_hamiltonian(spec)
        for i in range(1, 21):
            assert h[i - 1, i - 1] == potential(spec, i)

    @pytest.mark.parametrize("boundary,b", [("open", GOLDEN_INVERSE), ("periodic", Fraction(7, 12))])
    def test_exactly_symmetric(self, boundary, b):
        spec = LatticeSpec(L=12, lam=0.8, a=-0.4, boundary=boundary, b=b)
        h = build_hamiltonian(spec)
        assert np.max(np.abs(h - h.T)) == 0.0

    def test_open_chain_has_no_wrap_bond(self):
        spec = LatticeSpec(L=5, lam=0.0, a=0.0)
        h = build_hamiltonian(spec)
        assert h[0, 4] == 0.0 and h[4, 0] == 0.0
