"""Generator calculus: closed forms, conjugate duality, divergences."""

import dataclasses
import math

import numpy as np
import pytest
from dense_reference import dense_psi_pair, dense_psi_prime, dense_psi_second
from hypothesis import given, settings
from hypothesis import strategies as st

from betaot import (
    DomainError,
    Potential,
    beta_potential,
    bregman_div,
    phi,
    phi_prime,
    psi_prime,
    psi_second,
    shannon,
    squared_euclidean,
)
from betaot.potentials import psi_pair


class TestConstruction:
    def test_beta_requires_strictly_greater_than_one(self):
        for bad in (1.0, 0.9, 0.0, -2.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                beta_potential(bad)

    def test_beta_domain_bound(self):
        pot = beta_potential(1.2)
        assert pot.domain_lower_dual == 1.0 / (1.0 - 1.2)
        assert pot.clamp_bound == pot.domain_lower_dual
        assert not pot.is_cofinite

    def test_cofinite_kinds(self):
        assert shannon().is_cofinite
        assert squared_euclidean().is_cofinite
        assert shannon().domain_lower_dual == -math.inf
        assert squared_euclidean().domain_lower_dual == -math.inf
        assert squared_euclidean().clamp_bound == -1.0

    @settings(max_examples=200, deadline=None)
    @given(beta=st.one_of(st.floats(1.0, 300.0, exclude_min=True), st.integers(2, 300),
                          st.sampled_from([np.float64(1.5), np.float32(2.5), "1.2"])))
    def test_bounds_are_derived_from_beta(self, beta):
        pot = Potential("beta", beta)
        assert pot == beta_potential(beta)
        assert dataclasses.astuple(pot) == ("beta", float(beta))
        bound = np.float64(1.0 / (1.0 - float(beta))).tobytes()
        for value in (pot.domain_lower_dual, pot.clamp_bound, phi_prime(0.0, pot)):
            assert np.float64(value).tobytes() == bound
        assert not pot.is_cofinite

    def test_two_fields_and_no_settable_bound(self):
        assert [f.name for f in dataclasses.fields(Potential)] == ["kind", "beta"]
        with pytest.raises(TypeError):
            Potential("beta", 1.5, domain_lower_dual=-math.inf)
        with pytest.raises(dataclasses.FrozenInstanceError):
            beta_potential(1.5).beta = 3.0

    @pytest.mark.parametrize("kind, beta", [
        ("typo", None), ("Beta", 1.5), ("beta", 1.0), ("beta", 0.5), ("beta", -2.0),
        ("beta", math.inf), ("beta", math.nan), ("beta", None), ("shannon", 1.2),
        ("sq_euclidean", 2.0),
    ])
    def test_inconsistent_generators_cannot_be_built(self, kind, beta):
        with pytest.raises(DomainError):
            Potential(kind, beta)

    def test_the_bound_of_the_beta_kind_holds(self):
        # A stored bound once read -inf here, and psi_prime returned 0.0.
        with pytest.raises(DomainError):
            psi_prime(-5.0, Potential("beta", 1.5))


class TestGeneratorValues:
    def test_phi_at_one_is_zero_for_all_kinds(self):
        for pot in (beta_potential(1.2), beta_potential(2.0), shannon(), squared_euclidean()):
            assert phi(1.0, pot) == pytest.approx(0.0, abs=1e-15)

    def test_phi_shannon_at_zero_is_one(self):
        # limit of p*log(p) at 0 is 0, so the value is 0 - 0 + 1
        assert phi(0.0, shannon()) == 1.0

    def test_phi_beta2_at_two(self):
        # (2^2 - 2*2 + 1) / (2*1) = 1/2
        assert phi(2.0, beta_potential(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_phi_domain_errors(self):
        with pytest.raises(DomainError):
            phi(-0.5, beta_potential(1.5))
        with pytest.raises(DomainError):
            phi(-0.5, shannon())
        # squared Euclidean accepts any real
        assert phi(-0.5, squared_euclidean()) == pytest.approx(1.125)


class TestGeneratorDerivative:
    def test_phi_prime_at_one_is_zero(self):
        for pot in (beta_potential(1.5), beta_potential(3.0), shannon(), squared_euclidean()):
            assert phi_prime(1.0, pot) == pytest.approx(0.0, abs=1e-15)

    def test_phi_prime_beta_at_zero_hits_dual_boundary(self):
        pot = beta_potential(1.2)
        value = phi_prime(0.0, pot)
        assert value == pot.domain_lower_dual
        assert value == pytest.approx(-5.0, rel=1e-12)

    def test_phi_prime_beta2_halfway(self):
        # (0.5 - 1) / 1
        assert phi_prime(0.5, beta_potential(2.0)) == -0.5

    def test_phi_prime_shannon_zero_is_minus_inf_sentinel(self):
        assert phi_prime(0.0, shannon()) == -math.inf

    def test_phi_prime_strictly_increasing(self):
        grid = np.linspace(0.01, 10.0, 500)
        for pot in (beta_potential(1.2), beta_potential(2.5), shannon(), squared_euclidean()):
            values = phi_prime(grid, pot)
            assert np.all(np.diff(values) > 0)


class TestConjugateDerivatives:
    def test_psi_prime_at_zero_is_one(self):
        # ((beta-1)*0 + 1)^(1/(beta-1)) = 1
        assert psi_prime(0.0, beta_potential(1.7)) == 1.0

    def test_psi_prime_beta15(self):
        # (0.5*1 + 1)^2 = 2.25
        assert psi_prime(1.0, beta_potential(1.5)) == pytest.approx(2.25, rel=1e-15)

    def test_psi_prime_boundary_is_exactly_zero(self):
        for b in (1.2, 1.5, 2.0, 3.0):
            pot = beta_potential(b)
            assert psi_prime(pot.domain_lower_dual, pot) == 0.0

    def test_psi_prime_below_domain_raises(self):
        pot = beta_potential(1.2)
        with pytest.raises(DomainError):
            psi_prime(pot.domain_lower_dual - 1e-9, pot)
        with pytest.raises(DomainError):
            psi_second(pot.domain_lower_dual - 1e-9, pot)

    def test_psi_second_beta2_at_zero(self):
        assert psi_second(0.0, beta_potential(2.0)) == 1.0

    def test_psi_second_beta15_at_one(self):
        # (1.5)^(0.5/0.5)
        assert psi_second(1.0, beta_potential(1.5)) == pytest.approx(1.5, rel=1e-15)

    def test_psi_second_boundary_zero_for_all_beta(self):
        # exact limit below beta=2, documented convention at and above
        for b in (1.2, 1.9, 2.0, 2.7):
            pot = beta_potential(b)
            assert psi_second(pot.domain_lower_dual, pot) == 0.0

    def test_cofinite_conjugates(self):
        t = np.array([-3.0, 0.0, 2.0])
        np.testing.assert_allclose(psi_prime(t, shannon()), np.exp(t))
        np.testing.assert_allclose(psi_second(t, shannon()), np.exp(t))
        np.testing.assert_allclose(psi_prime(t, squared_euclidean()), t + 1.0)
        np.testing.assert_allclose(psi_second(t, squared_euclidean()), np.ones(3))


class TestConjugateDuality:
    def test_roundtrip_phi_prime_of_psi_prime(self):
        """phi'(psi'(t)) = t strictly inside the conjugate domain."""
        rng = np.random.default_rng(11)
        for _ in range(1000):
            b = rng.uniform(1.1, 3.0)
            pot = beta_potential(b)
            t = pot.domain_lower_dual + rng.uniform(0.01, 50.0)
            back = phi_prime(psi_prime(t, pot), pot)
            assert abs(back - t) <= 1e-9 * max(1.0, abs(t))

    def test_psi_second_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-5
        for _ in range(300):
            b = rng.uniform(1.1, 3.0)
            pot = beta_potential(b)
            t = pot.domain_lower_dual + rng.uniform(0.1, 20.0)
            numeric = (psi_prime(t + h, pot) - psi_prime(t - h, pot)) / (2 * h)
            analytic = psi_second(t, pot)
            assert abs(analytic - numeric) / max(1.0, analytic) <= 1e-5

    def test_psi_prime_nondecreasing_on_grids(self):
        for b in (1.15, 1.5, 2.0, 2.8):
            pot = beta_potential(b)
            grid = pot.domain_lower_dual + np.linspace(0.0, 30.0, 2000)
            values = psi_prime(grid, pot)
            assert np.all(np.diff(values) >= 0)

    def test_psi_pair_consistent_with_separate_evaluations(self):
        rng = np.random.default_rng(13)
        for pot in (beta_potential(1.2), beta_potential(2.0), shannon(), squared_euclidean()):
            lo = max(pot.domain_lower_dual, -5.0)
            t = lo + rng.uniform(0.0, 6.0, size=(40, 7))
            ps, pss = psi_pair(t, pot)
            np.testing.assert_allclose(ps, psi_prime(t, pot), rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(pss, psi_second(t, pot), rtol=1e-12, atol=1e-300)

    @settings(max_examples=200, deadline=None)
    @given(
        beta=st.floats(1.05, 3.0, exclude_min=True),
        shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_psi_pair_bit_identical_on_boundary_mixtures(self, beta, shape, seed):
        pot = beta_potential(beta)
        lo = pot.domain_lower_dual
        rng = np.random.default_rng(seed)
        kind = rng.integers(0, 3, size=shape)
        just_above = lo + abs(np.spacing(lo)) * rng.integers(1, 64, size=shape)
        ordinary = lo + rng.exponential(3.0, size=shape)
        t = np.where(kind == 0, lo, np.where(kind == 1, just_above, ordinary))
        ps, pss = psi_pair(t, pot)
        dense_ps, dense_pss = dense_psi_pair(t, pot)
        assert np.array_equal(ps, dense_ps)
        assert np.array_equal(pss, dense_pss)
        assert np.array_equal(ps, psi_prime(t, pot))
        assert np.array_equal(psi_prime(t, pot), dense_psi_prime(t, pot))
        # psi_pair takes psi'' as psi'/base and psi_second as a power of its
        # own, equal only in exact arithmetic: each matches its dense form.
        assert np.array_equal(psi_second(t, pot), dense_psi_second(t, pot))
        assert np.all(ps[kind == 0] == 0.0) and np.all(pss[kind == 0] == 0.0)
        # NaN passes through: NaN from psi_prime and from both halves of
        # psi_pair, 0 from psi_second (whose "base > 0" is False), and
        # every other entry keeps its bits.
        nan = rng.random(shape) < 0.25
        t_nan = np.where(nan, np.nan, t)
        expected = {
            "psi_pair": (np.where(nan, np.nan, ps), np.where(nan, np.nan, pss)),
            "psi_prime": np.where(nan, np.nan, ps),
            "psi_second": np.where(nan, 0.0, psi_second(t, pot)),
        }
        for got, want in (
            (psi_pair(t_nan, pot), expected["psi_pair"]),
            (psi_prime(t_nan, pot), expected["psi_prime"]),
            (psi_second(t_nan, pot), expected["psi_second"]),
        ):
            assert np.array_equal(got, want, equal_nan=True)
        # A 0-d input gives the bits of the same entry in an array, and a
        # 0-d shape; psi_prime and psi_second give a float.
        for x in (lo, just_above.flat[0], ordinary.flat[0], np.nan):
            one = np.array([x])
            for fn in (psi_prime, psi_second):
                assert isinstance(fn(x, pot), float)
                assert np.array_equal([fn(x, pot)], fn(one, pot), equal_nan=True)
                assert np.array_equal([fn(np.array(x), pot)], fn(one, pot), equal_nan=True)
            for got, want in zip(psi_pair(np.array(x), pot), psi_pair(one, pot)):
                assert np.shape(got) == ()
                assert np.array_equal(np.reshape(got, 1), want, equal_nan=True)
        below = np.nextafter(lo, -np.inf)
        for fn in (psi_pair, psi_prime, psi_second):
            with pytest.raises(DomainError):
                fn(np.array(below), pot)
        t.flat[0] = below
        with pytest.raises(DomainError):
            psi_pair(t, pot)


class TestBregmanDivergence:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = rng.uniform(0.01, 5.0)
            assert abs(bregman_div(x, x, beta_potential(rng.uniform(1.1, 3.0)))) <= 1e-12
            assert abs(bregman_div(x, x, shannon())) <= 1e-12
            assert abs(bregman_div(x, x, squared_euclidean())) <= 1e-12

    def test_beta2_hand_value(self):
        # beta=2 reduces to half squared error: (3-1)^2 / 2
        assert bregman_div(3.0, 1.0, beta_potential(2.0)) == pytest.approx(2.0, rel=1e-15)

    def test_shannon_hand_value(self):
        # 1*log(1/e) - 1 + e = e - 2
        expected = math.e - 2.0
        assert bregman_div(1.0, math.e, shannon()) == pytest.approx(expected, rel=1e-14)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            p = rng.uniform(0.0, 5.0)
            q = rng.uniform(0.01, 5.0)
            assert bregman_div(p, q, beta_potential(rng.uniform(1.1, 3.0))) >= 0.0
            assert bregman_div(p, q, shannon()) >= 0.0
            assert bregman_div(p, q, squared_euclidean()) >= 0.0

    def test_beta2_reduces_to_half_squared_error(self):
        rng = np.random.default_rng(23)
        pot = beta_potential(2.0)
        for _ in range(1000):
            p, q = rng.uniform(0.0, 5.0, size=2)
            assert abs(bregman_div(p, q, pot) - 0.5 * (p - q) ** 2) <= 1e-12

    def test_closed_forms_match_generic_definition(self):
        """B(p||q) = phi(p) - phi(q) - (p-q) phi'(q), evaluated independently."""
        rng = np.random.default_rng(24)
        pots = [beta_potential(1.3), beta_potential(2.4), shannon(), squared_euclidean()]
        for _ in range(300):
            p = rng.uniform(0.01, 4.0)
            q = rng.uniform(0.01, 4.0)
            for pot in pots:
                generic = phi(p, pot) - phi(q, pot) - (p - q) * phi_prime(q, pot)
                assert bregman_div(p, q, pot) == pytest.approx(generic, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("pot", [beta_potential(1.2), beta_potential(3.0), shannon(),
                                     squared_euclidean()], ids=["beta 1.2", "beta 3", "shannon",
                                                                "sq_euclidean"])
    def test_nonnegative_near_zero(self, pot):
        # phi(q) rounds to phi(0) here, so the generic form is -(p - q) phi'(q)
        # alone and negative; the closed forms stay nonnegative.
        q = np.array([1e-300, 1e-310, 5e-324, 1e-200, 1e-100, 1e-20])
        p = np.zeros_like(q)
        assert np.all(bregman_div(p, q, pot) >= 0.0)
        generic = phi(p, pot) - phi(q, pot) - (p - q) * phi_prime(q, pot)
        assert np.any(generic < 0.0)
        assert all(bregman_div(0.0, x, pot) >= 0.0 for x in q)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bregman_div(-1.0, 1.0, beta_potential(1.5))
        with pytest.raises(DomainError):
            bregman_div(1.0, -1.0, beta_potential(1.5))
        with pytest.raises(DomainError):
            bregman_div(1.0, 0.0, shannon())
