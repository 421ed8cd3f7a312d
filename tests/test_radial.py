import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wzernike.radial import (
    N_MAX,
    RadialIndex,
    build_radial,
    ode_residual,
    radial_eval,
    radial_exact,
    radial_family,
    recurrence_coefficients,
    recurrence_residual,
)


def valid_indices(n_max):
    return [(n, m) for n in range(n_max + 1) for m in range(n % 2, n + 1, 2)]


class TestIndexValidation:
    def test_parity_violation(self):
        with pytest.raises(ValueError, match="parity"):
            RadialIndex(3, 2)

    def test_bound_violation(self):
        with pytest.raises(ValueError, match=r"\|m\| <= n"):
            RadialIndex(2, 4)

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="non-negative"):
            RadialIndex(-1, 1)

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="cap"):
            RadialIndex(62, 0)

    def test_negative_m_allowed(self):
        assert RadialIndex(4, -2).m == -2


class TestBuild:
    def test_constant(self):
        assert build_radial(RadialIndex(0, 0)).coeffs == (1,)

    def test_defocus(self):
        # R_2^0 = 2 r^2 - 1, expanded by hand from the binomial formula
        assert build_radial(RadialIndex(2, 0)).coeffs == (2, -1)

    def test_n4_m2(self):
        # R_4^2 = 4 r^4 - 3 r^2
        poly = build_radial(RadialIndex(4, 2))
        assert poly.coeffs == (4, -3)
        assert poly.exponents == (4, 2)

    def test_sign_of_m_irrelevant(self):
        assert build_radial(RadialIndex(6, -4)).coeffs == build_radial(RadialIndex(6, 4)).coeffs

    def test_only_matching_parity_exponents(self):
        poly = build_radial(RadialIndex(7, 3))
        assert all(e % 2 == 1 for e in poly.exponents)

    def test_unit_at_one_exact(self):
        for n, m in valid_indices(N_MAX):
            assert sum(build_radial(RadialIndex(n, m)).coeffs) == 1


class TestEval:
    def test_value_at_one(self):
        assert radial_eval(RadialIndex(6, 2), 1.0) == 1.0

    def test_defocus_half(self):
        assert radial_eval(RadialIndex(2, 0), 0.5) == -0.5

    def test_coma_negative_argument(self):
        # R_3^1 = 3 r^3 - 2 r: -0.625 at 0.5, parity flips the sign
        index = RadialIndex(3, 1)
        assert radial_eval(index, 0.5) == pytest.approx(-0.625, abs=1e-15)
        assert radial_eval(index, -0.5) == pytest.approx(0.625, abs=1e-15)

    def test_domain_rejection(self):
        with pytest.raises(ValueError, match="domain"):
            radial_eval(RadialIndex(2, 0), 1.5)

    def test_array_input(self):
        vals = radial_eval(RadialIndex(2, 0), np.array([0.0, 0.5, 1.0]))
        assert np.allclose(vals, [-1.0, -0.5, 1.0])

    @given(
        st.integers(0, 20),
        st.integers(0, 20),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_parity_and_bound(self, half_deg, m_half, r):
        n = 2 * half_deg + (m_half % 2)
        m = min(2 * (m_half // 2) + (m_half % 2), n)
        if (n - m) % 2:
            m -= 1
        index = RadialIndex(n, m)
        left = radial_eval(index, -r)
        right = (-1) ** n * radial_eval(index, r)
        assert left == pytest.approx(right, abs=1e-12)
        assert abs(radial_eval(index, r)) <= 1 + 1e-12


class TestJacobiOracle:
    """The recurrence against exact integer evaluation at dyadic radii."""

    def test_constant(self):
        for k in (0, 19, 64):
            assert radial_exact(build_radial(RadialIndex(0, 0)), k, 6) == 1.0

    def test_matches_explicit_value(self):
        assert radial_exact(build_radial(RadialIndex(4, 2)), 1, 1) == -0.5

    def test_cross_oracle_agreement(self):
        index = RadialIndex(10, 4)
        a = radial_eval(index, 19 / 64)
        b = radial_exact(build_radial(index), 19, 6)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_grid_agreement_high_degree(self):
        grid = np.arange(33) / 32
        for n, m in valid_indices(N_MAX):
            index = RadialIndex(n, m)
            a = radial_eval(index, grid)
            poly = build_radial(index)
            b = np.array([radial_exact(poly, k, 5) for k in range(33)])
            assert np.max(np.abs(a - b) / np.maximum(1, np.abs(b))) <= 1e-10

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="domain"):
            radial_exact(build_radial(RadialIndex(2, 0)), -1, 4)

    def test_family_yields_every_degree_of_the_order(self):
        r = np.arange(9) / 8
        rows = list(radial_family(3, 12, r))
        assert [n for n, _ in rows] == [3, 5, 7, 9, 11]
        for n, row in rows:
            exact = [radial_exact(build_radial(RadialIndex(n, 3)), k, 3) for k in range(9)]
            assert np.max(np.abs(row * r**3 - exact)) <= 1e-14

    def test_family_enforces_degree_cap(self):
        with pytest.raises(ValueError, match="cap"):
            list(radial_family(0, N_MAX + 2, np.array([0.5])))


class TestRecurrence:
    def test_coefficient_spot_check(self):
        assert recurrence_coefficients(3, 1) == (0.75, 0.25)

    def test_residual_small(self):
        assert recurrence_residual(RadialIndex(2, 0), 0.7) <= 1e-14

    def test_diagonal_case_drops_lower_term(self):
        a, b = recurrence_coefficients(3, 3)
        assert b == 0.0
        assert recurrence_residual(RadialIndex(3, 3), 0.9) <= 1e-14

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError, match="n >= 1"):
            recurrence_residual(RadialIndex(0, 0), 0.5)


class TestOdeResidual:
    def test_defocus(self):
        assert ode_residual(RadialIndex(2, 0), 0.5, 1e-4) <= 1e-6

    def test_constant_mode(self):
        assert ode_residual(RadialIndex(0, 0), 0.3, 1e-4) <= 1e-12

    def test_higher_degree(self):
        assert ode_residual(RadialIndex(5, 3), 0.4, 1e-4) <= 1e-5

    def test_rejects_near_origin(self):
        with pytest.raises(ValueError, match="too close"):
            ode_residual(RadialIndex(2, 0), 1e-6, 1e-4)

    def test_rejects_near_boundary(self):
        with pytest.raises(ValueError, match="too close"):
            ode_residual(RadialIndex(2, 0), 0.99999, 1e-4)


class TestOrthogonality:
    def test_discrete_orthogonality_fixed_m(self):
        n_max = 20
        x, wt = np.polynomial.legendre.leggauss(n_max // 2 + 1)
        r = np.sqrt((x + 1) / 2)
        w = wt / 4
        for m in (0, 3, 8):
            degrees = range(m, n_max + 1, 2)
            vals = {n: radial_eval(RadialIndex(n, m), r) for n in degrees}
            for n in degrees:
                for n2 in degrees:
                    got = float(np.sum(vals[n] * vals[n2] * w))
                    want = 1 / (2 * (n + 1)) if n == n2 else 0.0
                    assert abs(got - want) <= 1e-12

    def test_extended_domain_orthogonality(self):
        # symmetric extension to [-1, 1] with |r| weight and (n+1) factor
        n_max = 14
        x, wt = np.polynomial.legendre.leggauss(n_max // 2 + 1)
        r = np.sqrt((x + 1) / 2)
        w = wt / 4
        r_full = np.concatenate([-r, r])
        w_full = np.concatenate([w, w])
        for m in (0, 2, 5):
            degrees = range(m, n_max + 1, 2)
            for n in degrees:
                for n2 in degrees:
                    a = radial_eval(RadialIndex(n, m), r_full)
                    b = radial_eval(RadialIndex(n2, m), r_full)
                    got = float(np.sum(a * (n + 1) * b * w_full))
                    want = 1.0 if n == n2 else 0.0
                    assert abs(got - want) <= 1e-12
