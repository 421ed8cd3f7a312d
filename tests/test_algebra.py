import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wzernike.algebra import (
    BANDWIDTH_CAP,
    Generator,
    OperatorSpec,
    UEAMonomial,
    apply_generator,
    apply_monomial_composed,
    apply_operator,
    apply_p,
    casimir_apply,
    commutator_residual,
    expected_commutator,
    group_exponential,
    ladder_differential_residual,
    monomial_g,
    ode_mode_residual,
    p_weights,
)
from wzernike.basis import DiskPoint, ModeIndex, modes_upto
from wzernike.transform import CoeffField, build_quadrature, max_abs_diff, synthesize_on


def random_field(rng, bandwidth, integer=False):
    vals = np.zeros((bandwidth + 1, bandwidth + 1), dtype=complex)
    for u in range(bandwidth + 1):
        for v in range(bandwidth + 1 - u):
            if integer:
                vals[u, v] = complex(rng.integers(-9, 10), rng.integers(-9, 10))
            else:
                vals[u, v] = complex(rng.normal(), rng.normal())
    return CoeffField(bandwidth, vals)


class TestGenerators:
    def test_raising_weight(self):
        out = apply_generator(Generator.A_PLUS, CoeffField.basis(4, 1))
        assert out.get(5, 1) == 5.0
        assert out.l2_norm() == 5.0

    def test_lowering_annihilates_edge(self):
        out = apply_generator(Generator.A_MINUS, CoeffField.basis(0, 3))
        assert out.l2_norm() == 0.0

    def test_lowering_weight(self):
        out = apply_generator(Generator.B_MINUS, CoeffField.basis(1, 3))
        assert out.get(1, 2) == 3.0

    def test_diagonal_weight(self):
        out = apply_generator(Generator.A3, CoeffField.basis(2, 2))
        assert out.get(2, 2) == 2.5

    def test_number_operators(self):
        f = CoeffField.basis(3, 2)
        assert apply_generator(Generator.U, f).get(3, 2) == 3.0
        assert apply_generator(Generator.V, f).get(3, 2) == 2.0

    def test_raising_grows_bandwidth(self):
        f = CoeffField.basis(1, 1)
        assert apply_generator(Generator.B_PLUS, f).bandwidth == 3
        assert apply_generator(Generator.B3, f).bandwidth == 2

    def test_bandwidth_cap(self):
        f = CoeffField.zeros(BANDWIDTH_CAP)
        with pytest.raises(ValueError, match="cap"):
            apply_generator(Generator.A_PLUS, f)

    def test_adjoint_pairing(self):
        # <A+ f, g> = <f, A- g> in the plain coefficient l2 pairing
        rng = np.random.default_rng(0)
        f = random_field(rng, 5)
        g = random_field(rng, 6)
        lhs = np.vdot(apply_generator(Generator.A_PLUS, f).values,
                      g.with_bandwidth(6).values)
        rhs = np.vdot(f.with_bandwidth(6).values,
                      apply_generator(Generator.A_MINUS, g).values)
        assert lhs == pytest.approx(rhs)


class TestCommutators:
    def test_su11_bracket(self):
        assert expected_commutator(Generator.A_PLUS, Generator.A_MINUS) == (
            -2.0, Generator.A3,
        )

    def test_reversed_bracket_negates(self):
        assert expected_commutator(Generator.A_MINUS, Generator.A_PLUS) == (
            2.0, Generator.A3,
        )

    def test_cross_family_commutes(self):
        assert expected_commutator(Generator.A_PLUS, Generator.B_MINUS) == (0.0, None)

    def test_residuals_vanish_exactly(self):
        f = random_field(np.random.default_rng(9), 7, integer=True)
        for x in Generator:
            for y in Generator:
                assert commutator_residual(x, y, f) == 0.0


class TestCasimir:
    def test_eigenvalue_on_basis_modes(self):
        for u, v in [(0, 0), (3, 1), (0, 7)]:
            f = CoeffField.basis(u, v)
            for family in "AB":
                assert max_abs_diff(casimir_apply(family, f), -0.25 * f) == 0.0

    def test_eigenvalue_on_dense_field(self):
        f = random_field(np.random.default_rng(4), 6)
        assert max_abs_diff(casimir_apply("A", f), -0.25 * f) <= 1e-14

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            casimir_apply("C", CoeffField.zeros(0))


def apply_one(m, f):
    return apply_operator(OperatorSpec.of(m), f)


def scalar_g(u, v, alpha, beta):
    """The closed-form monomial factor at one mode, in Python floats."""
    def rising(x, k):
        return math.prod(range(x, x + k), start=1.0)

    def falling(x, k):
        return math.prod(range(x, x - k, -1), start=1.0)

    (a1, a2, a3), (b1, b2, b3) = alpha, beta
    return (rising(u - a3 + 1, a1) * (u - a3 + 0.5) ** a2 * falling(u, a3)
            * rising(v - b3 + 1, b1) * (v - b3 + 0.5) ** b2 * falling(v, b3))


def loop_apply_operator(spec, f):
    """Reference: each monomial mode by mode in Python scalars, then summed."""
    out = CoeffField.zeros(0)
    for m in spec.monomials:
        (a1, _, a3), (b1, _, b3) = m.alpha, m.beta
        n_out = max(0, f.bandwidth + a1 - a3 + b1 - b3)
        vals = np.zeros((n_out + 1, n_out + 1), dtype=complex)
        for u, v, c in f.iter_modes():
            if c != 0 and u >= a3 and v >= b3:
                vals[u + a1 - a3, v + b1 - b3] += m.c * scalar_g(u, v, m.alpha, m.beta) * c
        out = out + CoeffField(n_out, vals)
    return out


def loop_apply_p(f):
    """Reference: P mode by mode in Python scalars."""
    n = f.bandwidth
    out = np.zeros((n + 2, n + 2), dtype=complex)
    for u, v, c in f.iter_modes():
        if c != 0:
            out[u + 1, v] += (u + 1) / math.sqrt((u + v + 1) * (u + v + 2)) * c
            if v > 0:
                out[u, v - 1] += v / math.sqrt((u + v) * (u + v + 1)) * c
    return CoeffField(n + 1, out)


def sparse_field(seed, bandwidth, density):
    rng = np.random.default_rng(seed)
    f = random_field(rng, bandwidth)
    return CoeffField(bandwidth, f.values * (rng.random(f.values.shape) < density))


exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 8))
specs = st.lists(
    st.builds(UEAMonomial,
              st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
              exponents, exponents),
    max_size=4,
).map(lambda ms: OperatorSpec(tuple(ms)))


class TestFactorials:
    # monomial_g(n, alpha, beta)[i, j] is g at (a3 + i, b3 + j).
    def test_falling(self):
        # (5)_3 = 60 from A-^3 on u = 5; (2)_5 = 0: no mode survives A-^5
        # below degree 5; the empty product is 1.
        assert monomial_g(5, (0, 0, 3), (0, 0, 0))[2, 0] == 60.0
        assert monomial_g(2, (0, 0, 5), (0, 0, 0)).shape == (0, 0)
        assert apply_one(UEAMonomial(1.0, (0, 0, 5), (0, 0, 0)),
                         CoeffField.basis(2, 0)).l2_norm() == 0.0
        assert monomial_g(3, (0, 0, 0), (0, 0, 0))[3, 0] == 1.0

    def test_rising(self):
        # A+^3 on u = 1 picks up 2*3*4 = 24; no raising leaves 1 on u = 3.
        assert monomial_g(1, (3, 0, 0), (0, 0, 0))[1, 0] == 24.0
        assert monomial_g(3, (0, 0, 0), (0, 0, 0))[3, 0] == 1.0
        assert monomial_g(1, (0, 0, 0), (3, 0, 0))[0, 1] == 24.0


class TestMonomials:
    def test_worked_example(self):
        # raising three times in u and once in v from (4, 1) gives
        # 5*6*7 * 2 = 420 landing at (7, 2)
        assert monomial_g(5, (3, 0, 0), (1, 0, 0))[4, 1] == 420.0
        out = apply_one(UEAMonomial(1.0, (3, 0, 0), (1, 0, 0)),
                        CoeffField.basis(4, 1))
        assert out.get(7, 2) == 420.0
        assert out.l2_norm() == 420.0

    def test_identity_monomial(self):
        f = random_field(np.random.default_rng(3), 4)
        out = apply_one(UEAMonomial(1.0, (0, 0, 0), (0, 0, 0)), f)
        assert max_abs_diff(out, f) == 0.0

    def test_overshoot_lowering_annihilates(self):
        assert monomial_g(2, (0, 0, 3), (0, 0, 0)).shape == (0, 0)
        out = apply_one(UEAMonomial(1.0, (0, 0, 3), (0, 0, 0)),
                        CoeffField.basis(2, 0))
        assert out.l2_norm() == 0.0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            UEAMonomial(1.0, (-1, 0, 0), (0, 0, 0))

    def test_matches_composed_oracle(self):
        f = random_field(np.random.default_rng(5), 4)
        for alpha in [(1, 1, 0), (2, 0, 1), (0, 2, 2)]:
            for beta in [(0, 0, 0), (1, 0, 1), (0, 1, 0)]:
                m = UEAMonomial(0.5 - 1j, alpha, beta)
                got = apply_one(m, f)
                want = apply_monomial_composed(m, f)
                scale = max(1.0, float(np.max(np.abs(want.values))))
                assert max_abs_diff(got, want) / scale <= 1e-13

    @given(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        st.integers(0, 6), st.integers(0, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_coefficient_formula_on_basis_modes(self, alpha, beta, u, v):
        m = UEAMonomial(1.0, alpha, beta)
        got = apply_one(m, CoeffField.basis(u, v))
        want = apply_monomial_composed(m, CoeffField.basis(u, v))
        assert max_abs_diff(got, want) <= 1e-9 * max(
            1.0, float(np.max(np.abs(want.values)))
        )


class TestOperators:
    def test_empty_spec_is_zero(self):
        f = random_field(np.random.default_rng(6), 3)
        assert apply_operator(OperatorSpec.of(), f).l2_norm() == 0.0

    def test_single_monomial(self):
        f = CoeffField.basis(1, 1)
        spec = OperatorSpec.of(UEAMonomial(2.0, (1, 0, 0), (0, 0, 0)))
        assert apply_operator(spec, f).get(2, 1) == 4.0

    def test_cancellation(self):
        f = random_field(np.random.default_rng(7), 3)
        m = UEAMonomial(1.0, (1, 0, 0), (0, 1, 0))
        spec = OperatorSpec.of(m, UEAMonomial(-1.0, (1, 0, 0), (0, 1, 0)))
        assert apply_operator(spec, f).l2_norm() == 0.0

    @given(specs, st.integers(0, 12), st.integers(0, 2**32 - 1),
           st.sampled_from([0.3, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_mode_loop_bit_for_bit(self, spec, n, seed, density):
        f = sparse_field(seed, n, density)
        got = apply_operator(spec, f)
        want = loop_apply_operator(spec, f)
        assert got.bandwidth == want.bandwidth
        assert got.values.tobytes() == want.values.tobytes()

    @given(specs, st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_sum_matches_composition_oracle(self, spec, n, seed):
        # Covers the empty spec, A-/B- powers beyond the bandwidth and
        # results narrower than the input; criterion 8's tolerance.
        f = sparse_field(seed, n, 1.0)
        got = apply_operator(spec, f)
        terms = [apply_monomial_composed(m, f) for m in spec.monomials]
        want = sum(terms, CoeffField.zeros(0))
        shifts = [m.alpha[0] - m.alpha[2] + m.beta[0] - m.beta[2] for m in spec.monomials]
        assert got.bandwidth == max([0] + [n + s for s in shifts])
        scale = max([1.0] + [float(np.max(np.abs(t.values))) for t in terms])
        assert max_abs_diff(got, want) / scale <= 1e-12

    def test_overflow_is_value_error(self):
        f = random_field(np.random.default_rng(17), 12)
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="non-finite"):
                apply_operator(OperatorSpec.of(UEAMonomial(1.0, (0, 400, 0), (0, 0, 0))), f)
            with pytest.raises(ValueError, match="non-finite"):
                apply_operator(OperatorSpec.of(UEAMonomial(1e300, (0, 0, 0), (0, 0, 0))),
                               1e300 * f)

    def test_zero_coefficients_never_meet_an_overflowed_factor(self):
        # (u + 1/2)^400 overflows for u >= 6, but only the (0, 0) mode is set.
        f = CoeffField.basis(0, 0, bandwidth=12)
        out = apply_operator(OperatorSpec.of(UEAMonomial(1.0, (0, 400, 0), (0, 0, 0))), f)
        assert out.get(0, 0) == 0.5**400
        assert out.l2_norm() == 0.5**400

    def test_huge_lowering_exponent_annihilates_at_once(self):
        f = random_field(np.random.default_rng(18), 8)
        spec = OperatorSpec.of(UEAMonomial(1.0, (0, 0, 10**9), (0, 0, 0)))
        out = apply_operator(spec, f)
        assert out.bandwidth == 0 and out.l2_norm() == 0.0

    def test_bandwidth_cap_checked_for_every_monomial(self):
        f = CoeffField.zeros(BANDWIDTH_CAP - 1)
        spec = OperatorSpec.of(UEAMonomial(1.0, (0, 0, 0), (0, 0, 0)),
                               UEAMonomial(1.0, (1, 0, 0), (1, 0, 0)))
        with pytest.raises(ValueError, match="cap"):
            apply_operator(spec, f)

    def test_linearity_in_field(self):
        rng = np.random.default_rng(8)
        f, g = random_field(rng, 4), random_field(rng, 4)
        spec = OperatorSpec.of(
            UEAMonomial(1.0 + 1j, (1, 0, 0), (0, 0, 1)),
            UEAMonomial(-2.0, (0, 1, 0), (1, 0, 0)),
        )
        lhs = apply_operator(spec, f + 3j * g)
        rhs = apply_operator(spec, f) + 3j * apply_operator(spec, g)
        assert max_abs_diff(lhs, rhs) <= 1e-12


class TestMultiplicationOperator:
    def test_shift_coefficients(self):
        alpha, beta = p_weights(3)
        assert alpha[0, 0] == pytest.approx(1 / math.sqrt(2))
        assert beta[0, 0] == 0.0
        assert beta[2, 1] == pytest.approx(1 / (2 * math.sqrt(3)))
        out = apply_p(CoeffField.basis(2, 1))
        assert out.get(3, 1) == alpha[2, 1]
        assert out.get(2, 0) == beta[2, 1]

    def test_coefficients_bounded_by_one(self):
        alpha, beta = p_weights(19)
        assert alpha.shape == beta.shape == (20, 20)
        assert np.all((0.0 < alpha) & (alpha <= 1.0))
        assert np.all((0.0 <= beta) & (beta < 1.0))

    @given(st.integers(0, 20), st.integers(0, 2**32 - 1), st.sampled_from([0.3, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_mode_loop_bit_for_bit(self, n, seed, density):
        f = sparse_field(seed, n, density)
        assert apply_p(f).values.tobytes() == loop_apply_p(f).values.tobytes()

    def test_matches_pointwise_product(self):
        f = random_field(np.random.default_rng(10), 5)
        q = build_quadrature(6)
        lhs = synthesize_on(apply_p(f), q).values
        factor = q.r[:, None] * np.exp(1j * q.phi)[None, :]
        rhs = synthesize_on(f.with_bandwidth(6), q).values * factor
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestGroupExponential:
    def test_zero_parameters_identity(self):
        f = random_field(np.random.default_rng(12), 3)
        out = group_exponential("A", (0.0, 0.0, 0.0), 6, f)
        assert max_abs_diff(out, f.with_bandwidth(f.bandwidth + 6)) == 0.0

    def test_norm_preserved_for_small_parameters(self):
        f = random_field(np.random.default_rng(14), 4)
        out = group_exponential("B", (0.02, -0.01, 0.03), 12, f)
        assert out.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-6)

    def test_tail_shrinks_with_order(self):
        f = random_field(np.random.default_rng(15), 3)
        params = (0.03, 0.01, -0.02)
        lo = group_exponential("A", params, 6, f)
        hi = group_exponential("A", params, 12, f)
        hi2 = group_exponential("A", params, 13, f)
        assert max_abs_diff(hi.with_bandwidth(16), hi2.with_bandwidth(16)) < \
            max_abs_diff(lo.with_bandwidth(16), hi2.with_bandwidth(16))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            group_exponential("A", (0.0, 0.0, 0.0), -1, CoeffField.zeros(0))


class TestDifferentialResiduals:
    def test_ladder_residuals_small(self):
        p = DiskPoint(0.52, 0.9)
        for mode in modes_upto(4):
            for g in (Generator.A_PLUS, Generator.A_MINUS,
                      Generator.B_PLUS, Generator.B_MINUS):
                assert ladder_differential_residual(g, mode, p, 1e-4) <= 1e-6

    def test_non_ladder_rejected(self):
        with pytest.raises(ValueError, match="not a ladder"):
            ladder_differential_residual(Generator.A3, ModeIndex(1, 1),
                                         DiskPoint(0.5, 0.0), 1e-4)

    def test_mode_ode_residual_small(self):
        p = DiskPoint(0.43, 2.2)
        for mode in modes_upto(4):
            assert ode_mode_residual(mode, p, 1e-4) <= 1e-5

    def test_boundary_point_rejected(self):
        with pytest.raises(ValueError, match="too close"):
            ode_mode_residual(ModeIndex(1, 0), DiskPoint(1.0, 0.0), 1e-4)
