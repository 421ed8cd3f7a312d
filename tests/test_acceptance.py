"""Acceptance gate: one test per top-level correctness criterion.

Each test runs the corresponding self-check at full size and prints a
single pass/fail line, so `pytest -s tests/test_acceptance.py` doubles as
a human-readable report.  The same checks back `wzernike verify`.
"""

from wzernike import selfcheck as sc
from wzernike.radial import N_MAX


def _gate(number, result):
    flag = "PASS" if result.passed else "FAIL"
    print(f"[criterion {number:2d}] {flag}  {result.name}  ({result.detail})")
    assert result.passed, f"criterion {number}: {result.name}: {result.detail}"


def test_criterion_01_worked_operator_example():
    _gate(1, sc.check_worked_operator_example())


def test_criterion_02_gram_identity():
    _gate(2, sc.check_gram(bandwidth=16, tol=1e-10))


def test_criterion_03_radial_orthogonality():
    _gate(3, sc.check_radial_orthogonality(m_max=N_MAX, n_max=N_MAX, tol=1e-12))


def test_criterion_04_unit_normalization():
    _gate(4, sc.check_normalization(n_max=N_MAX))


def test_criterion_05_oracle_agreement():
    _gate(5, sc.check_oracle_agreement(n_max=N_MAX, tol=1e-10))


def test_criterion_06_degree_mixing_recurrence():
    _gate(6, sc.check_recurrence(n_max=N_MAX - 1, tol=1e-13))


def test_criterion_07_commutators_and_casimir():
    _gate(7, sc.check_commutators(bandwidth=10))
    _gate(7, sc.check_casimir(uv_max=12))


def test_criterion_08_monomial_oracle():
    _gate(8, sc.check_monomial_oracle(bandwidth=6, exp_max=3, tol=1e-12))


def test_criterion_09_multiplication_operator():
    _gate(9, sc.check_multiplication_operator(bandwidth=8, n_fields=20, tol=1e-9))


def test_criterion_10_differential_realization():
    _gate(10, sc.check_differential(degree_max=6, h=1e-4,
                                    ladder_tol=1e-6, ode_tol=1e-5))


def test_criterion_11_norm_family_bounds():
    _gate(11, sc.check_rhs_bounds(bandwidth=12, n_fields=1000))


def test_criterion_12_parseval_and_roundtrip():
    _gate(12, sc.check_parseval_roundtrip(bandwidth=16, n_fields=100, tol=1e-11))


def test_criterion_13_image_pipeline():
    _gate(13, sc.check_pipeline(bandwidth=16, image_bandwidth=8,
                                size=256, rms_tol=0.02))


def test_criterion_14_group_exponential():
    _gate(14, sc.check_group_exponential(bandwidth=6, order=12, tol=5e-3))
