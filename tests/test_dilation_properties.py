"""Property tests of the structured dilation against its dense oracle.

Systems are drawn over d in {2, 3, 4}, n in 1..4 and levels 1..4 with
q = d^L n <= 512. The examples are derandomized, so the suite stays
deterministic.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fcstates import build, cuntz_residuals, dilation_moments, random_system

from oracles import dense_shifts, matvec_dilation_moments, product_cuntz_residuals


@st.composite
def dilations(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    top = max(level for level in range(1, 5) if d**level * n <= 512)
    level = draw(st.integers(1, top))
    seed = draw(st.integers(0, 2**16))
    return build(random_system(d, n, seed), level), np.random.default_rng(seed)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(dilations())
def test_structured_dilation_matches_dense_oracle(case):
    dil, rng = case
    q, n = dil.dim, dil.system.n
    x = rng.standard_normal((q, 3)) + 1j * rng.standard_normal((q, 3))
    for i, s in enumerate(dense_shifts(dil)):
        assert np.max(np.abs(dil.apply(i, x) - s @ x)) <= 1e-13
        assert np.max(np.abs(dil.apply_adjoint(i, x) - s.conj().T @ x)) <= 1e-13

    res = cuntz_residuals(dil)
    iso, comp = product_cuntz_residuals(dil)
    assert abs(res.isometry_residual - iso) <= 1e-12
    assert abs(res.completeness_residual - comp) <= 1e-12

    omega = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    omega /= np.linalg.norm(omega)
    table = dilation_moments(dil, omega)
    oracle = matvec_dilation_moments(dil, omega, dil.level)
    assert np.max(np.abs(table.values - oracle)) <= 1e-13
