"""Property tests of the fixed spaces and the invariant state under the two
symmetries of a system that keep its transfer map up to a change of basis.

Conjugating every operator by a unitary U conjugates sigma by U, so the
fixed spaces keep their dimension and the invariant state moves to
U rho U*. Mixing the operators by a d x d unitary, V_i -> sum_j u_ij V_j,
leaves sigma itself unchanged. Systems are drawn over n in 2..8 and
d in {2, 3}, half of them direct sums of two random blocks, so that both the
ergodic closed form and the full-SVD route of
:meth:`RealTransfer.fixed_kernels` run. The examples are derandomized, so
the suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fcstates import PopescuSystem, invariant_state, random_system, real_transfer

from conftest import direct_sum, random_unitary


@st.composite
def systems(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        m = draw(st.integers(1, n - 1))
        # two generic ergodic blocks: the fixed spaces are two-dimensional
        system = direct_sum(random_system(d, m, seed), random_system(d, n - m, seed + 1))
        return system, 2, np.random.default_rng(seed)
    return random_system(d, n, seed), 1, np.random.default_rng(seed)


def _fixed_dim(system: PopescuSystem) -> int:
    fixed, predual_fixed = real_transfer(system).fixed_kernels(1e-8)
    assert fixed.shape[1] == predual_fixed.shape[1]
    return fixed.shape[1]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(systems())
def test_fixed_spaces_and_state_follow_conjugation_and_mixing(case):
    system, f, rng = case
    n, d, ops = system.n, system.d, system.operators
    u = random_unitary(rng, n)
    conjugated = PopescuSystem.from_operators([u @ v @ u.conj().T for v in ops])
    w = random_unitary(rng, d)
    mixed = PopescuSystem.from_operators([sum(w[i, j] * ops[j] for j in range(d)) for i in range(d)])

    assert _fixed_dim(system) == _fixed_dim(conjugated) == _fixed_dim(mixed) == f
    rho = invariant_state(system).rho
    assert np.linalg.norm(invariant_state(conjugated).rho - u @ rho @ u.conj().T, 2) <= 1e-10
    assert np.linalg.norm(invariant_state(mixed).rho - rho, 2) <= 1e-10
