"""Property tests of the chain verdicts under the two symmetries of a system
that keep its chain state.

Conjugating every operator by a unitary U, V_i -> U V_i U*, moves the
generated algebra, its commutant and the fixed space by U and conjugates
sigma by U. Mixing the operators by a d x d unitary, V_i -> sum_j u_ij V_j,
leaves sigma and the generated algebra unchanged. So ``M_is_factor``,
``chain_pure`` and ``chain_factor`` cannot move under either. Systems are
drawn at n <= 8 off the ergodic path (direct sums of two blocks, some of
them one block in two bases, and ancillas V (x) I_m) and on it (block
shifts). The examples are derandomized, so the suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fcstates import PopescuSystem, classify_chain, random_system
from fcstates.cli import report_to_json

from conftest import ancilla, block_shift, conjugated, direct_sum, random_unitary


@st.composite
def systems(draw):
    d = draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["direct_sum", "repeated_block", "ancilla", "block_shift"]))
    if kind == "direct_sum":
        n = draw(st.integers(2, 8))
        m = draw(st.integers(1, n - 1))
        return direct_sum(random_system(d, m, seed), random_system(d, n - m, seed + 1))
    if kind == "repeated_block":
        a = random_system(d, draw(st.integers(1, 4)), seed)
        return direct_sum(a, conjugated(a, seed + 1))
    if kind == "ancilla":
        m = draw(st.integers(2, 4))
        return ancilla(random_system(d, draw(st.integers(1, 8 // m)), seed), m)
    k = draw(st.integers(2, 4))
    return block_shift(k, d, draw(st.integers(1, 8 // k)), seed)


def _verdicts(system: PopescuSystem):
    rep = classify_chain(system)
    # chain_factor is written into the analyze JSON from the verdicts above
    return rep.m_is_factor, rep.chain_pure, report_to_json(rep, system, b"")["chain_factor"]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(systems())
def test_chain_verdicts_follow_conjugation_and_mixing(system):
    rng = np.random.default_rng(system.n * 1000 + system.d)
    ops = system.operators
    u = random_unitary(rng, system.d)
    mixed = PopescuSystem.from_operators(
        [sum(u[i, j] * ops[j] for j in range(system.d)) for i in range(system.d)]
    )
    assert _verdicts(conjugated(system, system.n)) == _verdicts(system) == _verdicts(mixed)
