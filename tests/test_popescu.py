import numpy as np
import pytest

from fcstates import (
    PopescuSystem,
    ValidationError,
    compress,
    invariant_state,
    random_system,
    v_word,
    validate,
    words_up_to,
)

from conftest import eij


def test_validate_named_systems(averaging3, swap2):
    assert validate(averaging3) <= 1e-12
    assert validate(swap2) <= 1e-15


def test_validate_rejects_bad_scalar():
    ops = [np.array([[1.0]]), np.array([[1.0]])]
    assert abs(validate(PopescuSystem(tuple(ops))) - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        PopescuSystem.from_operators(ops)


def test_validate_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        PopescuSystem((np.eye(2), np.eye(3)))


def test_v_word_examples(rank_one2, swap2):
    assert np.allclose(v_word(rank_one2, (0,)), eij(0, 0, 2))
    assert np.allclose(v_word(swap2, (0, 1)), eij(0, 0, 2))
    assert np.allclose(v_word(swap2, ()), np.eye(2))


def test_v_word_rejects_bad_letter(swap2):
    with pytest.raises(ValueError):
        v_word(swap2, (0, 2))


def test_v_word_concatenation_multiplicative():
    rng = np.random.default_rng(3)
    sys_ = random_system(3, 3, 17)
    words = words_up_to(3, 3)
    for _ in range(25):
        wi = words[rng.integers(len(words))]
        wj = words[rng.integers(len(words))]
        # float matmul is not associative, so bit-exact equality between the
        # two groupings is unattainable; machine precision is the contract
        assert np.allclose(
            v_word(sys_, wi + wj), v_word(sys_, wi) @ v_word(sys_, wj), atol=1e-14
        )


def test_words_up_to_ordering():
    words = words_up_to(2, 2)
    assert words == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_random_system_validates():
    for seed in range(8):
        sys_ = random_system(2, 3, seed)
        assert validate(sys_) <= 1e-12


def test_random_system_scalar_normalized():
    sys_ = random_system(2, 1, 5)
    total = sum(abs(v[0, 0]) ** 2 for v in sys_.operators)
    assert abs(total - 1.0) <= 1e-12


def test_random_system_deterministic():
    a = random_system(3, 4, 99)
    b = random_system(3, 4, 99)
    for va, vb in zip(a.operators, b.operators):
        assert np.array_equal(va, vb)


def test_random_system_rejects_bad_args():
    with pytest.raises(ValueError):
        random_system(1, 2, 0)
    with pytest.raises(ValueError):
        random_system(2, 0, 0)


def test_compress_rank_one_to_scalar(rank_one2):
    small = compress(rank_one2, np.eye(2)[:, :1])
    assert small.n == 1
    assert abs(small.operators[0][0, 0] - 1.0) < 1e-12
    assert abs(small.operators[1][0, 0]) < 1e-12


def test_compress_identity_is_noop(swap2):
    same = compress(swap2, np.eye(2))
    for va, vb in zip(same.operators, swap2.operators):
        assert np.allclose(va, vb, atol=1e-12)


def test_compress_wrong_support_errors(rank_one2):
    # span(e_2) carries no invariant state: V_2* e_2 = e_1 leaves it, so the
    # co-invariance gate rejects it
    with pytest.raises(ValidationError, match="co-invariance violated for generator 1"):
        compress(rank_one2, np.eye(2)[:, 1:])


def test_compress_rejects_a_basis_that_is_not_an_isometry(swap2):
    # a projection is not a basis: 0.5 I has B*B = I/4
    with pytest.raises(ValidationError, match="not an isometry"):
        compress(swap2, 0.5 * np.eye(2))
    with pytest.raises(ValidationError, match="r >= 1"):
        compress(swap2, np.zeros((2, 0)))


def test_compress_support_of_invariant_state_validates():
    for seed in (0, 4, 9):
        sys_ = random_system(2, 4, seed)
        state = invariant_state(sys_)
        small = compress(sys_, state.carrier)
        assert validate(small) <= 1e-9
        assert small.n == state.rank


def test_systems_and_states_compare_by_identity():
    # each holds arrays and cached objects, so equal operators do not make
    # two systems one: == is identity, and both hash, so they can be keys
    a, b = random_system(2, 3, 1), random_system(2, 3, 1)
    assert a == a and (a == b) is False
    assert {a: "a", b: "b"}[a] == "a"
    s, t = invariant_state(a), invariant_state(b)
    assert s == s and (s == t) is False
    assert {s: "s", t: "t"}[t] == "t"
