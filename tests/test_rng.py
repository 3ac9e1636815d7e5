import hashlib

from hypothesis import given
from hypothesis import strategies as st

from rsedlab.rng import RngSeed, WordStream, fisher_yates


def test_words_deterministic():
    a = WordStream(RngSeed(123, 4)).take(64)
    b = WordStream(RngSeed(123, 4)).take(64)
    assert (a == b).all()
    assert (WordStream(RngSeed(123, 5)).take(64) != a).any()


def test_words_windowing():
    full = WordStream(RngSeed(9)).take(100)
    stream = WordStream(RngSeed(9))
    head, tail = stream.take(40), stream.take(60)
    assert (full[:40] == head).all() and (full[40:] == tail).all()


def test_stream_golden_words():
    # frozen counter convention: word i is finalize(state0 + (i+1) * GAMMA)
    words = WordStream(RngSeed(2024, 3)).take(50)
    assert words[:3].tolist() == [0x1A01D0B26C762B41, 0x3EA4EA7FC61A842B, 0x191A11E0C78B189A]
    assert words[-1] == 0x953F98DEE3ABFE24
    digest = hashlib.sha256(words.astype("<u8").tobytes()).hexdigest()
    assert digest == "f55bf148f2a026f4bf6152b84d0910564528ebe6acca237cda5121e14c93c193"


@given(st.integers(1, 2**40), st.integers(0, 2**32))
def test_bounded_draws_in_range(m, seed):
    draws = WordStream(RngSeed(seed)).integers(m, 50)
    assert (draws < m).all()


def test_bounded_power_of_two_terminates():
    draws = WordStream(RngSeed(5)).integers(1 << 16, 1000)
    assert (draws < (1 << 16)).all()


def test_bits_balanced():
    bits = WordStream(RngSeed(7)).bits(1 << 14)
    assert 0.45 <= bits.mean() <= 0.55


def test_uniform01_range_and_normals():
    stream = WordStream(RngSeed(11))
    u = stream.uniform01(10_000)
    assert (u >= 0).all() and (u < 1).all()
    g = WordStream(RngSeed(12)).standard_normal(20_001)
    assert len(g) == 20_001
    assert abs(g.mean()) < 0.03
    assert abs(g.std() - 1.0) < 0.03


def test_fisher_yates_is_permutation():
    for n in (1, 2, 7, 256):
        table = fisher_yates(n, RngSeed(3, n))
        assert sorted(table.tolist()) == list(range(n))


def test_fisher_yates_deterministic_golden():
    # frozen draw convention; a change here breaks serialized tables
    assert fisher_yates(8, RngSeed(0)).tolist() == [3, 4, 1, 2, 6, 5, 7, 0]
    assert fisher_yates(8, RngSeed(1)).tolist() == [2, 0, 5, 3, 6, 4, 7, 1]
