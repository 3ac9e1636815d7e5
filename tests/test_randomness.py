import hashlib
import struct

import numpy as np
import pytest

from conftest import backend_permutation, backend_sign_function, identity_permutation, zero_sign_function
from rsedlab.bitcore import SystemShape
from rsedlab.randomness import (
    FEISTEL_ROUNDS,
    SignFunction,
    SubsetPermutation,
    load_permutation,
    sample_permutation,
    sample_sign_function,
    save_permutation,
)
from rsedlab.rng import RngSeed


def test_sample_permutation_deterministic():
    shape = SystemShape(8, 3)
    p1 = sample_permutation(shape, RngSeed(5))
    p2 = sample_permutation(shape, RngSeed(5))
    assert (p1.table == p2.table).all()


def test_explicit_backend_bijective_exhaustive():
    for n in (4, 8, 12):
        shape = SystemShape(n, 2)
        p = sample_permutation(shape, RngSeed(1, n))
        xs = np.arange(shape.dim, dtype=np.uint32)
        fwd = p.forward_array(xs)
        assert sorted(fwd.tolist()) == list(range(shape.dim))
        assert (p.inverse_array(fwd) == xs).all()


@pytest.mark.parametrize("n", [4, 7, 8, 9, 11, 12])
def test_feistel_bijective_exhaustive(n):
    shape = SystemShape(n, 2)
    p = backend_permutation(shape, RngSeed(77, n), "feistel")
    xs = np.arange(shape.dim, dtype=np.uint32)
    fwd = p.forward_array(xs)
    assert sorted(fwd.tolist()) == list(range(shape.dim))
    assert (p.inverse_array(fwd) == xs).all()


def test_feistel_four_rounds_default_and_nontrivial():
    assert FEISTEL_ROUNDS == 4
    shape = SystemShape(8, 2)
    p = backend_permutation(shape, RngSeed(4242), "feistel")
    xs = np.arange(256, dtype=np.uint32)
    assert (p.forward_array(xs) != xs).any()


def test_feistel_round_steps_compose_and_sampled_bijectivity():
    shape = SystemShape(20, 4)
    p = sample_permutation(shape, RngSeed(88))
    xs = np.arange(0, shape.dim, 997, dtype=np.uint32)
    composed = xs
    for i in range(FEISTEL_ROUNDS):
        composed = p.feistel._run(composed, [i])
    assert (composed == p.forward_array(xs)).all()
    # sampled bijectivity above the exhaustive range
    fwd = p.forward_array(xs)
    assert (p.inverse_array(fwd) == xs).all()
    assert len(set(fwd.tolist())) == len(xs)


def test_table_permutation_derives_its_inverse():
    shape = SystemShape(6, 2)
    table = sample_permutation(shape, RngSeed(12)).table
    p = SubsetPermutation(shape, table=table)
    xs = np.arange(shape.dim, dtype=np.uint32)
    assert (p.inverse_array(table) == xs).all()
    assert all(p.invert(p.permute(x)) == x for x in range(shape.dim))


@pytest.mark.parametrize(
    "table",
    [np.zeros(8, dtype=np.uint32), np.array([0, 0, 2, 3, 4, 5, 6, 7], dtype=np.uint32), np.arange(1, 9, dtype=np.uint32)],
)
def test_table_permutation_must_be_a_bijection(table):
    with pytest.raises(ValueError, match="not a bijection"):
        SubsetPermutation(SystemShape(3, 1), table=table)


def test_sign_bits_must_be_zero_or_one():
    """A bit 2 gave the sign 1 - 2*2 = -3: a non-unitary operator, no error."""
    bits = np.zeros(8, dtype=np.uint8)
    bits[5] = 2
    with pytest.raises(ValueError, match="0, 1"):
        SignFunction(SystemShape(3, 1), bits=bits)


def test_identity_backend():
    shape = SystemShape(2, 1)
    p = identity_permutation(shape)
    assert all(p.permute(x) == x for x in range(4))


def test_permute_invert_scalar_roundtrip():
    shape = SystemShape(10, 4)
    p = sample_permutation(shape, RngSeed(9))
    for x in range(0, shape.dim, 37):
        assert p.invert(p.permute(x)) == x
    with pytest.raises(ValueError):
        p.permute(shape.dim)


def test_sign_function_examples():
    shape = SystemShape(6, 2)
    xs = np.arange(shape.dim, dtype=np.uint32)
    assert not zero_sign_function(shape).sign_array(xs).any()
    f = sample_sign_function(shape, RngSeed(3))
    vals = [int(f.sign_array(np.asarray([11]))[0]) for _ in range(100)]
    assert len(set(vals)) == 1


def test_keyed_prf_sign_balance():
    shape = SystemShape(12, 4)
    f = backend_sign_function(shape, RngSeed(0xBEEF), "keyed_prf")
    bits = f.sign_array(np.arange(shape.dim, dtype=np.uint32))
    assert 0.45 <= bits.mean() <= 0.55


def seed_fixed_points(p: SubsetPermutation, j: int) -> int:
    """Exact count of the x = join(b, a) whose bit-j partner
    p^{-1}(p(x) XOR e_j) keeps the seed a: all 2**n points enumerated."""
    k = np.uint32(p.shape.k)
    xs = np.arange(p.shape.dim, dtype=np.uint32)
    pre = p.inverse_array(p.forward_array(xs) ^ np.uint32(1 << j))
    return int(np.count_nonzero((pre >> k) == (xs >> k)))


def test_count_seed_fixed_points_identity():
    """The identity permutation keeps the seed exactly for the k subsystem
    bits and never for the n - k seed bits."""
    shape = SystemShape(10, 4)
    p = identity_permutation(shape)
    for j in range(shape.k):
        assert seed_fixed_points(p, j) == shape.dim
    for j in range(shape.k, shape.n):
        assert seed_fixed_points(p, j) == 0


def test_count_seed_fixed_points_ensemble_statistics():
    """Mean over 200 random permutations at n=14, k=6 within 3 SE of 2^k,
    and the 2^{1.5 k} bound holds in at least 99/100 trials."""
    shape = SystemShape(14, 6)
    counts = np.asarray([seed_fixed_points(sample_permutation(shape, RngSeed(0x1E44, r)), 3) for r in range(200)])
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - 2**shape.k) <= 3 * se
    bound = 2 ** (1.5 * shape.k)
    assert (counts[:100] <= bound).sum() >= 99


def test_serialization_roundtrip(tmp_path):
    shape = SystemShape(9, 3)
    p = sample_permutation(shape, RngSeed(61))
    path = tmp_path / "perm.rsedperm"
    save_permutation(p, path)
    raw = path.read_bytes()
    assert raw[:9] == b"RSEDPERM1"
    loaded = load_permutation(path, k=3)
    assert (loaded.table == p.table).all()
    assert (loaded.inverse_table == p.inverse_table).all()


def test_serialization_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC1" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_permutation(path, k=2)


@pytest.mark.parametrize(
    "table, tail",
    [
        ([0, 0, 2, 3, 4, 5, 6, 7], b""),  # duplicate entry
        ([0, 1, 2, 3, 4, 5, 6, 8], b""),  # entry out of range
        ([0, 1, 2, 3, 4, 5, 6, 7], b"junk"),  # trailing bytes
    ],
)
def test_serialization_rejects_bad_table(tmp_path, table, tail):
    path = tmp_path / "bad.rsedperm"
    path.write_bytes(b"RSEDPERM1" + struct.pack("<I", 3) + np.array(table, dtype="<u4").tobytes() + tail)
    with pytest.raises(ValueError):
        load_permutation(path, k=1)


def test_serialization_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.rsedperm"
    path.write_bytes(b"RSEDPERM1" + b"\x03\x00")
    with pytest.raises(ValueError, match="truncated"):
        load_permutation(path, k=1)


def test_n_picks_the_sampled_backend():
    """Tables and stream bits up to n = 16, a Feistel network and the keyed
    PRF from n = 17 on, each equal to the constructor built from the seed."""
    xs = np.arange(0, 1 << 17, 997, dtype=np.uint32)
    for n, table in ((16, True), (17, False)):
        shape, sp, sf = SystemShape(n, 4), RngSeed(31, n), RngSeed(32, n)
        p, f = sample_permutation(shape, sp), sample_sign_function(shape, sf)
        assert (p.table is not None, f.bits is not None) == (table, table)
        backend = ("explicit", "explicit") if table else ("feistel", "keyed_prf")
        ys = xs[xs < shape.dim]
        assert (p.forward_array(ys) == backend_permutation(shape, sp, backend[0]).forward_array(ys)).all()
        assert (f.sign_array(ys) == backend_sign_function(shape, sf, backend[1]).sign_array(ys)).all()


def _sha256(a, dtype) -> str:
    return hashlib.sha256(np.asarray(a).astype(dtype).tobytes()).hexdigest()


# (n, first forward / inverse values, first 16 sign bits, SHA-256 of the forward,
# inverse and sign arrays) at xs = arange(0, 2**n, 997); frozen convention, a
# change here changes every Feistel / keyed-PRF run
_FEISTEL_PRF_GOLDEN = [
    (17, [6032, 34136, 52566, 109116], [70240, 96131, 99651, 74719],
     [0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1],
     "72ae1f65e4df13d5b40be34ab0573e0faff97cf93114c900445586f0f4255a02",
     "4c747ad74a288299723c0fc7d03ea62ad9ff3f0e8e398d9acc6bd9a95fbcc846",
     "7c79620a164d8f90ffc111af3c7a42ff63462844a88609e2aa7696961b3babe1"),
    (18, [155507, 2866, 56099, 109738], [29573, 120078, 36810, 218601],
     [0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0],
     "70360ddb8935a51d65d22362d23638706fa8e4059fbbfd71ae80f7678d5b3554",
     "2c8f2869c4ae38e1da215b37237711eac35ccbeacbe3bab7aa2f0559cbe2b144",
     "5587000ae604dfabe024622fa38f11d9b4a7fbbf0bd1461562c7b18a5228568f"),
    (20, [666404, 232547, 556638, 76196], [617616, 295235, 344127, 889345],
     [0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 0],
     "45bb2a2967bde9e2f55b05ac045eb0b65047b3cc9d044eaca2955a4dbbdda9a4",
     "4ca675d8d52bb70a64c95f559c657b3e8e089b878ec4ffc39f915d4d659db28f",
     "15174c616c879271a86790bf59f05df3eee5675d1c74a7ea7171b1c0d4dd8277"),
]


@pytest.mark.parametrize("n, fwd_head, inv_head, sign_head, fwd_sha, inv_sha, sign_sha", _FEISTEL_PRF_GOLDEN)
def test_feistel_and_keyed_prf_golden(n, fwd_head, inv_head, sign_head, fwd_sha, inv_sha, sign_sha):
    shape = SystemShape(n, 6)
    xs = np.arange(0, shape.dim, 997)
    p = sample_permutation(shape, RngSeed(15, n))
    f = sample_sign_function(shape, RngSeed(16, n))
    fwd, inv, signs = p.forward_array(xs), p.inverse_array(xs), f.sign_array(xs)
    assert fwd[:4].tolist() == fwd_head and inv[:4].tolist() == inv_head
    assert signs[:16].tolist() == sign_head
    assert _sha256(fwd, "<u4") == fwd_sha
    assert _sha256(inv, "<u4") == inv_sha
    assert _sha256(signs, "u1") == sign_sha
