"""Field arithmetic: the scalar reference, its axioms, and the batch ops against it.

The library multiplies only vectors (`gf.scalar_mul_vec`). Field elements as
Python ints, `mul_oracle` and the int <-> limb helpers live here, and the
other test files import them from this module.
"""

import random

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings, strategies as st

from authpsi import gf

MASK = (1 << 128) - 1
elems = st.integers(min_value=0, max_value=MASK)


def mul_oracle(a: int, b: int) -> int:
    """Bit-serial long multiplication, reducing after every doubling step.

    Horner evaluation over the bits of b, high to low; independent of the
    basis rows and byte tables the library multiplies with.
    """
    acc = 0
    for i in range(127, -1, -1):
        acc <<= 1
        if acc >> 128:
            acc = (acc & MASK) ^ 0x87
        if (b >> i) & 1:
            acc ^= a
    return acc


def to_bytes(a: int) -> bytes:
    """A field element as its 16 wire bytes, little-endian."""
    return a.to_bytes(gf.GF_BYTES, "little")


def vec_from_ints(values) -> np.ndarray:
    """An (n, 2) limb array of field elements given as ints."""
    return gf.vec_from_bytes(b"".join(to_bytes(v) for v in values))


def vec_get(arr: np.ndarray, i: int) -> int:
    """Element i of a limb array as an int."""
    return int(arr[i, 0]) | (int(arr[i, 1]) << 64)


def test_add_examples():
    assert 0x03 ^ 0x05 == 0x06
    r = random.Random(0)
    for _ in range(100):
        a = r.getrandbits(128)
        assert a ^ a == 0
        assert a ^ 0 == a


def test_mul_identities():
    r = random.Random(1)
    assert mul_oracle(0x02, 0x02) == 0x04  # x * x = x^2, no reduction triggered
    assert mul_oracle(1 << 127, 0x02) == 0x87  # x^128 = x^7 + x^2 + x + 1
    for _ in range(100):
        a = r.getrandbits(128)
        assert mul_oracle(a, 1) == a
        assert mul_oracle(a, 0) == 0


def test_mul_against_oracle_bulk():
    # 10,000 products: 100 random scalars, each times 100 random elements
    r = random.Random(2)
    for _ in range(100):
        a = r.getrandbits(128)
        values = [r.getrandbits(128) for _ in range(100)]
        out = gf.scalar_mul_vec(to_bytes(a), vec_from_ints(values))
        assert [vec_get(out, i) for i in range(100)] == [mul_oracle(a, b) for b in values]


def test_field_axioms_bulk():
    r = random.Random(3)
    for _ in range(10_000):
        a, b, c = (r.getrandbits(128) for _ in range(3))
        assert mul_oracle(a, b) == mul_oracle(b, a)
        assert mul_oracle(mul_oracle(a, b), c) == mul_oracle(a, mul_oracle(b, c))
        assert mul_oracle(a, b ^ c) == mul_oracle(a, b) ^ mul_oracle(a, c)


@settings(max_examples=200, deadline=None)
@given(elems, elems)
def test_mul_matches_oracle(a, b):
    # the batch product commutes: scalar a times element b is scalar b times element a
    ab = vec_get(gf.scalar_mul_vec(to_bytes(a), vec_from_ints([b])), 0)
    ba = vec_get(gf.scalar_mul_vec(to_bytes(b), vec_from_ints([a])), 0)
    assert ab == ba == mul_oracle(a, b)


@settings(max_examples=100, deadline=None)
@given(elems)
def test_serialization_roundtrip(a):
    raw = gf.vec_to_bytes(vec_from_ints([a]))
    assert raw == to_bytes(a) and len(raw) == 16
    assert vec_get(gf.vec_from_bytes(raw), 0) == a


def test_serialization_is_little_endian():
    # bit 0 is the constant term, so byte 0 carries the low coefficients
    assert gf.vec_to_bytes(np.array([[1, 0]], dtype="<u8"))[0] == 1
    assert gf.vec_from_bytes(b"\x01" + bytes(15)).tolist() == [[1, 0]]
    assert gf.vec_from_bytes(bytes(15) + b"\x80").tolist() == [[0, 1 << 63]]
    with pytest.raises(ValueError):
        gf.vec_from_bytes(bytes(17))


def test_vector_roundtrips():
    r = random.Random(7)
    values = [r.getrandbits(128) for _ in range(33)]
    arr = vec_from_ints(values)
    assert arr.shape == (33, 2) and arr.dtype == np.dtype("<u8")
    assert [vec_get(arr, i) for i in range(33)] == values
    assert gf.vec_from_bytes(gf.vec_to_bytes(arr)).tolist() == arr.tolist()
    # element serialization inside a vector is the 16-byte wire format
    assert gf.vec_to_bytes(arr) == b"".join(to_bytes(v) for v in values)


def test_scalar_mul_vec_matches_scalar():
    r = random.Random(8)
    # the unit elements x^0..x^127 pick out one basis product each, which
    # catches an off-by-one at the limb boundary 63/64
    values = [r.getrandbits(128) for _ in range(257)] + [1 << i for i in range(128)] + [MASK]
    arr = vec_from_ints(values)
    for scalar in (0, 1, 2, r.getrandbits(128), (1 << 127) | r.getrandbits(127)):
        out = gf.scalar_mul_vec(to_bytes(scalar), arr)
        for i in (0, 1, 128, 256, *range(257, len(values))):
            assert vec_get(out, i) == mul_oracle(scalar, values[i])
        empty = gf.scalar_mul_vec(to_bytes(scalar), arr[:0])
        assert empty.shape == (0, 2) and empty.dtype == arr.dtype
    # the scalar is exactly the 16 wire bytes of one element
    for raw in (bytes(15), bytes(17)):
        with pytest.raises(ValueError):
            gf.scalar_mul_vec(raw, arr)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_xor_rows_matches_row_loop(width):
    # rows of any width: 64-bit XOR values, field elements, or wider
    rng = np.random.default_rng(9)
    masks = np.concatenate([rng.integers(0, 1 << 64, size=200, dtype=np.uint64),
                            np.array([0, (1 << 64) - 1], dtype=np.uint64)])
    for count in (0, 1, 7, 8, 9, 30, 63, 64):
        rows = rng.integers(0, 1 << 64, size=(count, width), dtype=np.uint64)
        out = gf.xor_rows(masks & np.uint64((1 << count) - 1), rows)
        assert out.shape == (masks.size, width)
        for k, mask in enumerate(masks.tolist()):
            expect = np.zeros(width, dtype=np.uint64)
            for j in range(count):
                if mask >> j & 1:
                    expect ^= rows[j]
            assert out[k].tolist() == expect.tolist(), (count, k)


@pytest.mark.parametrize("width", [1, 2])
def test_xor_rows_ignores_bits_above_row_count_and_host_order(width):
    # the masks are passed as drawn, with bits set above the row count; those
    # bits select nothing, and the masks' values count, not their byte order
    rng = np.random.default_rng(10)
    masks = np.concatenate([rng.integers(0, 1 << 64, size=200, dtype=np.uint64),
                            np.array([0, (1 << 64) - 1], dtype=np.uint64)])
    for count in (0, 1, 7, 8, 9, 30, 63, 64):
        rows = rng.integers(0, 1 << 64, size=(count, width), dtype=np.uint64)
        expect = np.zeros((masks.size, width), dtype=np.uint64)
        for j in range(count):
            expect[(masks >> np.uint64(j)) & np.uint64(1) == 1] ^= rows[j]
        out = gf.xor_rows(masks, rows)
        assert out.tolist() == expect.tolist(), count
        assert gf.xor_rows(masks.astype(">u8"), rows).tolist() == expect.tolist(), count


@settings(max_examples=50, deadline=None)
@given(elems, st.lists(elems, min_size=1, max_size=8))
def test_scalar_mul_vec_property(scalar, values):
    out = gf.scalar_mul_vec(to_bytes(scalar), vec_from_ints(values))
    assert [vec_get(out, i) for i in range(len(values))] == [mul_oracle(scalar, v) for v in values]


def test_vec_xor_is_elementwise():
    a = vec_from_ints([1, 2, 3])
    b = vec_from_ints([5, 6, 7])
    assert [vec_get(a ^ b, i) for i in range(3)] == [1 ^ 5, 2 ^ 6, 3 ^ 7]


@pytest.mark.parametrize("nonce", [None, bytes(range(16, 32))])
@pytest.mark.parametrize("shape", [(0, 2), (1, 2), (33, 2), (5, 2, 2)])
def test_aes_is_the_cipher_over_the_wire_bytes(shape, nonce):
    # ECB, or CTR from the nonce, of the words' little-endian bytes, given
    # back as words in the shape of the blocks, in any host byte order
    key = bytes(range(16))
    words = np.random.default_rng(len(shape)).integers(0, 1 << 64, size=shape, dtype=np.uint64)
    mode = modes.ECB() if nonce is None else modes.CTR(nonce)
    enc = Cipher(algorithms.AES(key), mode).encryptor()
    expected = enc.update(words.astype("<u8").tobytes()) + enc.finalize()
    for blocks in (words, words.astype(">u8")):
        out = gf.aes(key, blocks, nonce)
        assert out.shape == shape and out.dtype == np.dtype("<u8")
        assert out.tobytes() == expected


def test_xor_rows_reads_two_words_as_one_128_bit_mask():
    # word 1 holds bits 64..127, as in a field element's limbs; bits at or above
    # the row count select nothing, and the words' byte order does not count
    rng = np.random.default_rng(11)
    masks = np.concatenate([rng.integers(0, 1 << 64, size=(200, 2), dtype=np.uint64),
                            np.array([[0, 0], [(1 << 64) - 1] * 2], dtype=np.uint64)])
    for count in (0, 9, 64, 65, 100, 128):
        rows = rng.integers(0, 1 << 64, size=(count, 2), dtype=np.uint64)
        expect = np.zeros((masks.shape[0], 2), dtype=np.uint64)
        for j in range(count):
            expect[(masks[:, j // 64] >> np.uint64(j % 64)) & np.uint64(1) == 1] ^= rows[j]
        assert gf.xor_rows(masks, rows).tolist() == expect.tolist(), count
        assert gf.xor_rows(masks.astype(">u8"), rows).tolist() == expect.tolist(), count


def test_key_stream_is_aes_ctr_over_zero_blocks_in_whole_blocks():
    # the class's definition: AES-128-CTR under the key from counter block 0;
    # each draw takes whole blocks, so 5 then 27 bytes are the first 5 bytes
    # of block 0 and the first 27 of blocks 1-2, and the next draw starts at block 3
    key = bytes(range(16))
    blocks = Cipher(algorithms.AES(key), modes.CTR(bytes(16))).encryptor().update(bytes(16 * 5))
    stream = gf.KeyStream(key)
    assert stream.key == key
    assert stream.bytes(5) == blocks[:5]
    assert stream.bytes(27) == blocks[16:43]
    assert stream.bytes(16) == blocks[48:64]
    assert stream.bytes(0) == b""
    assert stream.bytes(1) == blocks[64:65]


def test_key_stream_permutation_is_fixed_by_the_key():
    # n 64-bit stream words, ordered: a permutation of range(n) that the key
    # fixes, and a draw like any other
    key = b"\x07" * 16
    for n in (0, 1, 2, 1000):
        order = gf.KeyStream(key).permutation(n).tolist()
        assert sorted(order) == list(range(n))
        assert gf.KeyStream(key).permutation(n).tolist() == order
    raw = gf.KeyStream(key).bytes(8 * 1000)
    words = [int.from_bytes(raw[i:i + 8], "little") for i in range(0, len(raw), 8)]
    assert gf.KeyStream(key).permutation(1000).tolist() == sorted(range(1000), key=words.__getitem__)
    stream = gf.KeyStream(key)
    stream.permutation(3)
    assert stream.bytes(16) == gf.KeyStream(key).bytes(48)[32:]  # 24 bytes took two blocks


def test_key_streams_differ_by_key_and_a_stream_without_one_is_fresh():
    assert gf.KeyStream(bytes(16)).bytes(64) != gf.KeyStream(bytes(15) + b"\x01").bytes(64)
    assert (gf.KeyStream(bytes(16)).permutation(64).tolist()
            != gf.KeyStream(bytes(15) + b"\x01").permutation(64).tolist())
    fresh = [gf.KeyStream() for _ in range(2)]
    assert [len(s.key) for s in fresh] == [16, 16] and fresh[0].key != fresh[1].key
