"""Field arithmetic: axioms, oracle agreement, serialization, batch ops."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from authpsi import gf

MASK = gf.MASK128
elems = st.integers(min_value=0, max_value=MASK)
nonzero = st.integers(min_value=1, max_value=MASK)


def mul_oracle(a: int, b: int) -> int:
    """Bit-serial long multiplication, reducing after every doubling step.

    Horner evaluation over the bits of b, high to low; independent of the
    carry-less product + lazy fold the implementation uses.
    """
    acc = 0
    for i in range(127, -1, -1):
        acc <<= 1
        if acc >> 128:
            acc = (acc & MASK) ^ 0x87
        if (b >> i) & 1:
            acc ^= a
    return acc


def test_add_examples():
    assert 0x03 ^ 0x05 == 0x06
    r = random.Random(0)
    for _ in range(100):
        a = r.getrandbits(128)
        assert a ^ a == 0
        assert a ^ 0 == a


def test_mul_identities():
    r = random.Random(1)
    assert gf.mul(0x02, 0x02) == 0x04  # x * x = x^2, no reduction triggered
    for _ in range(100):
        a = r.getrandbits(128)
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0


def test_mul_against_oracle_bulk():
    r = random.Random(2)
    for _ in range(10_000):
        a, b = r.getrandbits(128), r.getrandbits(128)
        assert gf.mul(a, b) == mul_oracle(a, b)


def test_field_axioms_bulk():
    r = random.Random(3)
    for _ in range(10_000):
        a, b, c = (r.getrandbits(128) for _ in range(3))
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)


@settings(max_examples=200, deadline=None)
@given(elems, elems)
def test_mul_matches_oracle(a, b):
    assert gf.mul(a, b) == mul_oracle(a, b)


@settings(max_examples=100, deadline=None)
@given(elems)
def test_serialization_roundtrip(a):
    raw = gf.to_bytes(a)
    assert len(raw) == 16
    assert gf.from_bytes(raw) == a


def test_serialization_is_little_endian():
    # bit 0 is the constant term, so byte 0 carries the low coefficients
    assert gf.to_bytes(1)[0] == 1
    assert gf.from_bytes(b"\x01" + bytes(15)) == 1
    assert gf.from_bytes(bytes(15) + b"\x80") == 1 << 127


def test_vector_roundtrips():
    r = random.Random(7)
    values = [r.getrandbits(128) for _ in range(33)]
    arr = gf.vec_from_ints(values)
    assert [gf.vec_get(arr, i) for i in range(33)] == values
    assert gf.vec_from_bytes(gf.vec_to_bytes(arr)).tolist() == arr.tolist()
    # element serialization inside a vector matches the scalar format
    assert gf.vec_to_bytes(arr)[:16] == gf.to_bytes(values[0])


def test_scalar_mul_vec_matches_scalar():
    r = random.Random(8)
    # the unit elements x^0..x^127 pick out one basis product each, which
    # catches an off-by-one at the limb boundary 63/64
    values = [r.getrandbits(128) for _ in range(257)] + [1 << i for i in range(128)] + [MASK]
    arr = gf.vec_from_ints(values)
    for scalar in (0, 1, 2, r.getrandbits(128), (1 << 127) | r.getrandbits(127)):
        out = gf.scalar_mul_vec(scalar, arr)
        for i in (0, 1, 128, 256, *range(257, len(values))):
            assert gf.vec_get(out, i) == gf.mul(scalar, values[i])
        empty = gf.scalar_mul_vec(scalar, arr[:0])
        assert empty.shape == (0, 2) and empty.dtype == arr.dtype


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


@settings(max_examples=50, deadline=None)
@given(elems, st.lists(elems, min_size=1, max_size=8))
def test_scalar_mul_vec_property(scalar, values):
    out = gf.scalar_mul_vec(scalar, gf.vec_from_ints(values))
    assert [gf.vec_get(out, i) for i in range(len(values))] == [gf.mul(scalar, v) for v in values]


def test_vec_xor_is_elementwise():
    a = gf.vec_from_ints([1, 2, 3])
    b = gf.vec_from_ints([5, 6, 7])
    assert [gf.vec_get(a ^ b, i) for i in range(3)] == [1 ^ 5, 2 ^ 6, 3 ^ 7]
