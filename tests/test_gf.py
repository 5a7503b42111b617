import functools
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from rghw.errors import RghwError
from rghw.gf import Field, PackedVectors


def prime_powers(limit):
    """Every prime power q <= limit, by a sieve of Eratosthenes."""
    is_prime = [True] * (limit + 1)
    out = []
    for p in range(2, limit + 1):
        if is_prime[p]:
            for m in range(p * p, limit + 1, p):
                is_prime[m] = False
            q = p
            while q <= limit:
                out.append(q)
                q *= p
    return sorted(out)


PRIME_POWERS = prime_powers(2**16)


def test_prime_field_tables():
    f = Field(5)
    assert f.p == 5 and f.e == 1
    assert f.mul(2, 4) == 3
    assert f.add(3, 4) == 2
    assert f.neg(2) == 3
    assert f.inv(4) == 4


def test_gf4_canonical_modulus():
    f = Field(4)
    # Smallest monic irreducible quadratic over GF(2) is x^2 + x + 1.
    assert f.modulus == (1, 1, 1)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3


def test_gf8_gf9_arithmetic():
    f8 = Field(8)
    assert f8.modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert f8.mul(2, 4) == 3  # x * x^2 = x^3 = x + 1
    f9 = Field(9)
    assert f9.modulus == (1, 0, 1)  # x^2 + 1
    assert f9.mul(3, 3) == 2  # x * x = -1


def test_inv7():
    assert Field(7).inv(3) == 5


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    f = Field(q)
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            if a and b:
                assert f.mul(a, b) != 0  # no zero divisors
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [32, 49, 64, 81, 121, 128, 243, 256])
def test_field_axioms_larger(q):
    # Full triple loops get slow here; inverses and zero divisors are
    # still checked exhaustively, associativity on a fixed sample.
    f = Field(q)
    els = range(q)
    for a in els:
        if a:
            assert f.mul(a, f.inv(a)) == 1
        assert f.add(a, f.neg(a)) == 0
    sample = els[:: max(1, q // 16)]
    for a in sample:
        for b in sample:
            assert f.mul(a, b) == f.mul(b, a)
            for c in sample:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_modulus_has_no_roots():
    # A root in the prime field would make the modulus reducible.
    for q in (4, 8, 9, 16, 27, 32, 64, 81, 125):
        f = Field(q)
        for x in range(f.p):
            acc = 0
            pf = Field(f.p)
            for coeff in reversed(f.modulus):
                acc = pf.add(pf.mul(acc, x), coeff)
            assert acc != 0, f"q={q}: modulus vanishes at {x}"


def test_large_field_no_tables():
    f = Field(257)
    assert f.mul(16, 16) == 256
    assert f.mul(f.inv(100), 100) == 1
    f = Field(512)
    for a in (1, 2, 3, 100, 511):
        assert f.mul(a, f.inv(a)) == 1
    assert f.mul(2, brute.field_pow(f, 2, 8)) == brute.field_pow(f, 2, 9)


def test_invalid_orders_rejected():
    for bad in (0, 1, -4, 2**16 + 1):
        with pytest.raises(RghwError, match=rf"q = {bad} outside supported range 2\.\.65536"):
            Field(bad)
    for bad in (6, 10, 12, 100):
        with pytest.raises(RghwError, match=f"q = {bad} is not a prime power"):
            Field(bad)


def test_division_by_zero():
    f = Field(9)
    with pytest.raises(RghwError, match=r"inverse of 0 in GF\(9\)"):
        f.inv(0)


def test_field_equality_and_hash():
    assert Field(4) == Field(4)
    assert Field(4) != Field(5)
    assert hash(Field(9)) == hash(Field(9))


@functools.lru_cache(maxsize=8)
def field(q):
    return Field(q)


def check_against_reference(f, pairs, elements):
    """Field arithmetic equals the schoolbook digit reference in brute.py."""
    q = f.q
    for a, b in pairs:
        assert f.add(a, b) == brute.field_add(f, a, b), (q, "add", a, b)
        assert f.mul(a, b) == brute.field_mul(f, a, b), (q, "mul", a, b)
    for a in elements:
        assert f.neg(a) == brute.field_neg(f, a), (q, "neg", a)
        if a:
            assert brute.field_mul(f, a, f.inv(a)) == 1, (q, "inv", a)


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 64])
def test_arithmetic_matches_reference_exhaustive(q):
    f = field(q)
    check_against_reference(f, [(a, b) for a in range(q) for b in range(q)], range(q))


@pytest.mark.parametrize("q", [81, 128, 243, 256, 257, 1024, 59049, 65521, 65536])
def test_arithmetic_matches_reference_sampled(q):
    f = field(q)
    rng = random.Random(q)
    edges = [0, 1, 2, f.p % q, q - 2, q - 1]  # f.p encodes x when e > 1
    elements = edges + [rng.randrange(q) for _ in range(30)]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]
    check_against_reference(f, pairs, elements)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(PRIME_POWERS), st.integers(0, 2**16), st.integers(0, 2**16),
       st.integers(0, 2**16))
def test_arithmetic_properties_random_fields(q, a, b, c):
    f = field(q)
    a, b, c = a % q, b % q, c % q
    check_against_reference(f, [(a, b), (b, c)], [a])
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_row_kernels_match_scalar_arithmetic_on_every_pair(q):
    # every (x, y), zeros and x = -y among them
    f = field(q)
    elements = list(range(q))
    xs = [a for a in elements for _ in elements]
    ys = [b for _ in elements for b in elements]
    assert f.kron(elements, elements) == [f.mul(a, b) for a, b in zip(xs, ys)]
    assert f.add_rows(xs, ys) == [f.add(a, b) for a, b in zip(xs, ys)]
    assert f.add_rows(elements, [f.neg(a) for a in elements]) == [0] * q
    for c in elements:
        assert f.add_rows(xs, ys, c) == [f.add(a, f.mul(c, b)) for a, b in zip(xs, ys)]
    for a in elements:
        assert f.kron([a], elements) == [f.mul(a, b) for b in elements]
    for e in range(q + 2):
        assert f.powers(elements, e) == [brute.field_pow(f, a, e) for a in elements]
    assert f.kron([], elements) == f.kron(elements, []) == f.add_rows([], []) == []
    assert f.powers([], 0) == f.powers([], 2) == []


@pytest.mark.parametrize("q", [101, 256, 257, 1024])
def test_row_kernels_match_scalar_arithmetic_on_random_rows(q):
    f = field(q)
    rng = random.Random(q)
    for _ in range(20):
        x = [rng.choice((0, rng.randrange(q))) for _ in range(rng.randint(1, 40))]
        y = [rng.choice((0, rng.randrange(q))) for _ in range(rng.randint(1, 40))]
        assert f.kron(x, y) == [f.mul(a, b) for a in x for b in y]
        y = y[: len(x)] + [f.neg(a) for a in x[len(y):]]  # x = -y past y's end
        assert f.add_rows(x, y) == [f.add(a, b) for a, b in zip(x, y)]
        c = rng.randrange(q)
        assert f.add_rows(x, y, c) == [f.add(a, f.mul(c, b)) for a, b in zip(x, y)]
        for e in range(50):
            assert f.powers(x, e) == [brute.field_pow(f, a, e) for a in x]


@pytest.mark.parametrize("n", [1, 7, 31, 40])
@pytest.mark.parametrize("q", [2, 4, 8, 256, 65536, 3, 9, 243])
def test_packed_vectors_match_field_arithmetic(q, n):
    # for n > 1 a coordinate's digits lie n slots apart, and past 30 bits a
    # vector spans several int digits; each vector is also a translate's
    # step, so some translates cancel to zero coordinates
    f = field(q)
    rng = random.Random(n * q)
    high = f.p ** (f.e - 1)  # only the top digit nonzero
    vecs = [[0] * n] + [[rng.choice((0, 1, high, rng.randrange(q))) for _ in range(n)] for _ in range(12)]
    vecs += [[f.neg(a) for a in v] for v in vecs[1:4]]
    packing = PackedVectors(f.p, f.e, n)
    w = packing.w
    packed = [packing.pack(v) for v in vecs]
    assert packed == [brute.brute_pack(f, v, w) for v in vecs]
    for step in vecs[:7]:
        sums = [[f.add(a, b) for a, b in zip(v, step)] for v in vecs]
        assert packing.translates(packed, packing.pack(step)) == [brute.brute_pack(f, v, w) for v in sums]
        masks = packing.supports([packing.pack(v) for v in sums])
        assert all(m & ~packing.full == 0 for m in masks)
        read = [{i for i in range(n) if m >> i * w + w - 1 & 1} for m in masks]
        assert read == [{i for i, a in enumerate(v) if a} for v in sums]


# sha256 over repr((q, _exp, _log, _zech)) of GF(2^e) for the exponents
# below, recorded while `_powers` decoded its span through a q-entry dict
# for p = 2 too
GF2E_TABLES_DIGEST = "5526b948e8fbf7fa6a602ffeb7cdf0e5e357ab7a4cc7ebeef80c8746d6c06f2b"


def test_gf2e_tables_pinned():
    # for p = 2 the span of the images g*x^j is already the table of g*t
    digest = hashlib.sha256()
    for e in (1, 2, 3, 4, 5, 8, 10, 12, 16):
        f = Field(2**e)
        digest.update(repr((f.q, f._exp, f._log, f._zech)).encode())
    assert digest.hexdigest() == GF2E_TABLES_DIGEST
