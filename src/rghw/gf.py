"""Exact arithmetic in small finite fields GF(q), q = p^e <= 2^16.

Field elements are plain Python ints in 0..q-1.  For a prime field the
int is the residue itself; for an extension field it is the base-p digit
encoding of the polynomial representative (digit i = coefficient of x^i),
so 0 and 1 always encode the additive and multiplicative identities and
the encoding is canonical: equal ints are equal elements.

The reduction modulus for e > 1 is the lexicographically smallest monic
irreducible polynomial of degree e over GF(p), where "lexicographically
smallest" compares coefficient vectors from the highest degree down,
i.e. picks the candidate with the smallest base-p integer encoding of
its low coefficients.  Irreducibility is checked by trial division by
every monic polynomial of degree 1..e//2, which is cheap in this range.

Every field, prime or not, computes with the same three O(q) tables
(Lidl-Niederreiter, *Finite Fields*, ch. 9): for a primitive element g,
exp[i] = g^i, log[g^i] = i and the Zech logarithm zech[n] = log(1 + g^n),
so g^a + g^b = g^(a + zech[b - a]).  Zero's log is 2(q-1), past every sum
of two nonzero logs, and exp reads 0 from there on, so products and
negations with zero need no branch.  The Zech table is extended past its
q - 1 entries so that sums with zero need none either (see `add`).

Besides the scalar methods, `kron` (the Kronecker product of two rows)
and `add_rows` (x + c*y, elementwise) work on whole rows, in list
comprehensions of table lookups: the grid evaluator and the row
reductions of `codes` and `oracle` go through them, and `powers` gives
a grid its power columns.

`PackedVectors` holds vectors of GF(q)^n as single ints for the support
oracle's cosets, one slot per base-p digit, so that a vector sum works
on all coordinates at once.  In characteristic 2 a slot is one bit: the
j-th digits of all coordinates form bit plane j, a sum is an XOR, and a
support mask ORs the planes together.  For odd p a slot is wider and a
sum is one int add with a carry correction.  `pack` reads a q-entry
table of each encoding's digits spread into slots, which for odd p also
decodes the packed span that `_powers` builds.
"""

from __future__ import annotations

from itertools import repeat
from operator import or_, rshift

from .errors import RghwError

_MAX_Q = 1 << 16


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def _prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise RghwError."""
    p = _smallest_prime_factor(q)
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise RghwError(f"q = {q} is not a prime power (divisible by {p} and {m})")
    return p, e


def digits(t: int, base: int, length: int) -> list[int]:
    """Base-`base` digits of t, low digit first, padded to `length`."""
    out = []
    for _ in range(length):
        out.append(t % base)
        t //= base
    return out


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num mod den over GF(p); den is monic.  Trailing zeros trimmed."""
    rem = list(num)
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * den[j]) % p
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _is_irreducible(f: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree 1..deg(f)//2."""
    e = len(f) - 1
    for deg in range(1, e // 2 + 1):
        for t in range(p**deg):
            den = digits(t, p, deg) + [1]
            if not _poly_mod(f, den, p):
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Coefficients (low first, monic leading 1 included) of the modulus."""
    for t in range(p**e):
        f = digits(t, p, e) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {e} over GF({p})")  # unreachable


def _mul_digits(a: int, b: int, p: int, e: int, modulus: tuple[int, ...]) -> int:
    """Schoolbook product of two encodings; only used to build the tables."""
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(digits(a, p, e)):
        for j, y in enumerate(digits(b, p, e)):
            prod[i + j] = (prod[i + j] + x * y) % p
    rem = _poly_mod(prod, list(modulus), p) if modulus else prod  # e = 1: constants
    return sum(c * p**i for i, c in enumerate(rem))


class PackedVectors:
    """Vectors of GF(p^e)^n as ints with one w-bit slot per base-p digit:
    digit j of coordinate i sits in slot j*n + i, so digit j of every
    coordinate fills plane j, the n slots from bit j*n*w on.

    For p = 2 a slot is one bit (w = 1): adding two vectors is an XOR.
    For odd p, w = p.bit_length() + 1 and a slot holds 2p - 2 plus a bias
    below 2^(w-1), so adding two vectors is one int add, then subtracting
    p from every slot that reached p, all slots at once.

    A support mask has the top bit of slot i set when coordinate i is
    nonzero: the top bits of the nonzero slots, planes ORed onto plane 0.
    `full` has all n of them.  spread[a] holds the digits of a in the
    slots of coordinate 0, so `pack` is one shifted table read a
    coordinate.
    """

    __slots__ = ("p", "e", "n", "w", "top", "bias", "ones", "full", "spread")

    def __init__(self, p: int, e: int, n: int):
        self.p, self.e, self.n = p, e, n
        self.w = w = 1 if p == 2 else p.bit_length() + 1
        unit = sum(1 << j * w for j in range(n * e))  # 1 in every slot
        self.top = unit << w - 1
        # odd p: a slot reaches its top bit iff >= p, or iff >= 1
        self.bias, self.ones = ((1 << w - 1) - p) * unit, ((1 << w - 1) - 1) * unit
        self.full = self.top & (1 << n * w) - 1
        self.spread = spread = [0]
        for j in range(e):  # a = d * p^j + (a mod p^j) puts d in plane j
            spread += [s | high for high in range(1 << j * n * w, p << j * n * w, 1 << j * n * w) for s in spread]

    def pack(self, vec) -> int:
        spread, w = self.spread, self.w
        return sum(spread[a] << i * w for i, a in enumerate(vec))

    def translates(self, packed: list, step: int) -> list:
        """x + step for every x in `packed`."""
        if self.p == 2:
            return list(map(step.__xor__, packed))
        p, top, bias, shift = self.p, self.top, self.bias, self.w - 1
        return [(s := x + step) - p * ((s + bias & top) >> shift) for x in packed]

    def supports(self, packed: list) -> list:
        """Support mask of every vector in `packed`; for GF(2), `packed` itself."""
        ones, top = self.ones, self.top
        # a set bit is a nonzero digit (p = 2), or the top bit of a nonzero slot (odd p)
        nonzero = packed if self.p == 2 else [x + ones & top for x in packed]
        if self.e == 1:
            return nonzero
        folded, plane = nonzero, self.n * self.w
        for j in range(1, self.e):
            folded = map(or_, folded, map(rshift, nonzero, repeat(j * plane)))
        return list(map(self.full.__and__, folded))


def _powers(p: int, e: int, modulus: tuple[int, ...]) -> list[int]:
    """g^0 .. g^(q-2) as encodings, for g the smallest encoding >= 2 of
    multiplicative order q - 1 (g = 1 for GF(2)).

    Multiplication by g is GF(p)-linear, so the table of g*t over all t is
    the span of the images g*x^j, summed as PackedVectors of length 1 and
    decoded through their spread table, which for p = 2 is the identity.
    """
    n = p**e - 1
    cofactors = [n // f for f in range(2, n + 1) if n % f == 0 and _smallest_prime_factor(f) == f]

    def power(a: int, k: int) -> int:
        result = 1
        for bit in bin(k)[2:]:
            result = _mul_digits(result, result, p, e, modulus)
            if bit == "1":
                result = _mul_digits(result, a, p, e, modulus)
        return result

    g = next((c for c in range(2, n + 1) if all(power(c, k) != 1 for k in cofactors)), 1)
    packing = PackedVectors(p, e, 1)
    span = [0]  # sum_j u_j * g*x^j for u = 0 .. p^e - 1, u_j the digits of u
    for j in range(e):
        image = packing.spread[_mul_digits(g, p**j, p, e, modulus)]
        multiples = [0]
        for _ in range(p - 1):
            multiples += packing.translates(multiples[-1:], image)
        span = [t for m in multiples for t in packing.translates(span, m)]
    if p > 2:
        encoding = {s: t for t, s in enumerate(packing.spread)}
        span = [encoding[s] for s in span]
    out = [1]
    for _ in range(n - 1):
        out.append(span[out[-1]])
    return out


class Field:
    """GF(q) with elements encoded as ints 0..q-1.

    Parameters
    ----------
    q : int
        Field order, a prime power with 2 <= q <= 2**16.

    Attributes
    ----------
    q, p, e : int
        Order, characteristic, extension degree.
    modulus : tuple[int, ...]
        Reduction modulus coefficients, low degree first, length e+1;
        empty tuple for prime fields.
    """

    __slots__ = ("q", "p", "e", "modulus", "_exp", "_log", "_zech", "_log_neg1")

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 2 or q > _MAX_Q:
            raise RghwError(f"q = {q!r} outside supported range 2..{_MAX_Q}")
        self.q = q
        self.p, self.e = _prime_power(q)
        self.modulus = _smallest_irreducible(self.p, self.e) if self.e > 1 else ()
        powers = _powers(self.p, self.e, self.modulus)
        log = [2 * q - 2] * q
        for i, t in enumerate(powers):
            log[t] = i
        # 1 + g^i adds one to the low digit of g^i
        zech = [log[t + 1 if (t + 1) % self.p else t + 1 - self.p] for t in powers]
        # indexed by log b - log a in -2(q-1)..2(q-1), negative ones wrapping:
        # |difference| < q - 1 for two nonzero terms, 2(q-1) - log a (read 0)
        # for b = 0, and log b - 2(q-1) (read itself) for a = 0
        self._zech = zech + [0] * q + list(range(2 - 2 * q, 1 - q)) + zech
        self._exp = powers + powers + [0] * (2 * q - 1)
        self._log = log
        self._log_neg1 = log[self.p - 1]  # p - 1 encodes -1

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        # a + 0 reads exp[log a + 0], 0 + b reads exp[log b], and 0 + 0
        # reads past 2(q-1)
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_neg1]

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise RghwError(f"inverse of 0 in GF({self.q})")
        return self._exp[self.q - 1 - self._log[a]]

    # -- whole rows ------------------------------------------------------------

    def powers(self, xs, e: int) -> list[int]:
        """The row [x^e for x in xs], for e >= 0, read off the logs of xs."""
        exp, log, order = self._exp, self._log, self.q - 1
        # zero's log is past `order`: 0^0 = 1 and 0^e = 0 after
        return [exp[l * e % order] if (l := log[x]) < order else int(not e) for x in xs]

    def kron(self, x, y) -> list[int]:
        """Kronecker product of rows x and y: x[i] * y[j] at i * len(y) + j."""
        exp, log = self._exp, self._log
        ly = [log[b] for b in y]
        return [exp[la + lb] for a in x for la in (log[a],) for lb in ly]

    def add_rows(self, x, y, c: int = 1) -> list[int]:
        """x + c*y, elementwise, for rows x and y of equal length."""
        exp, log, zech = self._exp, self._log, self._zech
        if c != 1:
            lc = log[c]
            y = [exp[lc + log[b]] for b in y]
        return [exp[(la := log[a]) + zech[log[b] - la]] for a, b in zip(x, y)]

    # -- identity --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("rghw.Field", self.q))

    def __repr__(self) -> str:
        return f"Field({self.q})"
