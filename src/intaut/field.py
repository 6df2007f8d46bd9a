"""Exact arithmetic in GF(p^h) for odd primes p.

Elements are addressed by their canonical index: the coefficient vector
(c0, ..., c_{h-1}) of the polynomial-basis representation, constant term
first, read as a base-p integer.  Index 0 is zero and index 1 is one, so
tuples of indices can be compared, hashed and packed without further
bookkeeping.  Every arithmetic operation, scalar or bulk, reads the
read-only tables of `Field.tables`, all built at once on first use; the
addition table is the only q x q one: int16, 2 q^2 bytes, so the tables
of a field with q > 32,767, whose indices int16 cannot hold, are refused.
A product is g^(log a + log b) for the primitive element g, read from the
powers and discrete logs, so no multiplication table is kept.  All
operations are pure; a Field is immutable once built.

GF(p)[x]/(f) has one model: the matrices over GF(p) of a -> a b.  Rabin's
test on the matrix of x vets the modulus, the matrices of the elements give
the primitive element and the tables; nothing multiplies coefficient lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InternalInconsistencyError, TooLargeError


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _prime_divisors(m: int) -> list:
    primes = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    return primes


def _mat_pow(m, e, p):
    """e-th power, e >= 1, over GF(p) of the matrix, or of every matrix of
    the stack, m."""
    out = None
    while True:
        if e & 1:
            out = m if out is None else out @ m % p
        e >>= 1
        if not e:
            return out
        m = m @ m % p


def _times_x(modulus, p):
    """The matrix over GF(p) of a -> x a modulo the monic modulus, acting on
    coefficient rows: row i is the coefficient row of x x^i.  int64 while its
    products cannot overflow, Python ints beyond."""
    h = len(modulus) - 1
    dtype = np.int64 if h * (p - 1) ** 2 < 2 ** 63 else object
    times_x = np.eye(h, k=1, dtype=dtype)           # x x^i = x^(i+1), i < h-1,
    times_x[-1] = [-c % p for c in modulus[:h]]     # x x^(h-1) reduced
    return times_x


def rank_mod_p(m, p: int) -> int:
    """Rank over GF(p) of an integer matrix, by Gaussian elimination."""
    rows = np.asarray(m) % p
    rank = 0
    for col in range(rows.shape[1]):
        nonzero = rank + np.flatnonzero(rows[rank:, col])
        if not nonzero.size:
            continue
        rows[[rank, nonzero[0]]] = rows[[nonzero[0], rank]]
        pivot = rows[rank] = rows[rank] * pow(int(rows[rank, col]), -1, p) % p
        below = rows[rank + 1:]
        below -= below[:, col, None] * pivot
        below %= p
        rank += 1
    return rank


def is_irreducible(coeffs, p) -> bool:
    """Rabin's irreducibility test for a monic polynomial f over GF(p), on the
    matrix X of a -> x a in GF(p)[x]/(f).

    f of degree h is irreducible iff x^(p^h) = x (mod f) and, for every prime
    r dividing h, x^(p^(h/r)) - x is prime to f.  X^k is the matrix of
    a -> x^k a, so the first condition reads X^(p^h) = X and the second
    says that X^(p^(h/r)) - X is invertible: its rank over GF(p) is h.
    """
    h = len(coeffs) - 1
    if h < 1 or coeffs[-1] % p != 1:
        return False
    frob = [_times_x(coeffs, p)]                    # frob[k] = X^(p^k)
    for _ in range(h):
        frob.append(_mat_pow(frob[-1], p, p))
    return (np.array_equal(frob[h], frob[0])
            and all(rank_mod_p(frob[h // r] - frob[0], p) == h
                    for r in _prime_divisors(h)))


def least_irreducible(p: int, h: int) -> tuple:
    """Lexicographically least monic irreducible of degree h over GF(p).

    Candidates are ordered by reading the low coefficients (c0, ..., c_{h-1})
    as a base-p integer, ascending; the result is the deterministic default
    modulus for Field(p, h).
    """
    for k in range(p ** h):
        coeffs = tuple(k // p ** i % p for i in range(h)) + (1,)
        if is_irreducible(coeffs, p):
            return coeffs
    raise InternalInconsistencyError("no irreducible polynomial found")


@dataclass(frozen=True)
class FieldTables:
    """Read-only arithmetic tables of a field, for vectorised gathers."""

    add: np.ndarray        # q x q, int16
    neg: np.ndarray        # q
    inv: np.ndarray        # q, inv[0] = 0 as a placeholder
    is_square: np.ndarray  # q, bool, zero counted as a square
    frob: np.ndarray       # h x q, frob[i][a] = a^(p^i)
    square_of: np.ndarray  # q, square_of[a] = a*a
    power: np.ndarray      # q - 1, power[e] = g^e for the primitive element g
    log: np.ndarray        # q, int64, power[log[a]] = a for a != 0; log[0] = 0

    def mul(self, a, b) -> np.ndarray:
        """The int32 products of two broadcastable arrays of element indices:
        g^(log a + log b), and 0 where either factor is 0."""
        a, b = np.asarray(a), np.asarray(b)
        prod = np.take(self.power, self.log[a] + self.log[b], mode="wrap")  # mod q - 1
        return np.where((a != 0) & (b != 0), prod, 0)


class Field:
    """GF(p^h) with elements addressed by canonical base-p index.

    When no modulus is supplied the lexicographically least monic
    irreducible of degree h is chosen, so identical parameters always
    produce identical arithmetic.
    """

    def __init__(self, p: int, h: int = 1, modulus=None):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if p == 2:
            raise ValueError("p must be an odd prime")
        if not isinstance(h, int) or h < 1:
            raise ValueError(f"extension degree h must be >= 1, got {h}")
        self.p = p
        self.h = h
        self.q = p ** h
        if modulus is None:
            self.modulus = least_irreducible(p, h)
        else:
            modulus = tuple(int(c) for c in modulus)
            if not all(0 <= c < p for c in modulus):
                raise ValueError(
                    f"modulus coefficients must lie in [0, {p}), got {modulus}")
            if len(modulus) != h + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {h}, got {modulus}")
            if not is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
            self.modulus = modulus
        self._tables = self._generator = None

    # -- canonical index <-> coefficient vector --------------------------

    def coeffs(self, a: int) -> tuple:
        """Coefficient vector (c0, ..., c_{h-1}) of element index a."""
        self._check(a)
        out = []
        for _ in range(self.h):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def element(self, coeffs) -> int:
        """Element index of a coefficient vector, reducing entries mod p."""
        if len(coeffs) != self.h:
            raise ValueError(f"expected {self.h} coefficients, got {len(coeffs)}")
        a = 0
        for c in reversed(coeffs):
            a = a * self.p + (int(c) % self.p)
        return a

    def elements(self) -> range:
        """All q elements in canonical index order (zero first, one second)."""
        return range(self.q)

    def _check(self, *elements):
        for a in elements:
            if not 0 <= a < self.q:
                raise ValueError(f"element index {a} out of range for GF({self.q})")

    # -- arithmetic: one read of the tables, as a Python int or bool --------

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return self.tables.add.item(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        self._check(a)
        return self.tables.neg.item(a)

    def mul(self, a: int, b: int) -> int:
        """g^(log a + log b) for the primitive element g, or 0 when a or b is."""
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        tables = self.tables
        e = tables.log.item(a) + tables.log.item(b)
        return tables.power.item(e % (self.q - 1))

    def square(self, a: int) -> int:
        self._check(a)
        return self.tables.square_of.item(a)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self.tables.inv.item(a)

    def pow(self, a: int, e: int) -> int:
        """a^e; for e < 0, the inverse of a to the -e.  For a != 0 it is
        g^(e log a) for the primitive element g, so no product is taken."""
        self._check(a)
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in a finite field")
            return 1 if e == 0 else 0
        tables = self.tables
        return tables.power.item(tables.log.item(a) * e % (self.q - 1))

    def frobenius(self, a: int, i: int) -> int:
        """a^(p^i); the i-th power of the field automorphism x -> x^p."""
        if not 0 <= i < self.h:
            raise ValueError(f"Frobenius exponent {i} not in [0, {self.h})")
        self._check(a)
        return self.tables.frob.item(i, a)

    def is_square(self, a: int) -> bool:
        """True iff a is a square, with zero counted as a square."""
        self._check(a)
        return self.tables.is_square.item(a)

    def primitive_element(self) -> int:
        """Least element generating the multiplicative group.

        a generates it iff a^((q-1)/r) != 1 for every prime r dividing q - 1.
        Candidates are tested 64 at a time, the powers taken as powers of
        their multiplication matrices.  The result is kept with the field."""
        if self._generator is None:
            self._generator = self._least_generator()
        return self._generator

    # -- internals --------------------------------------------------------

    def _least_generator(self) -> int:
        order = self.q - 1
        weights = self.p ** np.arange(self.h)
        for start in range(2, self.q, 64):
            cands = np.arange(start, min(start + 64, self.q))
            m = self._times_matrices(cands)
            ok = np.ones(cands.size, dtype=bool)
            for r in _prime_divisors(order):
                # row 0 of the k-th power of a's matrix is a^k's coefficients
                ok &= _mat_pow(m, order // r, self.p)[:, 0] @ weights != 1
            if ok.any():
                return int(cands[ok.argmax()])
        raise InternalInconsistencyError("multiplicative group has no generator")

    def _times_matrices(self, elements) -> np.ndarray:
        """Stack of the int64 matrices over GF(p) of x -> a x, one per element
        a: the coefficient row of x times the matrix of a is that of a x."""
        p, h = self.p, self.h
        times_x = _times_x(self.modulus, p)
        powers = [np.eye(h, dtype=np.int64)]              # powers[i]: matrix of x^i
        for _ in range(h - 1):
            powers.append(powers[-1] @ times_x % p)
        digits = np.asarray(elements, dtype=np.int64)[:, None] // p ** np.arange(h) % p
        return (digits @ np.reshape(powers, (h, h * h)) % p).reshape(-1, h, h)

    @property
    def tables(self) -> FieldTables:
        """The arithmetic tables as read-only numpy arrays, all built on
        first use.  Raises TooLargeError, before allocating anything, for
        q > 32,767, whose indices int16 cannot hold, and when the q x q add
        table of 2 q^2 bytes cannot be allocated."""
        # not a functools.cached_property: its write into the instance dict
        # slows every later attribute read, from about 10 to 29 ns, and a
        # scalar operation reads several of a Field's.
        if self._tables is None:
            refusal = TooLargeError(f"the arithmetic tables of GF({self.q}) "
                                    "do not fit in memory")
            if self.q > np.iinfo(np.int16).max:
                raise refusal
            try:
                self._tables = self._build_tables()
            except MemoryError:
                raise refusal from None
        return self._tables

    def _build_tables(self) -> FieldTables:
        """Whole-array steps, each about one pass over its output.

        add is built digit by digit, top digit most significant: with s = p^k,
        the table of k + 1 digits, reshaped to (p, s, p, s), is the top
        digits' sum mod p times s plus the table of the lower k digits.  Its
        q x q int16 array comes from np.zeros and is filled in place, so a
        field too large for memory fails on that first allocation.  The
        powers of a primitive element g are doubled with the matrix of
        x -> g x: the rows g^0 .. g^(k-1), times that matrix to the k, are
        g^k .. g^(2k-1).
        neg, inv, frob and square_of then gather from the powers by logs;
        -1 is g^((q-1)/2), so neg adds (q-1)/2 to each log.  The powers and
        logs are kept as tables too, for pow and mul."""
        q, p, h = self.q, self.p, self.h
        add = np.zeros((q, q), dtype=np.int16)
        digits = np.arange(p, dtype=np.int16)
        twice = np.concatenate((digits, digits))         # twice[a + b] = (a + b) % p
        low = np.zeros((1, 1), dtype=np.int16)           # the table of no digits
        for k in range(h):
            s = p ** k
            # top[a, b] = twice[a + b] * s, as a view of p x p strided entries
            top = as_strided(twice * s, (p, p), twice.strides * 2)
            high = add if k == h - 1 else np.empty((p * s, p * s), dtype=np.int16)
            np.add(top[:, None, :, None], low[None, :, None, :],
                   out=high.reshape(p, s, p, s))
            low = high

        order = q - 1
        coeffs = np.zeros((1, h), dtype=np.int64)        # coefficients of g^0 ..
        coeffs[0, 0] = 1
        times = self._times_matrices([self.primitive_element()])[0]
        while len(coeffs) < order:
            coeffs = np.concatenate((coeffs, coeffs @ times % p))
            times = times @ times % p
        power = (coeffs[:order] @ p ** np.arange(h)).astype(np.int32)  # power[e] = g^e
        log = np.zeros(q, dtype=np.int64)                # log[0] = 0: see below
        log[power] = np.arange(order)
        neg = power[(log + order // 2) % order]
        inv = power[-log % order]
        frob = np.stack([power[log * p ** i % order] for i in range(h)])
        square_of = power[2 * log % order]
        neg[0] = inv[0] = frob[:, 0] = square_of[0] = 0
        is_square = log % 2 == 0                         # zero included, by log[0]
        for arr in (add, neg, inv, is_square, frob, square_of, power, log):
            arr.setflags(write=False)
        return FieldTables(add, neg, inv, is_square, frob, square_of, power, log)

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.h, self.modulus) == (other.p, other.h, other.modulus)

    def __hash__(self):
        return hash((self.p, self.h, self.modulus))

    def __repr__(self):
        poly = poly_str(self.modulus)
        return f"Field({self.p}, {self.h}, modulus={poly})"


def poly_str(coeffs) -> str:
    """Human-readable form of a coefficient vector, e.g. x^2 + 1."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            x = "x" if e == 1 else f"x^{e}"
            terms.append(x if c == 1 else f"{c}{x}")
    return " + ".join(terms) if terms else "0"

