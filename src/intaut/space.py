"""Points of the n-dimensional affine space over GF(q), the squared-distance
form and the square/non-square classification of vectors.

A point is a tuple of n element indices; its canonical index is the mixed
radix value sum(x[j] * q**j), so coordinate 0 is least significant.
In bulk, a norm class is a uint8 code, the position of the SphereClass in
list(SphereClass): 0 origin, 1 isotropic, 2 square, 3 non-square.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TooLargeError
from .field import Field

# the CLI's default --max-points; library functions take no such bound
DEFAULT_MAX_POINTS = 100_000
# entries a bulk table may hold: the pair class codes, the reflection images
MAX_BULK_ENTRIES = 4_000_000
# entries of one block of the blocked gathers (census, orbit sweep, cones):
# small enough that the heap reuses their temporaries, mapping no fresh pages
BLOCK = 2 ** 14


def block_rows(row_entries: int) -> int:
    """Rows of row_entries entries each that make one block, at least one."""
    return max(1, BLOCK // max(row_entries, 1))


class SphereClass(enum.Enum):
    """Classification of a vector by its squared norm, in class code order."""

    ORIGIN = "origin"
    ISOTROPIC = "isotropic"          # nonzero, norm 0
    SQUARE = "square"                # norm a nonzero square
    NONSQUARE = "nonsquare"          # norm a non-square


@dataclass(frozen=True)
class SphereCounts:
    """Sizes of the three nonzero norm classes; eps is 0 iff q = 1 mod 4."""

    isotropic: int
    square: int
    nonsquare: int
    eps: int


def num_points(field: Field, n: int) -> int:
    return field.q ** n


def check_size(field: Field, n: int, bound: int):
    """Raise TooLargeError if q^n exceeds the enumeration bound, building q^n
    only up to the first power past it; the message names q^n in full where
    Python prints it (4,300 digits by default), else as the power q^n."""
    q, total = field.q, 1
    for _ in range(n):
        total *= q
        if total > bound:
            digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
            shown = q ** n if n * math.log10(q) < digits - 1 else f"{q}^{n}"
            raise TooLargeError(f"q^n = {shown} exceeds the enumeration bound {bound}")


def point_of_index(field: Field, n: int, k: int) -> tuple:
    if not 0 <= k < field.q ** n:
        raise ValueError(f"point index {k} out of range")
    q = field.q
    coords = []
    for _ in range(n):
        coords.append(k % q)
        k //= q
    return tuple(coords)


def canonical_index(field: Field, point) -> int:
    q = field.q
    k = 0
    for x in reversed(point):
        if not 0 <= x < q:
            raise ValueError(f"coordinate {x} out of range for GF({q})")
        k = k * q + x
    return k


def enumerate_points(field: Field, n: int):
    """All points in canonical index order."""
    pts = [()]
    for _ in range(n):
        pts = [p + (x,) for x in range(field.q) for p in pts]
    return pts


def vec_add(field: Field, x, y) -> tuple:
    _check_dims(x, y)
    return tuple(field.add(a, b) for a, b in zip(x, y))


def _check_dims(x, y):
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")


def norm(field: Field, v) -> int:
    """Sum of squared coordinates."""
    acc = 0
    for x in v:
        acc = field.add(acc, field.square(x))
    return acc


def distance(field: Field, x, y) -> int:
    """Squared Euclidean distance sum((x_i - y_i)^2), a field element."""
    _check_dims(x, y)
    acc = 0
    for a, b in zip(x, y):
        acc = field.add(acc, field.square(field.sub(a, b)))
    return acc


def is_integral(field: Field, x, y) -> bool:
    """True iff the squared distance is a square (zero included)."""
    return field.is_square(distance(field, x, y))


def classify(field: Field, v) -> SphereClass:
    if all(x == 0 for x in v):
        return SphereClass.ORIGIN
    w = norm(field, v)
    if w == 0:
        return SphereClass.ISOTROPIC
    if field.is_square(w):
        return SphereClass.SQUARE
    return SphereClass.NONSQUARE


def sphere_counts_enumerated(field: Field, n: int) -> SphereCounts:
    """Exact class sizes, counted from the norm histogram (_norm_census) with
    no symmetry argument and no code shared with sphere_counts_formula, so
    each checks the other; the tests check both against a per-point scan."""
    zero_norms, squares = _norm_census(field, n)
    return SphereCounts(isotropic=zero_norms - 1,  # origin excluded
                        square=squares - zero_norms,
                        nonsquare=field.q ** n - squares,
                        eps=0 if field.q % 4 == 1 else 1)


def _norm_census(field: Field, n: int) -> tuple:
    """(zero, square): the numbers of points of GF(q)^n whose norm is 0 and
    whose norm is a square, 0 included; exact integers.

    hist[w] counts the points of GF(q)^k of norm w.  A new coordinate x adds
    x^2, which is the square s for mult[s] values of x (1 for s = 0, else 2),
    so the next histogram is hist[w - s] summed over the squares s weighted
    by mult[s]: q (q + 1) / 2 gathers a coordinate instead of one norm per
    point.  The last coordinate only totals the norm 0 and the square norms,
    over the support of the histogram before it.  Each step gathers rows
    of add in blocks of about BLOCK entries.  Counts reach q^n, so
    from 2^63 on the arrays hold Python ints.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tb = field.tables
    q = field.q
    dtype = np.int64 if q ** n < 2 ** 63 else object
    mult = np.bincount(tb.square_of, minlength=q).astype(dtype)
    sq = np.flatnonzero(mult)                           # the squares, 0 included
    neg_sq, weights = tb.neg[sq], mult[sq]
    rows = block_rows(sq.size)
    # the histogram of GF(q)^1, or for n = 1, where the first coordinate is
    # the last, of GF(q)^0: the origin alone
    hist = mult if n > 1 else (np.arange(q) == 0).astype(dtype)
    for _ in range(n - 2):
        hist = np.concatenate([hist[tb.add[r:r + rows, neg_sq]] @ weights
                               for r in range(0, q, rows)])
    supp = np.flatnonzero(hist)
    zero = hist[neg_sq] @ weights
    blocks = (supp[r:r + rows] for r in range(0, supp.size, rows))
    square = sum(hist[b] @ (tb.is_square[tb.add[b[:, None], sq]] @ weights) for b in blocks)
    return int(zero), int(square)


def sphere_counts_formula(field: Field, n: int) -> SphereCounts:
    """Closed-form class sizes, split by the parity of n; exact integers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = field.q
    eps = 0 if q % 4 == 1 else 1

    def sgn(k):
        return -1 if k & 1 else 1

    if n % 2:
        s0 = q ** (n - 1) - 1
        t_hi = sgn(eps * ((n + 3) // 2)) * q ** ((n + 1) // 2)
        t_lo = sgn(eps * ((n - 1) // 2)) * q ** ((n - 1) // 2)
        splus = (q ** n - q ** (n - 1) + t_hi - t_lo) // 2
        sminus = (q ** n - q ** (n - 1) - t_hi + t_lo) // 2
    else:
        s = sgn(eps * (n // 2))
        s0 = q ** (n - 1) + s * q ** (n // 2) - s * q ** ((n - 2) // 2) - 1
        half = (q ** n - q ** (n - 1) - s * q ** (n // 2)
                + s * q ** ((n - 2) // 2)) // 2
        splus = sminus = half
    return SphereCounts(s0, splus, sminus, eps)


# ---------------------------------------------------------------------------
# bulk views used by the permutation and graph machinery, read-only and
# cached for the last (field, n) pair
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def point_matrix(field: Field, n: int) -> np.ndarray:
    """q^n x n array of coordinates, row k = point_of_index(k)."""
    q = field.q
    total = q ** n
    ks = np.arange(total, dtype=np.int64)
    cols = [(ks // q ** j) % q for j in range(n)]
    out = np.stack(cols, axis=1).astype(np.int32)
    out.setflags(write=False)
    return out


def _norm_array(field: Field, n: int) -> np.ndarray:
    """norms[k] = sum of squared coordinates of point k.

    Coordinate by coordinate, most significant last: the norms of the points
    with a new top coordinate x are add[x * x] gathered at the norms so far,
    one row per x, so the rows laid end to end follow the point indices."""
    tb = field.tables
    acc = tb.square_of.copy()
    for _ in range(n - 1):
        acc = np.take(tb.add[tb.square_of], acc, axis=1).ravel()
    return acc


def _code_of_norm(field: Field) -> np.ndarray:
    """code_of_norm[w]: the class code of a nonzero vector of norm w."""
    out = np.where(field.tables.is_square, np.uint8(2), np.uint8(3))
    out[0] = 1
    return out


@functools.lru_cache(maxsize=1)
def class_of_pair(field: Field, n: int) -> np.ndarray:
    """q^n x q^n uint8 array: entry (u, v) is the class code of x_u - x_v.
    Over MAX_BULK_ENTRIES entries it raises TooLargeError; lru_cache caches
    no raise, so the bound holds on every call.

    Coordinate by coordinate as in _norm_array: new top coordinates a of u
    and b of v add (a - b)^2 to the norm over the lower ones, at row
    a * q^j + u' and column b * q^j + v'.  The last addition gives codes.
    """
    tb = field.tables
    q = field.q
    total = q ** n
    if total * total > MAX_BULK_ENTRIES:
        raise TooLargeError(
            f"pairwise table with {total}^2 entries exceeds the bulk bound")
    square_diff = tb.square_of[tb.add[:, tb.neg]]  # square_diff[a, b] = (a - b)^2
    codes = _code_of_norm(field)[tb.add]           # codes[s, t]: code of norm s + t
    acc = np.zeros((1, 1), dtype=np.intp)
    for j in range(n):
        table = codes if j == n - 1 else tb.add
        size = q * acc.shape[0]
        acc = table[square_diff[:, None, :, None],
                    acc[None, :, None, :]].reshape(size, size)
    np.fill_diagonal(acc, 0)
    acc.setflags(write=False)
    return acc


def integral_matrix(field: Field, n: int) -> np.ndarray:
    """Boolean matrix of the integral-distance relation (diagonal True)."""
    return class_of_pair(field, n) <= 2


def zero_distance_matrix(field: Field, n: int) -> np.ndarray:
    """Boolean matrix of the distance-zero relation (diagonal True)."""
    return class_of_pair(field, n) <= 1


@functools.lru_cache(maxsize=1)
def class_of_point(field: Field, n: int) -> np.ndarray:
    """Class code of every point, indexed by canonical point index."""
    out = _code_of_norm(field)[_norm_array(field, n)]
    out[0] = 0
    out.setflags(write=False)
    return out
