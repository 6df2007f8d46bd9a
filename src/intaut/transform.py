"""Distance-compatible affine-semilinear maps and their point permutations.

A map is the tuple (scale, frob, matrix, shift) acting on row vectors as

    x  ->  scale * frobenius(x, frob) @ matrix + shift

with a nonzero scalar, a power of the coordinatewise p-th-power map, a
matrix satisfying M M^T = I, and a translation vector.  Permutations of the
point set are stored as tuples of image indices, the common currency of all
group computations here.  A map's matrix is a tuple of row tuples of element
indices, and all arithmetic on it is gathers over `Field.tables`.  Element
lists of the family and orthogonal-matrix enumeration are test oracles, kept
out of the library.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, NotABijectionError
from .field import Field
from . import space

# ---------------------------------------------------------------------------
# the map family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiaffineMap:
    """Parameters of one distance-compatible map.

    scale: nonzero element index; frob: exponent of the p-th-power map in
    [0, h); matrix: n x n with M M^T = I; shift: translation point.
    """

    scale: int
    frob: int
    matrix: tuple
    shift: tuple


def normalize_map(field: Field, m: SemiaffineMap) -> SemiaffineMap:
    """Pick the representative of {(s, M), (-s, -M)} with the smaller scale index."""
    neg_scale = field.neg(m.scale)
    if neg_scale >= m.scale:
        return m
    matrix = np.asarray(m.matrix)
    if matrix.min() < 0 or matrix.max() >= field.q:
        raise ValueError(f"matrix entries must lie in [0, {field.q})")
    return SemiaffineMap(neg_scale, m.frob, _rows(field.tables.neg[matrix]), m.shift)


def _rows(matrix: np.ndarray) -> tuple:
    """A 2-d array as a tuple of row tuples of Python ints."""
    return tuple(map(tuple, matrix.tolist()))


def to_permutation(field: Field, n: int, m: SemiaffineMap) -> tuple:
    """Point permutation induced by the map, images indexed canonically."""
    arr = map_permutation_array(field, n, m.scale, m.frob, m.matrix, m.shift)
    perm = tuple(arr.tolist())
    if len(set(perm)) != len(perm):
        raise NotABijectionError("map does not induce a bijection")
    return perm


def map_permutation_array(field, n, scale, frob, matrix, shift) -> np.ndarray:
    """Image index of every point under the given parameters, as vectorised
    gathers over the field tables (no bijectivity check).

    `matrix` is one n x n matrix, giving a length-q^n array, or a (k, n, n)
    stack of them sharing scale, frob and shift, giving a (k, q^n) array.
    Output coordinate j is sum_i frob(x_i) * (scale * M[i][j]) + shift[j].
    The point index is sum_i x_i q^i, so coordinate j over all points is an
    outer table-add over the grid: it starts from the q values of the x_{n-1}
    term plus shift[j], and each lower coordinate's q terms are added as a
    new least significant axis.  A map costs O(n q^n) gathers, not
    O(n^2 q^n).

    Scale, matrix and shift entries must lie in [0, q) and frob in [0, h),
    or ValueError is raised.
    """
    tb = field.tables
    q = field.q
    mats = np.asarray(matrix, dtype=np.intp)
    stack = mats.reshape(-1, n, n)
    if len(shift) != n:
        raise ValueError(f"shift has {len(shift)} entries, expected {n}")
    entries = np.concatenate((stack.ravel(), np.asarray(shift, dtype=np.intp), [scale]))
    if entries.min() < 0 or entries.max() >= q:
        raise ValueError(f"scale, matrix and shift entries must lie in [0, {q})")
    if not 0 <= frob < field.h:
        raise ValueError(f"frob must lie in [0, {field.h})")
    # terms[k, i, j, x] = frob(x) * (scale * M_k[i][j])
    terms = tb.mul[tb.frob[frob][:, None, None, None],
                   tb.mul[scale, stack][None]].transpose(1, 2, 3, 0)
    out = np.zeros((stack.shape[0], q ** n), dtype=np.int32)
    for j in range(n - 1, -1, -1):
        acc = tb.add[terms[:, n - 1, j], shift[j]]
        for i in range(n - 2, -1, -1):
            acc = tb.add[acc[:, :, None], terms[:, i, j, None, :]].reshape(len(acc), -1)
        out *= q
        out += acc
    return out if mats.ndim == 3 else out[0]


def semiaffine_order(field: Field, n: int) -> int:
    """Order of the map family's group, q^n * h * (q - 1) * |O(n, q)| / 2; by
    Witt's theorem |O(n, q)| is the product over k <= n of the norm-one vector
    counts 2 * square(k) / (q - 1)."""
    orth = 1
    for k in range(1, n + 1):
        orth *= 2 * space.sphere_counts_formula(field, k).square // (field.q - 1)
    return field.q ** n * field.h * (field.q - 1) * orth // 2


# ---------------------------------------------------------------------------
# permutation utilities
# ---------------------------------------------------------------------------

def check_bijection(perm, size: int):
    if len(perm) != size:
        raise NotABijectionError(
            f"permutation has length {len(perm)}, expected {size}")
    if len(set(perm)) != size or min(perm) < 0 or max(perm) >= size:
        raise NotABijectionError("image list is not a bijection on the index range")


def batch_preserves(perms: np.ndarray, relation: np.ndarray) -> np.ndarray:
    """For each permutation row p, whether relation[p[u], p[v]] == relation[u, v]
    for all pairs.

    With q the inverse of p, R[p][:, p] == R holds iff R[p] == (R^T[q])^T,
    so each row costs two row gathers and one transposed compare, into N x N
    buffers allocated once per call; no column gather.  Any square relation
    is accepted, symmetric or not.  A non-square relation or a row of the
    wrong length raises ValueError, a row that is not a permutation of
    range(N) NotABijectionError.
    """
    relation = np.ascontiguousarray(relation)
    if relation.ndim != 2 or relation.shape[0] != relation.shape[1]:
        raise ValueError("relation must be a square matrix")
    num = relation.shape[0]
    perms = np.asarray(perms)
    if perms.ndim != 2 or perms.shape[1] != num:
        raise ValueError(f"permutations must be rows of length {num}")
    if perms.dtype.kind not in "iu" or perms.size and (
            perms.min() < 0 or perms.max() >= num):
        raise NotABijectionError(f"permutation entries must be integers in [0, {num})")
    hit = np.zeros(perms.shape, dtype=bool)
    np.put_along_axis(hit, perms, True, axis=1)
    if not hit.all():
        raise NotABijectionError("image list is not a bijection on the index range")
    transposed = np.ascontiguousarray(relation.T)
    mapped = np.empty_like(relation)
    back = np.empty_like(relation)
    same = np.empty(relation.shape, dtype=bool)
    inverse = np.empty(num, dtype=np.intp)
    ids = np.arange(num)
    out = np.empty(perms.shape[0], dtype=bool)
    for k, perm in enumerate(perms):
        inverse[perm] = ids
        # indices are in range: mode="clip" skips take's buffered bounds check
        np.take(relation, perm, axis=0, out=mapped, mode="clip")
        np.take(transposed, inverse, axis=0, out=back, mode="clip")
        np.equal(mapped, back.T, out=same)
        out[k] = same.all()
    return out


# ---------------------------------------------------------------------------
# recognition and the verification predicates
# ---------------------------------------------------------------------------

def recognize_semiaffine(field: Field, n: int, perm):
    """Decompose a point permutation into map parameters, or return None.

    The shift is the image of the origin.  After removing it, the images of
    the basis vectors give a candidate matrix B, the same for every
    Frobenius exponent (basis vectors are fixed by the p-th-power map); if
    the whole permutation agrees with x -> frobenius(x, i) @ B for some i,
    then B B^T must be a scalar c times the identity and c must be a square
    a^2, yielding matrix = B / a.  All of it is gathers over the field
    tables: a point index is sum_i x_i q^i, so its digits are coordinates.
    """
    check_bijection(perm, space.num_points(field, n))
    tb = field.tables
    q = field.q
    digits = q ** np.arange(n)
    perm = np.asarray(perm)
    shift = perm[0] // digits % q
    # centered[k] = index of (image of point k) - shift
    centered = map_permutation_array(field, n, 1, 0, np.eye(n, dtype=np.intp),
                                     tb.neg[shift])[perm]
    B = centered[digits, None] // digits % q         # row j: image of basis j
    # one exponent at most matches: B is invertible when the map is a bijection
    frob = next((i for i in range(field.h) if np.array_equal(
        map_permutation_array(field, n, 1, i, B, (0,) * n), centered)), None)
    if frob is None:
        return None
    terms = tb.mul[B[:, None, :], B[None, :, :]]     # [i, j, k] = B[i][k] B[j][k]
    gram = functools.reduce(lambda acc, t: tb.add[acc, t], np.moveaxis(terms, 2, 0))
    c = gram[0, 0]
    roots = np.flatnonzero(tb.square_of == c)
    if c == 0 or not roots.size or not np.array_equal(gram, c * np.eye(n, dtype=int)):
        return None
    root = int(roots[0])
    return normalize_map(field, SemiaffineMap(
        root, frob, _rows(tb.mul[tb.inv[root], B]), tuple(shift.tolist())))


def _preserves(relation, field: Field, n: int, perm) -> bool:
    """Whether perm preserves relation(field, n) in both directions."""
    check_bijection(perm, space.num_points(field, n))
    rel = relation(field, n)
    return bool(batch_preserves(np.asarray([perm]), rel)[0])


def preserves_integral(field: Field, n: int, perm) -> bool:
    """Whether the integral-distance relation is preserved in both directions."""
    return _preserves(space.integral_matrix, field, n, perm)


def satisfies_zero_iff(field: Field, n: int, perm) -> bool:
    """Whether distance zero is preserved in both directions over all pairs."""
    return _preserves(space.zero_distance_matrix, field, n, perm)


@functools.lru_cache(maxsize=space.CACHE_SIZE)
def _cones(field: Field, n: int) -> np.ndarray:
    """Read-only matrix whose row v is the cone of vertex v, the points at
    squared distance zero from it, as ascending point indices.

    Distance zero is invariant under translation, so every cone has as many
    points as the cone of the origin.
    """
    zero = space.zero_distance_matrix(field, n)
    sizes = zero.sum(axis=1)
    if (sizes != sizes[0]).any():
        raise InternalInconsistencyError("cones of different sizes")
    cones = np.nonzero(zero)[1].reshape(zero.shape[0], -1)    # row-major
    cones.setflags(write=False)
    return cones


def preserves_cones(field: Field, n: int, perm) -> bool:
    """Whether the image of every cone is the cone of the image vertex.

    Logically equivalent to satisfies_zero_iff, but checked as images of
    explicit cones rather than pair by pair, so the two routes can be
    checked against each other.  The cones are the sorted rows of `_cones`,
    so the image of the cone of v is the cone of perm[v] iff the images of
    row v, sorted, equal row perm[v].
    """
    check_bijection(perm, space.num_points(field, n))
    cones = _cones(field, n)
    perm = np.asarray(perm)
    return bool(np.array_equal(np.sort(perm[cones], axis=1), cones[perm]))


# ---------------------------------------------------------------------------
# permutation file format: one line of space-separated images; '#' comments
# ---------------------------------------------------------------------------

def write_permutation_file(path, perm):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(str(v) for v in perm))
        fh.write("\n")


def read_permutation_file(path, expected_size=None) -> tuple:
    """The images in a permutation file; each must be a run of ASCII digits.

    Tokens are separated by ASCII whitespace (space, \\t, \\n, \\r, \\v, \\f)
    only, so a non-ASCII space stays inside its token and makes it
    malformed."""
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            fields = line.encode("utf-8").split()    # at ASCII whitespace only
            if not fields or fields[0].startswith(b"#"):
                continue
            tokens.extend(field.decode("utf-8") for field in fields)
    for t in tokens:
        if not (t.isascii() and t.isdigit()):
            raise ValueError(f"malformed permutation file {path}: "
                             f"{t!r} is not a run of ASCII digits")
    perm = tuple(map(int, tokens))
    size = expected_size if expected_size is not None else len(perm)
    check_bijection(perm, size)
    return perm
