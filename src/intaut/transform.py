"""Distance-compatible affine-semilinear maps and their point permutations.

A map is the tuple (scale, frob, matrix, shift) acting on row vectors as

    x  ->  scale * frobenius(x, frob) @ matrix + shift

with a nonzero scalar, a power of the coordinatewise p-th-power map, a
matrix satisfying M M^T = I, and a translation vector.  Permutations of the
point set are rows of image indices, and a set of them is one (k, q^n)
integer array, checked once by `_permutation_rows`.  A map's matrix is a
tuple of row tuples of element indices, and all arithmetic on it is gathers
over `Field.tables`.  Element lists of the family and orthogonal-matrix
enumeration are test oracles, kept out of the library.
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
    check_bijection(arr, arr.size)
    return tuple(arr.tolist())


def map_permutation_array(field, n, scale, frob, matrix, shift) -> np.ndarray:
    """Image index of every point under the given parameters, as vectorised
    gathers over the field tables (no bijectivity check).

    `matrix` is one n x n matrix, giving a length-q^n array, or a (k, n, n)
    stack of them sharing scale and frob, giving a (k, q^n) array.  `shift`
    is one length-n vector shared by every matrix, or a (k, n) stack, one
    per matrix.  Output coordinate j is sum_i frob(x_i) * (scale * M[i][j])
    + shift[j].  The point index is sum_i x_i q^i, so coordinate j over all
    points is an outer table-add over the grid: it starts from the q values
    of the x_{n-1} term plus shift[j], and each lower coordinate's q terms
    are added as a new least significant axis.  A map costs O(n q^n)
    gathers, not O(n^2 q^n).

    Scale, matrix and shift entries must lie in [0, q) and frob in [0, h),
    or ValueError is raised.
    """
    tb = field.tables
    q = field.q
    mats = np.asarray(matrix, dtype=np.intp)
    stack = mats.reshape(-1, n, n)
    shifts = np.asarray(shift, dtype=np.intp)
    if shifts.shape not in ((n,), (len(stack), n)):
        raise ValueError(f"shift has shape {shifts.shape}, expected ({n},) "
                         f"or ({len(stack)}, {n})")
    entries = np.concatenate((stack.ravel(), shifts.ravel(), [scale]))
    if entries.min() < 0 or entries.max() >= q:
        raise ValueError(f"scale, matrix and shift entries must lie in [0, {q})")
    if not 0 <= frob < field.h:
        raise ValueError(f"frob must lie in [0, {field.h})")
    shifts = np.broadcast_to(shifts, (len(stack), n))
    # terms[k, i, j, x] = frob(x) * (scale * M_k[i][j])
    terms = tb.mul(tb.frob[frob][:, None, None, None],
                   tb.mul(scale, stack)[None]).transpose(1, 2, 3, 0)
    out = np.zeros((stack.shape[0], q ** n), dtype=np.int32)
    for j in range(n - 1, -1, -1):
        acc = tb.add[terms[:, n - 1, j], shifts[:, j, None]]
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
    """Raise NotABijectionError unless perm is a permutation of range(size)."""
    if len(perm) != size:
        raise NotABijectionError(
            f"permutation has length {len(perm)}, expected {size}")
    _permutation_rows([perm], size)


def _permutation_rows(perms, num: int) -> np.ndarray:
    """perms as a (k, num) integer array whose rows are permutations of
    range(num); the library's one check that rows are permutations.  An
    empty 1-D input is zero rows.  A wrong shape raises ValueError, a row
    that is not a permutation NotABijectionError."""
    perms = np.asarray(perms)
    if not perms.size:              # [] and [()] read as float: no entry to check
        perms = perms.astype(np.intp).reshape(perms.shape if perms.ndim > 1 else (0, num))
    if perms.ndim != 2 or perms.shape[1] != num:
        raise ValueError(f"permutations must be rows of length {num}")
    if perms.dtype.kind not in "iu" or perms.size and (
            perms.min() < 0 or perms.max() >= num):
        raise NotABijectionError(
            f"permutation entries must be integers that lie in [0, {num})")
    hit = np.zeros(perms.shape, dtype=bool)
    np.put_along_axis(hit, perms, True, axis=1)
    if not hit.all():
        raise NotABijectionError(f"rows must be permutations of range({num})")
    return perms


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
    perms = _permutation_rows(perms, num)
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


def _basis_translations(field: Field, n: int) -> np.ndarray:
    """The (n h, q^n) images of the translations by e_i times the element of
    index p^j, a GF(p)-basis of GF(q)^n; together they generate every
    translation.  Each moves coordinate i alone, so its image index is the
    point index plus the change of that coordinate times q^i."""
    tb = field.tables
    coords = space.point_matrix(field, n).T[:, None, :]             # (n, 1, N)
    steps = field.p ** np.arange(field.h)
    moved = tb.add[coords, steps[None, :, None]] - coords            # (n, h, N)
    moved *= (field.q ** np.arange(n, dtype=np.int32))[:, None, None]
    moved += np.arange(field.q ** n, dtype=np.int32)
    return moved.reshape(n * field.h, -1)


def _semilinear_parts(field: Field, n: int, perms: np.ndarray):
    """Affine-semilinear decomposition of each row of a (k, q^n) array of
    point permutations.

    Returns the image of the origin as coordinates (the shift, (k, n)), the
    images of the basis vectors less the shift as the rows of B
    ((k, n, n)), and per row the least Frobenius exponent i for which the
    row is x -> frobenius(x, i) @ B + shift, or -1 if there is none.  B is
    the same for every exponent, since the p-th-power map fixes the basis
    vectors, so each exponent costs one map_permutation_array call over the
    rows not yet matched.  A point index is sum_i x_i q^i, so its digits
    are its coordinates.
    """
    tb = field.tables
    q = field.q
    digits = q ** np.arange(n)
    shift = perms[:, :1] // digits % q
    B = tb.add[perms[:, digits, None] // digits % q, tb.neg[shift][:, None, :]]
    frob = np.full(len(perms), -1)
    for i in range(field.h):
        rows = np.flatnonzero(frob < 0)
        if not rows.size:
            break
        images = map_permutation_array(field, n, 1, i, B[rows], shift[rows])
        frob[rows[(images == perms[rows]).all(axis=1)]] = i
    return shift, B, frob


def cayley_preserves(field: Field, n: int, perms, relation) -> bool:
    """Whether every permutation row preserves the q^n x q^n relation in
    both directions, checked through the translations.

    Step a runs batch_preserves on the n h basis translations
    (_basis_translations).  If they all preserve the relation, so does
    every translation, and R[u, v] = r[x_v - x_u] with r = R[0].  Step b
    decomposes every row g as x -> L(x) + g(0) with L additive
    (_semilinear_parts finds L as a Frobenius-semilinear map) and checks
    R[g(0), g(w)] == R[0, w] for every point w, which is r[L(w)] == r[w].
    Then R[g(u), g(v)] = r[L(v) - L(u)] = r[L(v - u)] = r[v - u] = R[u, v].
    One (k, N) gather replaces k N^2 pair checks.  The route is sound, not
    complete: a row that preserves a relation without translation symmetry,
    or that is not affine-semilinear, reads as not preserving it.  A
    relation that is not q^n x q^n or a row of the wrong length raises
    ValueError, a row that is not a permutation NotABijectionError.
    """
    num = space.num_points(field, n)
    relation = np.asarray(relation)
    if relation.shape != (num, num):
        raise ValueError(f"relation must be a {num} x {num} matrix")
    perms = _permutation_rows(perms, num)
    if not batch_preserves(_basis_translations(field, n), relation).all():
        return False
    frob = _semilinear_parts(field, n, perms)[2]
    return bool((frob >= 0).all()
                and (relation[perms[:, :1], perms] == relation[0]).all())


# ---------------------------------------------------------------------------
# recognition and the verification predicates
# ---------------------------------------------------------------------------

def recognize_semiaffine(field: Field, n: int, perm):
    """Decompose a point permutation into map parameters, or return None;
    recognize_semiaffine_batch on one row."""
    check_bijection(perm, space.num_points(field, n))
    return recognize_semiaffine_batch(field, n, np.asarray([perm]))[0]


def recognize_semiaffine_batch(field: Field, n: int, perms) -> list:
    """The map parameters of every row of a (k, q^n) array of point
    permutations, or None for a row that is no family map.

    The shift is the image of the origin.  The images of the basis vectors
    less the shift give a candidate matrix B, the same for every Frobenius
    exponent; if the row agrees with x -> frobenius(x, i) @ B + shift for
    some i (_semilinear_parts), then B B^T must be a scalar c times the
    identity and c must be a square a^2 with a the least such index,
    yielding matrix = B / a; a is less than -a, so the map comes out in
    normalize_map's form.  All of it is gathers over the field tables,
    over all rows at once.  A wrong shape raises ValueError, a row that is
    not a permutation NotABijectionError.
    """
    tb = field.tables
    perms = _permutation_rows(perms, space.num_points(field, n))
    shift, B, frob = _semilinear_parts(field, n, perms)
    terms = tb.mul(B[:, :, None, :], B[:, None, :, :])  # [r, i, j, k] = B[i][k] B[j][k]
    gram = functools.reduce(lambda acc, t: tb.add[acc, t], np.moveaxis(terms, 3, 0))
    c = gram[:, 0, 0]
    ok = ((frob >= 0) & (c != 0) & tb.is_square[c]
          & (gram == c[:, None, None] * np.eye(n, dtype=np.intp)).all(axis=(1, 2)))
    root = (tb.square_of == c[:, None]).argmax(axis=1)  # least root where c is a square
    matrix = tb.mul(tb.inv[root][:, None, None], B)
    return [SemiaffineMap(int(root[r]), int(frob[r]), _rows(matrix[r]),
                          tuple(shift[r].tolist()))
            if ok[r] else None for r in range(len(perms))]


def preserves_integral(field: Field, n: int, perm) -> bool:
    """Whether the integral-distance relation is preserved in both directions."""
    check_bijection(perm, space.num_points(field, n))
    return bool(batch_preserves(np.asarray([perm]), space.integral_matrix(field, n))[0])


def satisfies_zero_iff(field: Field, n: int, perm) -> bool:
    """Whether distance zero is preserved in both directions over all pairs."""
    check_bijection(perm, space.num_points(field, n))
    return bool(zero_iff_preserved(field, n, np.asarray([perm]))[0])


def zero_iff_preserved(field: Field, n: int, perms) -> np.ndarray:
    """satisfies_zero_iff for every row of a (k, q^n) permutation array,
    in one batch_preserves call."""
    return batch_preserves(perms, space.zero_distance_matrix(field, n))


def _cones(field: Field, n: int) -> np.ndarray:
    """int32 matrix whose row v is the cone of vertex v, the points
    at squared distance zero from it, as ascending point indices.

    Distance zero is invariant under translation, so every cone has as many
    points as the cone of the origin.  The rows are read off class_of_pair
    in blocks of about space.BLOCK pairs, so no N x N temporary is made.
    """
    codes = space.class_of_pair(field, n)
    num = codes.shape[0]
    size = int(np.count_nonzero(codes[0] <= 1))
    rows = space.block_rows(num)
    cones = np.empty((num, size), dtype=np.int32)
    for a in range(0, num, rows):
        zero = codes[a:a + rows] <= 1
        if (np.count_nonzero(zero, axis=1) != size).any():
            raise InternalInconsistencyError("cones of different sizes")
        cones[a:a + rows] = np.nonzero(zero)[1].reshape(-1, size)    # row-major
    return cones


def preserves_cones(field: Field, n: int, perm) -> bool:
    """Whether the image of every cone is the cone of the image vertex;
    cones_preserved on one row."""
    check_bijection(perm, space.num_points(field, n))
    return bool(cones_preserved(field, n, np.asarray([perm]))[0])


def cones_preserved(field: Field, n: int, perms) -> np.ndarray:
    """For every row of a (k, q^n) permutation array, whether the image of
    every cone is the cone of the image vertex.

    Logically equivalent to zero_iff_preserved, but checked as images of
    explicit cones rather than pair by pair, so the two routes can be
    checked against each other.  The cones are the sorted rows of `_cones`,
    so the image of the cone of v is the cone of perm[v] iff the images of
    row v, sorted, equal row perm[v].  The cones are taken in blocks of
    rows, each mapped by every permutation at once, of about space.BLOCK
    entries in all.  A wrong shape raises ValueError, a row that is not a
    permutation NotABijectionError.
    """
    cones = _cones(field, n)
    num, size = cones.shape
    perms = _permutation_rows(perms, num).astype(np.int32)
    ok = np.ones(len(perms), dtype=bool)
    rows = space.block_rows(size * len(perms))
    for a in range(0, num, rows):
        images = np.sort(perms[:, cones[a:a + rows]], axis=2)
        ok &= (images == cones[perms[:, a:a + rows]]).all(axis=(1, 2))
    return ok


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
