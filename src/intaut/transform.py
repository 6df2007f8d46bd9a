"""Distance-compatible affine-semilinear maps and their point permutations.

A map is the tuple (scale, frob, matrix, shift) acting on row vectors as

    x  ->  scale * frobenius(x, frob) @ matrix + shift

with a nonzero scalar, a power of the coordinatewise p-th-power map, a
matrix satisfying M M^T = I, and a translation vector.  Permutations of the
point set are stored as tuples of image indices, the common currency of all
group computations here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, NotABijectionError, TooLargeError
from .field import Field
from . import space

# ---------------------------------------------------------------------------
# matrices (tuples of row tuples of element indices)
# ---------------------------------------------------------------------------


def mat_identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(A) -> tuple:
    return tuple(zip(*A))


def mat_mul(field: Field, A, B) -> tuple:
    n, m = len(A), len(B[0])
    inner = len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = 0
            for k in range(inner):
                acc = field.add(acc, field.mul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_neg(field: Field, A) -> tuple:
    return tuple(tuple(field.neg(x) for x in row) for row in A)


def mat_scale(field: Field, c: int, A) -> tuple:
    return tuple(tuple(field.mul(c, x) for x in row) for row in A)


def row_times_matrix(field: Field, x, A) -> tuple:
    n = len(A[0])
    out = []
    for j in range(n):
        acc = 0
        for i, xi in enumerate(x):
            acc = field.add(acc, field.mul(xi, A[i][j]))
        out.append(acc)
    return tuple(out)


def is_orthogonal(field: Field, A) -> bool:
    """True iff A @ A^T is the identity."""
    n = len(A)
    for i in range(n):
        for j in range(i, n):
            acc = 0
            for k in range(n):
                acc = field.add(acc, field.mul(A[i][k], A[j][k]))
            if acc != (1 if i == j else 0):
                return False
    return True


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


def identity_map(field: Field, n: int) -> SemiaffineMap:
    return SemiaffineMap(1, 0, mat_identity(n), (0,) * n)


def normalize_map(field: Field, m: SemiaffineMap) -> SemiaffineMap:
    """Pick the representative of {(s, M), (-s, -M)} with the smaller scale index."""
    neg_scale = field.neg(m.scale)
    if neg_scale < m.scale:
        return SemiaffineMap(neg_scale, m.frob, mat_neg(field, m.matrix), m.shift)
    return m


def apply_map(field: Field, m: SemiaffineMap, x) -> tuple:
    if len(x) != len(m.shift):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(m.shift)}")
    y = tuple(field.frobenius(c, m.frob) for c in x)
    y = row_times_matrix(field, y, m.matrix)
    y = tuple(field.mul(m.scale, c) for c in y)
    return tuple(field.add(a, b) for a, b in zip(y, m.shift))


def to_permutation(field: Field, n: int, m: SemiaffineMap) -> tuple:
    """Point permutation induced by the map, images indexed canonically."""
    arr = map_permutation_array(field, n, m.scale, m.frob, m.matrix, m.shift)
    perm = tuple(arr.tolist())
    if len(set(perm)) != len(perm):
        raise NotABijectionError("map does not induce a bijection")
    return perm


def _encode_points(field: Field, coords: np.ndarray) -> np.ndarray:
    q = field.q
    n = coords.shape[1]
    acc = coords[:, n - 1].astype(np.int64)
    for j in range(n - 2, -1, -1):
        acc = acc * q + coords[:, j]
    return acc.astype(np.int32)


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


# ---------------------------------------------------------------------------
# orthogonal matrix enumeration
# ---------------------------------------------------------------------------

def unit_sphere(field: Field, n: int) -> list:
    """All vectors of squared norm one, in canonical index order."""
    return [p for p in space.enumerate_points(field, n)
            if space.norm(field, p) == 1]


def enumerate_orthogonal(field: Field, n: int, *,
                         limit: int = 500_000) -> list:
    """All n x n matrices with M M^T = I, by row-extension backtracking.

    Rows are drawn from the norm-one sphere in ascending point order, each
    new row orthogonal to all earlier ones, so the output is ordered
    lexicographically by the row index vectors.
    """
    candidates = unit_sphere(field, n)
    out = []

    def dot(u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = field.add(acc, field.mul(a, b))
        return acc

    def extend(rows):
        if len(rows) == n:
            out.append(tuple(rows))
            if len(out) > limit:
                raise TooLargeError(
                    f"orthogonal enumeration exceeded {limit} matrices")
            return
        for v in candidates:
            if all(dot(v, r) == 0 for r in rows):
                rows.append(v)
                extend(rows)
                rows.pop()

    extend([])
    return out


def orthogonal_bruteforce(field: Field, n: int, *,
                          limit: int = 20_000_000) -> list:
    """Independent oracle: scan all q^(n*n) matrices and keep M M^T = I."""
    q = field.q
    total = q ** (n * n)
    if total > limit:
        raise TooLargeError(f"{total} candidate matrices exceed the scan bound")
    rows_all = space.enumerate_points(field, n)
    out = []

    def extend(rows):
        if len(rows) == n:
            if is_orthogonal(field, rows):
                out.append(tuple(rows))
            return
        for v in rows_all:
            rows.append(v)
            extend(rows)
            rows.pop()

    extend([])
    return out


# ---------------------------------------------------------------------------
# the full permutation group of the map family
# ---------------------------------------------------------------------------

def linear_actions(field: Field, n: int) -> list:
    """Distinct point permutations of the shift-free maps, as numpy rows.

    Parameter tuples (scale, frob, matrix) are deduplicated by action; the
    expected collision is exactly (s, M) with (-s, -M).
    """
    orth = enumerate_orthogonal(field, n)
    zero = (0,) * n
    seen = {}
    for i in range(field.h):
        for a in range(1, field.q):
            for A in orth:
                arr = map_permutation_array(field, n, a, i, A, zero)
                seen.setdefault(arr.tobytes(), arr)
    return list(seen.values())


def translation_array(field: Field, n: int) -> np.ndarray:
    """Row b = permutation induced by the translation x -> x + point(b)."""
    total = space.num_points(field, n)
    add = field.tables.add
    pts = space.point_matrix(field, n)
    cols = []
    for j in range(n):
        col = pts[:, j]
        cols.append(add[col[None, :], col[:, None]])  # [b, k]
    stacked = np.stack(cols, axis=2).reshape(total * total, n)
    return _encode_points(field, stacked).reshape(total, total)


def semiaffine_group(field: Field, n: int, *,
                     max_elements: int = 200_000) -> list:
    """Every point permutation induced by the map family, deduplicated by
    action and sorted lexicographically."""
    total = space.num_points(field, n)
    linear = linear_actions(field, n)
    if len(linear) * total > max_elements:
        raise TooLargeError(
            f"map family has {len(linear) * total} elements, over the bound "
            f"{max_elements}")
    trans = translation_array(field, n)
    blocks = [trans[:, l] for l in linear]     # rows: shift after linear part
    all_perms = np.concatenate(blocks, axis=0)
    uniq = np.unique(all_perms, axis=0)
    if uniq.shape[0] != len(linear) * total:
        # distinct linear actions stay distinct after composing with every
        # translation; a collision here means the dedup above was wrong
        raise InternalInconsistencyError(
            "unexpected action collision in group assembly")
    return [tuple(row) for row in uniq.tolist()]


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

def identity_perm(size: int) -> tuple:
    return tuple(range(size))


def compose_perms(f, g) -> tuple:
    """f after g: result[k] = f[g[k]]."""
    return tuple(f[x] for x in g)


def invert_perm(p) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def check_bijection(perm, size: int):
    if len(perm) != size:
        raise NotABijectionError(
            f"permutation has length {len(perm)}, expected {size}")
    if len(set(perm)) != size or min(perm) < 0 or max(perm) >= size:
        raise NotABijectionError("image list is not a bijection on the index range")


def batch_preserves(perms: np.ndarray, relation: np.ndarray) -> np.ndarray:
    """For each permutation row p, whether relation[p[u], p[v]] == relation[u, v]
    for all pairs; vectorised over blocks of rows whose mapped relations
    take about 2^24 entries together."""
    m = perms.shape[0]
    rows = max(1, 2 ** 24 // relation.size)
    out = np.empty(m, dtype=bool)
    for start in range(0, m, rows):
        block = perms[start:start + rows]
        mapped = relation[block[:, :, None], block[:, None, :]]
        out[start:start + rows] = (mapped == relation[None, :, :]).all(axis=(1, 2))
    return out


# ---------------------------------------------------------------------------
# recognition and the verification predicates
# ---------------------------------------------------------------------------

def recognize_semiaffine(field: Field, n: int, perm):
    """Decompose a point permutation into map parameters, or return None.

    The shift is the image of the origin.  After removing it, the images of
    the basis vectors give a candidate matrix B for each Frobenius exponent
    (basis vectors are fixed by the p-th-power map); if the whole permutation
    agrees with x -> frobenius(x) @ B, then B B^T must be a scalar c times
    the identity and c must be a square a^2, yielding matrix = B / a.
    """
    check_bijection(perm, space.num_points(field, n))
    q = field.q
    shift = space.point_of_index(field, n, perm[0])
    neg_shift = tuple(field.neg(c) for c in shift)

    # centered[k] = index of (image of point k) - shift
    trans = map_permutation_array(field, n, 1, 0, mat_identity(n), neg_shift)
    centered = [int(trans[v]) for v in perm]

    B = tuple(space.point_of_index(field, n, centered[q ** j])
              for j in range(n))
    for i in range(field.h):
        candidate = map_permutation_array(field, n, 1, i, B, (0,) * n)
        if centered != candidate.tolist():
            continue
        prod = mat_mul(field, B, mat_transpose(B))
        c = prod[0][0]
        if c == 0 or any(prod[i0][j0] != (c if i0 == j0 else 0)
                         for i0 in range(n) for j0 in range(n)):
            continue
        root = next((a for a in range(1, q) if field.mul(a, a) == c), None)
        if root is None:
            continue
        inv_root = field.inv(root)
        A = mat_scale(field, inv_root, B)
        return normalize_map(field, SemiaffineMap(root, i, A, shift))
    return None


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
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens.extend(line.split())
    try:
        perm = tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise ValueError(f"malformed permutation file {path}: {exc}") from None
    size = expected_size if expected_size is not None else len(perm)
    check_bijection(perm, size)
    return perm
