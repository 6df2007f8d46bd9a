"""Element lists and brute-force scans that the library checks itself against.

Production works on generators and on gathers over `Field.tables`; the
helpers here take the direct routes it does not: field arithmetic and
field tables by polynomial arithmetic, norms summed over the point matrix
and the sphere classes counted from them point by point,
maps applied point by point with scalar field arithmetic, every orthogonal
matrix (by row backtracking and by a full scan), every element of the map
family, and the explicit group closure with its point-stabilizer orbits.
They run only on small instances, and import nothing but numpy and intaut,
so every test module (and conftest) can import them.
"""

import itertools

import numpy as np

from intaut import InternalInconsistencyError, TooLargeError, space, transform
from intaut.field import FieldTables
from intaut.orbits import OrbitDecomposition, orbits_under


class NotAGroupError(ValueError):
    """A permutation list fails the requested closure verification."""


# -- field arithmetic, field tables and norms by the direct routes ---------------

def add_slow(field, a, b):
    """a + b, digit by digit in base p."""
    field._check(a, b)
    p = field.p
    out, mult = 0, 1
    for _ in range(field.h):
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def _remainder(f, g, p):
    """f modulo the monic g over GF(p); coefficient lists, constant term first."""
    f = [c % p for c in f]
    d = len(g) - 1
    while len(f) > d:
        c = f.pop()                                  # x^len(f) = x^(len(f)-d) x^d
        for i, gi in enumerate(g[:d]):
            f[len(f) - d + i] = (f[len(f) - d + i] - c * gi) % p
    return f


def mul_slow(field, a, b):
    """a * b, as the product of polynomials over GF(p) reduced by the modulus."""
    field._check(a, b)
    p, h = field.p, field.h
    product = [0] * (2 * h - 1)
    for i, j in itertools.product(range(h), repeat=2):
        product[i + j] += (a // p ** i % p) * (b // p ** j % p)
    out = 0
    for c in reversed(_remainder(product, field.modulus, p)):
        out = out * p + c
    return out


def is_irreducible_oracle(coeffs, p) -> bool:
    """A monic polynomial of degree h >= 1 over GF(p) is irreducible iff
    every monic polynomial of degree 1 .. h // 2 leaves a nonzero remainder."""
    h = len(coeffs) - 1
    return all(any(_remainder(coeffs, tail + (1,), p))
               for d in range(1, h // 2 + 1)
               for tail in itertools.product(range(p), repeat=d))


def pow_slow(field, a, e):
    """a^e by square and multiply over the polynomial product alone."""
    result, base = 1, a
    while e:
        if e & 1:
            result = mul_slow(field, result, base)
        base = mul_slow(field, base, base)
        e >>= 1
    return result


def primitive_element_oracle(field) -> int:
    """Least element of multiplicative order q - 1, each candidate's order
    counted by repeated polynomial multiplication."""
    for g in range(2, field.q):
        x, order = g, 1
        while x != 1:
            x = mul_slow(field, x, g)
            order += 1
        if order == field.q - 1:
            return g
    raise InternalInconsistencyError("multiplicative group has no generator")


def field_tables_oracle(field) -> FieldTables:
    """The arithmetic tables built directly: add digit-wise in base p, neg
    from the zero in each row of add, the rest from the powers of the least
    primitive element, multiplied out by polynomial arithmetic."""
    q, p = field.q, field.p
    index = np.arange(q, dtype=np.int32)
    add = np.zeros((q, q), dtype=np.int16)
    for k in range(field.h):
        d = index // p ** k % p
        add += (d[:, None] + d[None, :]) % p * p ** k
    neg = add.argmin(axis=1).astype(np.int32)      # the zero in each row

    order = q - 1
    g = primitive_element_oracle(field)
    powers = [1]
    for _ in range(order - 1):
        powers.append(mul_slow(field, powers[-1], g))
    power = np.array(powers, dtype=np.int32)         # power[e] = g^e
    log = np.zeros(q, dtype=np.int64)                # log[0] = 0: see below
    log[power] = np.arange(order)
    inv = power[-log % order]
    frob = np.stack([power[log * p ** i % order] for i in range(field.h)])
    square_of = power[2 * log % order]
    inv[0] = frob[:, 0] = square_of[0] = 0
    is_square = log % 2 == 0                         # zero included, by log[0]
    for arr in (add, neg, inv, is_square, frob, square_of, power, log):
        arr.setflags(write=False)
    return FieldTables(add, neg, inv, is_square, frob, square_of, power, log)


def mul_table_oracle(tables) -> np.ndarray:
    """The read-only q x q product table of field_tables_oracle's tables:
    mul[a, b] = g^(log a + log b), zero in row and column 0."""
    e = tables.log.astype(np.int32)
    mul = tables.power[(e[:, None] + e[None, :]) % len(tables.power)]
    mul[0, :] = mul[:, 0] = 0
    mul.setflags(write=False)
    return mul


def norm_array_oracle(field, n: int) -> np.ndarray:
    """Norm of every point, summed over the columns of the point matrix."""
    tb = field.tables
    pts = space.point_matrix(field, n)
    acc = tb.square_of[pts[:, 0]]
    for j in range(1, n):
        acc = tb.add[acc, tb.square_of[pts[:, j]]]
    return acc


def sphere_counts_oracle(field, n: int) -> space.SphereCounts:
    """Class sizes by classifying the norm of every point, one by one."""
    norms = norm_array_oracle(field, n)
    zero_norms = int(np.count_nonzero(norms == 0))
    squares = int(np.count_nonzero(field.tables.is_square[norms]))
    return space.SphereCounts(isotropic=zero_norms - 1,  # origin excluded
                              square=squares - zero_norms,
                              nonsquare=field.q ** n - squares,
                              eps=0 if field.q % 4 == 1 else 1)


# -- small matrices as tuples of row tuples of element indices -------------------

def mat_identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def row_times_matrix(field, x, A) -> tuple:
    n = len(A[0])
    out = []
    for j in range(n):
        acc = 0
        for i, xi in enumerate(x):
            acc = field.add(acc, field.mul(xi, A[i][j]))
        out.append(acc)
    return tuple(out)


def is_orthogonal(field, A) -> bool:
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


def apply_map(field, m, x) -> tuple:
    """Image of point x under the SemiaffineMap m, with scalar arithmetic."""
    if len(x) != len(m.shift):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(m.shift)}")
    y = tuple(field.frobenius(c, m.frob) for c in x)
    y = row_times_matrix(field, y, m.matrix)
    y = tuple(field.mul(m.scale, c) for c in y)
    return tuple(field.add(a, b) for a, b in zip(y, m.shift))


def encode_points(field, coords: np.ndarray) -> np.ndarray:
    """Canonical index of every coordinate row, as int32."""
    q = field.q
    n = coords.shape[1]
    acc = coords[:, n - 1].astype(np.int64)
    for j in range(n - 2, -1, -1):
        acc = acc * q + coords[:, j]
    return acc.astype(np.int32)


# -- orthogonal matrix enumeration -------------------------------------------------

def unit_sphere(field, n: int) -> list:
    """All vectors of squared norm one, in canonical index order."""
    return [p for p in space.enumerate_points(field, n)
            if space.norm(field, p) == 1]


def enumerate_orthogonal(field, n: int, *, limit: int = 500_000) -> list:
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


def orthogonal_bruteforce(field, n: int, *, limit: int = 20_000_000) -> list:
    """Scan all q^(n*n) matrices and keep M M^T = I."""
    total = field.q ** (n * n)
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


# -- every element of the map family -------------------------------------------------

def linear_actions(field, n: int) -> list:
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
                arr = transform.map_permutation_array(field, n, a, i, A, zero)
                seen.setdefault(arr.tobytes(), arr)
    return list(seen.values())


def translation_array(field, n: int) -> np.ndarray:
    """Row b = permutation induced by the translation x -> x + point(b)."""
    total = space.num_points(field, n)
    add = field.tables.add
    pts = space.point_matrix(field, n)
    cols = []
    for j in range(n):
        col = pts[:, j]
        cols.append(add[col[None, :], col[:, None]])  # [b, k]
    stacked = np.stack(cols, axis=2).reshape(total * total, n)
    return encode_points(field, stacked).reshape(total, total)


def semiaffine_group(field, n: int, *, max_elements: int = 200_000) -> list:
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


def preserves_oracle(perm, relation) -> bool:
    """transform.batch_preserves for one row, by its definition: one 2-d
    gather, relation[p[u], p[v]] == relation[u, v] for all pairs."""
    p = np.asarray(perm)
    return bool((relation[p[:, None], p[None, :]] == relation).all())


# -- explicit group elements ----------------------------------------------------------

def stabilizer_orbits(group, fixed_index: int, *,
                      verify_closure: bool = False) -> OrbitDecomposition:
    """Orbits of the subgroup of `group` fixing fixed_index.

    `group` must be an explicit list (or array of rows) of permutations
    closed under composition; with verify_closure the closure is checked and
    a violation raises NotAGroupError.
    """
    if len(group) == 0:
        raise ValueError("group must be a nonempty permutation list")
    size = len(group[0])
    if not 0 <= fixed_index < size:
        raise ValueError(f"fixed index {fixed_index} out of range")
    if verify_closure:
        members = {tuple(int(x) for x in g) for g in group}
        if tuple(range(size)) not in members:
            raise NotAGroupError("group does not contain the identity")
        for f in members:
            if tuple(np.argsort(f).tolist()) not in members:
                raise NotAGroupError("group is not closed under inversion")
            for g in members:
                if tuple(f[x] for x in g) not in members:
                    raise NotAGroupError("group is not closed under composition")
    stab = [g for g in group if g[fixed_index] == fixed_index]
    return orbits_under(stab, size)


def close_group_array(generators, size: int, *,
                      limit: int = 2_000_000) -> np.ndarray:
    """Explicit elements of the generated group, one permutation per row.

    Breadth-first closure under right multiplication with vectorised
    composition; in a finite group positive words in the generators reach
    every element, so no inverses are needed.
    """
    for g in generators:
        transform.check_bijection(tuple(g), size)
    gens = [np.asarray(g, dtype=np.int32) for g in generators]
    identity = np.arange(size, dtype=np.int32)
    seen = {identity.tobytes()}
    elements = [identity]
    frontier = np.stack([identity])
    while frontier.shape[0] and gens:
        new_rows = []
        for g in gens:
            composed = frontier[:, g]      # rows f -> f o g
            for row in composed:
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    new_rows.append(row)
        if len(seen) > limit:
            raise TooLargeError(f"group closure exceeded {limit} elements")
        if not new_rows:
            break
        frontier = np.stack(new_rows)
        elements.extend(new_rows)
    return np.stack(elements)


def close_permutation_group(generators, size: int, *,
                            limit: int = 2_000_000) -> list:
    """Element list of the generated group, sorted lexicographically."""
    arr = close_group_array(generators, size, limit=limit)
    out = [tuple(row.tolist()) for row in arr]
    out.sort()
    return out
