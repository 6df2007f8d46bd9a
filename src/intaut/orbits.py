"""Orbit partitions under permutation generators, the orbit structure of the
scalar-orthogonal group, and orbital-graph connectivity."""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, TooLargeError
from .field import Field, rank_mod_p
from . import space, transform
from .space import SphereClass


@dataclass(frozen=True)
class OrbitDecomposition:
    """Disjoint orbits covering the index range, each sorted, ordered by
    least element."""

    orbits: tuple

    def sizes(self):
        return tuple(len(o) for o in self.orbits)

    def as_sets(self):
        return frozenset(frozenset(o) for o in self.orbits)

    @property
    def rank(self):
        return len(self.orbits)


def orbits_under(perms, size: int) -> OrbitDecomposition:
    """Orbit partition of range(size) under the group the perms generate.

    Every point carries a label, at first itself.  Each sweep lowers the
    label of every x to the least label of x and of g[x] over all
    generators g, by gathers over blocks of about space.BLOCK generator
    entries, then shortcuts every label to the label of its label, until a
    sweep changes nothing.  Then label[x] <= label[g[x]] for every g and x, so
    labels are constant along each cycle of each generator, hence on
    orbits, and an orbit's least point keeps its own label: no inverse is
    needed.  A label moves only from g[x] to x, so the ascending N-cycle
    x -> x + 1 takes N sweeps (about log N with inverses); random cycles
    and the library's stacks take fewer.  A row of the wrong length raises
    ValueError, a row that is not a permutation NotABijectionError.
    """
    gens = transform._permutation_rows(perms, size)
    rows = space.block_rows(size)
    label = np.arange(size)
    images = np.empty((min(rows, len(gens)), size), dtype=np.intp)
    while True:
        lowered = label.copy()
        for a in range(0, len(gens), rows):
            block = gens[a:a + rows]
            # indices are in range: mode="clip" skips take's bounds check
            np.take(lowered, block, out=images[:len(block)], mode="clip")
            np.minimum(lowered, images[:len(block)].min(axis=0), out=lowered)
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            break
        label = lowered
    return _grouped(label)


def _grouped(label: np.ndarray) -> OrbitDecomposition:
    """The indices grouped by equal label, each group sorted, the groups
    ordered by least element."""
    order = np.argsort(label, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), label.size]
    points = order.tolist()
    return OrbitDecomposition(tuple(sorted(tuple(points[a:b])
                                           for a, b in zip(cuts, cuts[1:]) if b > a)))


def classify_partition(field: Field, n: int) -> OrbitDecomposition:
    """Point indices grouped by norm class, empty classes omitted."""
    return _grouped(space.class_of_point(field, n))


def m_generators(field: Field, n: int) -> np.ndarray:
    """Permutations generating the scalar-orthogonal group {x -> a x M}.

    The orthogonal part is generated by the reflections tau_v over all
    anisotropic v (one representative per projective class); the scalar part
    by a single primitive scalar map.  Full matrix enumeration is avoided on
    purpose: it is infeasible already for moderate n even when q^n is small.

    When the q^n images of every generator would exceed
    space.MAX_BULK_ENTRIES it raises TooLargeError, on every call, counting
    the generators from the norm histogram, with no pass over the points;
    below that it returns the cached read-only (k, q^n) array `_m_images`.
    """
    total = space.num_points(field, n)
    anisotropic = total - space._norm_census(field, n)[0]
    count = anisotropic // (field.q - 1) + 1         # classes and the scalar
    if count * total > space.MAX_BULK_ENTRIES:
        raise TooLargeError(
            f"{count} generators on {total} points exceed the bulk bound")
    return _m_images(field, n)


@functools.lru_cache(maxsize=1)
def _m_images(field: Field, n: int) -> np.ndarray:
    """Read-only array of the m_generators images, the scalar map first.

    A class is represented by its least point, the multiple whose highest
    nonzero coordinate is 1 (a point's index is sum x_i q^i): the points of
    index in [q^j, 2 q^j), which come in index order.  All reflection
    matrices I - (2 / <v,v>) v v^T are formed at once and mapped in one batch.
    """
    q = field.q
    tb = field.tables
    norms = space._norm_array(field, n)
    reps = np.concatenate([np.arange(q ** j, 2 * q ** j) for j in range(n)])
    reps = reps[norms[reps] != 0]                    # the anisotropic classes
    v = space.point_matrix(field, n)[reps]
    coef = tb.mul(tb.mul(tb.add[1, 1], tb.inv[norms[reps]])[:, None], v)
    eye = np.eye(n, dtype=np.intp)
    reflections = tb.add[tb.neg[tb.mul(coef[:, :, None], v[:, None, :])], eye]
    scalar = eye * field.primitive_element()
    matrices = np.concatenate((scalar[None], reflections))
    images = transform.map_permutation_array(field, n, 1, 0, matrices, (0,) * n)
    images.setflags(write=False)
    return images


def semiaffine_generators(field: Field, n: int) -> np.ndarray:
    """m_generators, one Frobenius map when h > 1, and the translations by the
    basis vectors, which the scalars carry onto every translation, as one
    (k, q^n) array."""
    gens = [m_generators(field, n)]
    if field.h > 1:
        gens.append(transform.map_permutation_array(
            field, n, 1, 1, np.eye(n, dtype=np.intp)[None], (0,) * n))
    gens.append(transform._basis_translations(field, n)[::field.h])
    return np.concatenate(gens)


def m_orbits(field: Field, n: int) -> OrbitDecomposition:
    """Orbits of the scalar-orthogonal group on the point set."""
    return orbits_under(m_generators(field, n), space.num_points(field, n))


class OrbitalStatus(enum.Enum):
    CONNECTED = "connected"
    DISCONNECTED = "disconnected"
    DEGENERATE = "degenerate"      # empty step class


def orbital_connected(field: Field, n: int,
                      sphere_class: SphereClass) -> OrbitalStatus:
    """Connectivity of the graph with steps x -> x + y over y in the class.

    A finite Cayley graph is connected iff its steps generate the group, and
    in the elementary abelian p-group GF(p)^(n h) that is their GF(p)-span.
    The base-p digits of a point index are its n h coordinates over GF(p),
    so the graph is connected iff the digit matrix of the steps has rank n h
    over GF(p), which field.rank_mod_p finds by Gaussian elimination.  The
    step set is closed under negation (squaring kills the sign), which is
    verified rather than assumed.
    """
    if sphere_class is SphereClass.ORIGIN:
        raise ValueError("connectivity is defined for the nonzero classes only")
    code = list(SphereClass).index(sphere_class)
    steps = np.flatnonzero(space.class_of_point(field, n) == code)
    if not steps.size:
        return OrbitalStatus.DEGENERATE
    tb = field.tables
    pts = space.point_matrix(field, n)
    weights = field.q ** np.arange(n)
    negated = np.sort(tb.neg[pts[steps]] @ weights)
    if not np.array_equal(negated, steps):
        raise InternalInconsistencyError("step class is not symmetric")
    p, dim = field.p, n * field.h
    rank = rank_mod_p(steps[:, None] // p ** np.arange(dim), p)   # digits mod p
    return OrbitalStatus.CONNECTED if rank == dim else OrbitalStatus.DISCONNECTED
