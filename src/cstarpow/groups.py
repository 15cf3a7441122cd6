"""Finite groups, symmetric group combinatorics, and unitary representations.

Group elements are integer indices into an explicit multiplication table, so
groups given by tables (e.g. cyclic groups) are handled uniformly with the
symmetric groups.  Symmetric group elements keep their permutation semantics
through the ``perms`` attribute: ``perms[g]`` is a tuple ``p`` with ``p[i]``
the image of point ``i``, and the product is composition, ``(pq)(i) =
p(q(i))``.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np

from .algebra import MAX_DENSE_ENTRIES, radix_digits, radix_pack
from .errors import BudgetError, VerificationError
from .linalg import DEFAULT_TOL, Draws, op_norm

MAX_SYMMETRIC_N = 7

# Largest dimension at which a permutation representation builds its dense
# matrices.
_MAX_PERMUTATION_REP_DIM = 5000


class FiniteGroup:
    """A finite group as an explicit multiplication table on 0..order-1."""

    def __init__(self, mult, perms=None, check: bool = True):
        mult = np.asarray(mult, dtype=np.int64)
        if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
            raise ValueError("multiplication table must be square")
        self.order = int(mult.shape[0])
        self.mult = mult
        self.perms = tuple(tuple(p) for p in perms) if perms is not None else None
        ident = [g for g in range(self.order)
                 if np.array_equal(mult[g], np.arange(self.order))]
        if len(ident) != 1:
            raise ValueError("table has no unique identity element")
        self.identity = ident[0]
        inv = np.full(self.order, -1, dtype=np.int64)
        for g in range(self.order):
            hits = np.nonzero(mult[g] == self.identity)[0]
            if hits.size != 1:
                raise ValueError(f"element {g} has no unique inverse")
            inv[g] = hits[0]
        self.inv = inv
        if check:
            ok = np.array_equal(mult[:, self.identity], np.arange(self.order))
            ok = ok and all(mult[inv[g], g] == self.identity
                            for g in range(self.order))
            if not ok:
                raise ValueError("identity/inverse laws fail")

    def multiply(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> FiniteGroup:
    """The symmetric group on n points, elements in lexicographic order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_SYMMETRIC_N:
        raise BudgetError(f"the table of S_{n} has ({n}!)^2 entries; the "
                          f"largest built is S_{MAX_SYMMETRIC_N}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    order = perms.shape[0]
    place = radix_pack(np.eye(n, dtype=np.int64), (n,) * n)
    keys = perms @ place  # ascending, since perms are in lex order
    mult = np.empty((order, order), dtype=np.int64)
    for a in range(order):
        comp = perms[a][perms]  # comp[b, i] = pa[pb[i]]
        mult[a] = np.searchsorted(keys, comp @ place)
    return FiniteGroup(mult, perms=perms, check=False)


def cyclic_group(n: int) -> FiniteGroup:
    mult = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(mult)


def group_from_json(obj) -> FiniteGroup:
    """Build a group from {"symmetric": n} or {"table": [[...]], "inv": [...]}.

    An explicit inverse list, when given, is validated against the table.
    """
    if not isinstance(obj, dict):
        raise ValueError("group description must be an object")
    if "symmetric" in obj:
        if type(obj["symmetric"]) is not int:
            raise ValueError('"symmetric" must be an integer')
        return symmetric_group(obj["symmetric"])
    if "table" in obj:
        try:  # null, non-numeric or out-of-range entries
            table = np.asarray(obj["table"], dtype=np.int64)
            inv = np.asarray(obj.get("inv", []), dtype=np.int64)
        except (TypeError, OverflowError) as exc:
            raise ValueError("group table and inverse list must hold "
                             "integers") from exc
        group = FiniteGroup(table)
        if "inv" in obj and not np.array_equal(inv, group.inv):
            raise ValueError("inverse list does not match the table")
        return group
    raise ValueError('group description needs "symmetric" or "table"')


class Subgroup:
    """A subgroup of an ambient group, with left coset bookkeeping.

    ``elements`` are ambient indices in increasing order, and ``local[g]`` is
    the local index of ambient element g (-1 off the subgroup); ``group`` is
    the intrinsic multiplication table on local indices; ``coset_reps`` are
    the smallest ambient index in each left coset (for symmetric groups this
    is the lexicographically minimal permutation), and ``coset_of[g]`` is
    the coset of g.
    """

    def __init__(self, ambient: FiniteGroup, elements):
        elements = tuple(sorted(set(int(e) for e in elements)))
        if ambient.identity not in elements:
            raise ValueError("subgroup must contain the identity")
        e = np.array(elements, dtype=np.int64)
        self.local = np.full(ambient.order, -1, dtype=np.int64)
        self.local[e] = np.arange(len(elements))
        # local is -1 exactly where an inverse or a product leaves the subset
        if np.any(self.local[ambient.inv[e]] < 0):
            raise ValueError("subset not closed under inverses")
        table = self.local[ambient.mult[np.ix_(e, e)]]
        if np.any(table < 0):
            raise ValueError("subset not closed under multiplication")
        self.ambient = ambient
        self.elements = elements
        perms = None
        if ambient.perms is not None:
            perms = [ambient.perms[a] for a in elements]
        self.group = FiniteGroup(table, perms=perms, check=False)
        # the least element of the coset g H represents it
        reps, self.coset_of = np.unique(
            ambient.mult[:, elements].min(axis=1), return_inverse=True)
        self.coset_reps = tuple(reps.tolist())

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return len(self.coset_reps)

    @cached_property
    def coset_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Where g moves coset block j, for every ambient g and block j: the
        block k of the coset of g g_j, and the local index of g_k^-1 g g_j,
        as two (ambient order, index) arrays."""
        amb = self.ambient
        reps = np.array(self.coset_reps)
        moved = amb.mult[:, reps]
        target = self.coset_of[moved]
        return target, self.local[amb.mult[amb.inv[reps[target]], moved]]

    def __repr__(self):
        return f"Subgroup(order={self.order}, index={self.index})"


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, [group.identity])


def young_subgroup(q, ambient: FiniteGroup | None = None) -> Subgroup:
    """The subgroup of S_n preserving the consecutive blocks of sizes q.

    ``q`` is a composition of n with positive parts; the subgroup is the
    direct product of the symmetric groups on each block.
    """
    q = tuple(int(x) for x in q)
    if not q or any(x <= 0 for x in q):
        raise ValueError("composition parts must be positive")
    n = sum(q)
    group = ambient if ambient is not None else symmetric_group(n)
    if group.perms is None or len(group.perms[0]) != n:
        raise ValueError("ambient group is not a symmetric group on sum(q) points")
    blk = np.repeat(np.arange(len(q)), q)  # the block of each point
    return Subgroup(group, np.flatnonzero(
        (blk[np.array(group.perms)] == blk).all(axis=1)))


# ---------------------------------------------------------------------------
# partitions and tableaux

def partitions(n: int, rows: int | None = None):
    """Partitions of n as weakly decreasing tuples, largest part first, in
    reverse lexicographic order; with ``rows``, only those with at most
    ``rows`` parts, in the same order.  A part too small to fill the rows
    left ends its loop, so no excluded partition is generated."""
    def gen(rest, maxpart, rows):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            if first * rows < rest:
                return
            for tail in gen(rest - first, first, rows - 1):
                yield (first,) + tail
    return list(gen(n, n, n if rows is None else rows))


def check_partition(parts) -> tuple[int, ...]:
    parts = tuple(int(x) for x in parts)
    if not parts or any(x <= 0 for x in parts):
        raise ValueError("partition parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return parts


def hook_lengths(parts) -> list[list[int]]:
    parts = check_partition(parts)
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    return [[(parts[i] - j) + (cols[j] - i) - 1 for j in range(parts[i])]
            for i in range(len(parts))]


def syt_dimension(parts) -> int:
    """Number of standard tableaux of the given shape (hook length formula)."""
    return math.factorial(sum(check_partition(parts))) // math.prod(
        h for row in hook_lengths(parts) for h in row)


def standard_tableaux(parts) -> list[tuple[tuple[int, ...], ...]]:
    """All standard tableaux of the given shape, entries 1..n."""
    parts = check_partition(parts)
    n = sum(parts)

    def build(shape_fill, value):
        # shape_fill: list of lists of placed values, row lengths <= parts
        if value > n:
            yield tuple(tuple(row) for row in shape_fill)
            return
        for r in range(len(parts)):
            c = len(shape_fill[r])
            if c < parts[r] and (r == 0 or len(shape_fill[r - 1]) > c):
                shape_fill[r].append(value)
                yield from build(shape_fill, value + 1)
                shape_fill[r].pop()

    return list(build([[] for _ in parts], 1))


def ssyt_count(parts, k: int) -> int:
    """Number of semistandard tableaux of the given shape with entries <= k.

    Computed by the Weyl dimension formula, a product over the row pairs
    i < j <= k (pairs of zero rows give 1); 0 with more than k rows.
    """
    parts = check_partition(parts)
    if k < 0:
        raise ValueError("k must be non-negative")
    if len(parts) > k:
        return 0
    lam = parts + (0,) * (k - len(parts))
    pairs = [(i, j) for i in range(len(parts)) for j in range(i + 1, k)]
    out, rest = divmod(math.prod(lam[i] - lam[j] + j - i for i, j in pairs),
                       math.prod(j - i for i, j in pairs))
    if rest:
        raise VerificationError("Weyl dimension product is not an integer")
    return out


# ---------------------------------------------------------------------------
# unitary representations

def homomorphism_residual(group: FiniteGroup, mats, cocycle=None) -> np.ndarray:
    """(sum_a c_a M_a)(sum_b e_b M_b) - sum_g (c*e)_g M_g for generic complex
    c and e, with c*e the convolution over the group table, twisted by
    1/cocycle[a, b] when a cocycle is given.  The coefficient of c_a e_b is
    the defect M_a M_b - M_ab / cocycle[a, b], so one generic draw shows any
    failing pair with probability one (Freivalds' idea, IFIP 1977)."""
    rng = Draws(0)
    c, e = rng.complex_normal((2, group.order))
    conv = np.zeros(group.order, dtype=complex)
    for a in range(group.order):
        ea = e if cocycle is None else e / cocycle[a]
        conv[group.mult[a]] += c[a] * ea  # row a of the table is a bijection
    x, y, xy = np.tensordot(np.stack([c, e, conv]), mats, axes=(1, 0))
    return x @ y - xy


class UnitaryRep:
    """A unitary representation of a FiniteGroup, one matrix per element.

    A permutation representation may be given by its index array instead:
    ``dest[g, i]`` is the basis vector that g sends basis vector i to, as in
    ``factor_permutation_index``.  The dense ``matrices`` are then built on
    first read, within ``_MAX_PERMUTATION_REP_DIM``.  Construction checks
    the multiplication table, exactly on indices or by
    ``homomorphism_residual``, and the unitarity of dense matrices.
    """

    def __init__(self, group: FiniteGroup, matrices=None,
                 tol: float = DEFAULT_TOL, check: bool = True, dest=None):
        if (matrices is None) == (dest is None):
            raise ValueError("provide exactly one of matrices, dest")
        self.group = group
        self.dest = None if dest is None else np.asarray(dest, dtype=np.int64)
        self._matrices = None if matrices is None else \
            np.asarray(matrices, dtype=complex)
        if self.dest is not None:
            shape_ok = self.dest.ndim == 2
            shape = self.dest.shape
        else:
            shape = self._matrices.shape
            shape_ok = len(shape) == 3 and shape[1] == shape[2]
        if not shape_ok or shape[0] != group.order:
            raise ValueError("need one square matrix per group element")
        self.dim = int(shape[1])
        if check:
            self._check(tol)

    @property
    def matrices(self) -> np.ndarray:
        if self._matrices is None:
            if self.dim > _MAX_PERMUTATION_REP_DIM:
                raise BudgetError(f"permutation representation dimension "
                                  f"{self.dim} exceeds "
                                  f"{_MAX_PERMUTATION_REP_DIM}")
            mats = np.zeros((self.group.order, self.dim, self.dim),
                            dtype=complex)
            mats[np.arange(self.group.order)[:, None], self.dest,
                 np.arange(self.dim)] = 1.0
            self._matrices = mats
        return self._matrices

    def _check(self, tol):
        g = self.group
        if self.dest is not None:
            # a permutation matrix is unitary, so only the table remains
            d, ident = self.dest, np.arange(self.dim)
            if not np.array_equal(np.sort(d, axis=1),
                                  np.broadcast_to(ident, d.shape)):
                raise ValueError("index row is not a permutation")
            if not np.array_equal(d[g.identity], ident):
                raise ValueError("identity element is not the identity matrix")
            for a in range(g.order):
                if not np.array_equal(d[a][d], d[g.mult[a]]):
                    raise ValueError("multiplication table is not respected")
            return
        mats = self._matrices
        if op_norm(mats[g.identity] - np.eye(self.dim)) > tol:
            raise ValueError("identity element is not the identity matrix")
        # ||m*m - 1|| = max |s_i^2 - 1| and ||m|| = s_0 over the singular
        # values s of m, so one batched SVD serves every element
        s = np.linalg.svd(mats, compute_uv=False)
        if np.any(np.max(np.abs(s ** 2 - 1.0), axis=1, initial=0.0)
                  > tol * np.maximum(1.0, np.max(s, axis=1, initial=0.0) ** 2)):
            raise ValueError("matrix is not unitary within tolerance")
        if op_norm(homomorphism_residual(g, mats)) > tol * max(1.0, self.dim):
            raise ValueError("multiplication table is not respected")

    def mat(self, g: int) -> np.ndarray:
        return self.matrices[g]

    def restrict(self, sub: Subgroup) -> "UnitaryRep":
        """The same representation viewed over a subgroup of its group."""
        if sub.ambient is not self.group:
            raise ValueError("subgroup does not live in the group")
        rows = list(sub.elements)
        if self.dest is not None:
            return UnitaryRep(sub.group, dest=self.dest[rows], check=False)
        return UnitaryRep(sub.group, self._matrices[rows], check=False)

    def mean(self) -> np.ndarray:
        """The average of the matrices over the group."""
        if self.dest is None:
            return np.mean(self._matrices, axis=0)
        n = self.dim
        flat = (self.dest * n + np.arange(n)).ravel()
        return np.bincount(flat, minlength=n * n).reshape(n, n) \
            / complex(self.group.order)


class ProjectiveRep:
    """A projective unitary representation with an explicit 2-cocycle.

    ``V(ts) = sigma(t,s) V(t) V(s)`` with ``|sigma| = 1`` and the cocycle
    identity ``sigma(t,s) sigma(ts,r) = sigma(s,r) sigma(t,sr)``.
    """

    def __init__(self, group: FiniteGroup, matrices, cocycle,
                 tol: float = DEFAULT_TOL, check: bool = True):
        self.group = group
        self.matrices = np.asarray(matrices, dtype=complex)
        self.cocycle = np.asarray(cocycle, dtype=complex)
        self.dim = int(self.matrices.shape[1])
        if self.cocycle.shape != (group.order, group.order):
            raise ValueError("cocycle table has wrong shape")
        if check:
            self._check(tol)

    def _check(self, tol):
        if np.max(np.abs(np.abs(self.cocycle) - 1.0)) > tol:
            raise ValueError("cocycle values must be unimodular")
        # V(t) V(s) = V(ts) / sigma(t, s), checked at one generic pair
        if op_norm(homomorphism_residual(self.group, self.matrices,
                                         self.cocycle)) > \
                tol * max(1.0, self.dim):
            raise ValueError("projective multiplication law fails")
        if self.cocycle_identity_residual() > tol:
            raise ValueError("cocycle identity fails")

    def cocycle_identity_residual(self) -> float:
        m, c = self.group.mult, self.cocycle
        # entry (t, s, r) compares sigma(t,s) sigma(ts,r), sigma(s,r) sigma(t,sr)
        lhs = c[:, :, None] * c[m]
        rhs = c[None, :, :] * c[np.arange(self.group.order)[:, None, None],
                                m[None, :, :]]
        return float(np.max(np.abs(lhs - rhs)))


def adjacent_transposition_matrices(parts):
    """Young's orthogonal form matrices for the adjacent transpositions.

    Entry i (0-based), the point swap (i i+1), swaps the tableau values i+1
    and i+2: 1/a on the diagonal for their axial distance a, and, where
    |a| > 1, sqrt(1 - 1/a^2) into the tableau with the two swapped.
    """
    parts = check_partition(parts)
    tableaux = standard_tableaux(parts)
    index = {t: i for i, t in enumerate(tableaux)}
    content = np.zeros((len(tableaux), sum(parts) + 1), dtype=np.int64)
    for t, tab in enumerate(tableaux):
        for r, row in enumerate(tab):
            content[t, list(row)] = np.arange(len(row)) - r
    gens = []
    for i in range(1, sum(parts)):
        dist = content[:, i + 1] - content[:, i]
        m = np.diag(1.0 / dist).astype(complex)
        for t in np.flatnonzero(abs(dist) > 1):
            swapped = tuple(tuple(i + 1 if v == i else i if v == i + 1 else v
                                  for v in row) for row in tableaux[t])
            m[index[swapped], t] = math.sqrt(1.0 - 1.0 / dist[t] ** 2)
        gens.append(m)
    return gens


@lru_cache(maxsize=None)
def sn_irrep(parts) -> UnitaryRep:
    """Irreducible representation of S_n labelled by a partition of n.

    Built in Young's orthogonal form, so the matrices are real orthogonal.
    Sorting p by swaps of adjacent positions j, j+1 writes it as a product
    of the s_j = (j j+1), and its matrix is the product of theirs.
    """
    parts = check_partition(parts)
    group = symmetric_group(sum(parts))
    gens = adjacent_transposition_matrices(parts)
    d = syt_dimension(parts)
    mats = np.empty((group.order, d, d), dtype=complex)
    for g, p in enumerate(group.perms):
        p, mats[g] = list(p), np.eye(d)
        for i in range(len(p) - 1, 0, -1):
            for j in range(i):
                if p[j] > p[j + 1]:  # p is (p with j, j+1 swapped) s_j
                    p[j], p[j + 1] = p[j + 1], p[j]
                    mats[g] = gens[j] @ mats[g]
    rep = UnitaryRep(group, mats, check=False)
    rep.matrices.flags.writeable = False
    return rep


def factor_permutation_index(dims, perms) -> np.ndarray:
    """Where factor permutations send the product basis of a tensor product.

    The product basis of C^dims[0] (x) ... (x) C^dims[n-1] is indexed in
    mixed radix, first factor most significant.  ``perms[g]`` is a
    permutation p of the factors that moves factor t to slot p[t]; it must
    preserve the factor dimensions.  Returns ``dest`` of shape
    (len(perms), prod(dims)) with ``dest[g, i]`` the index of the image of
    basis vector i, so the permutation sends a coefficient vector x to y with
    ``y[dest[g]] = x``.  For a composition, ``dest`` of pq is
    ``dest[p][dest[q]]``.
    """
    dims = [int(k) for k in dims]
    n = len(dims)
    perms = np.array(perms, dtype=np.int64).reshape(-1, n)
    total = math.prod(dims)
    # the returned index and the digit table are the largest arrays built
    if max(perms.shape[0], n) * total > MAX_DENSE_ENTRIES:
        raise BudgetError(
            f"factor permutation index of {perms.shape[0]}x{total} entries")
    if not np.array_equal(np.sort(perms, axis=1),
                          np.broadcast_to(np.arange(n), perms.shape)):
        raise ValueError("not a permutation of the tensor factors")
    if not np.array_equal(np.array(dims)[perms],
                          np.broadcast_to(dims, perms.shape)):
        raise ValueError("permutation does not preserve factor dimensions")
    place = radix_pack(np.eye(n, dtype=np.int64), dims)
    # digit t of a basis vector becomes digit p[t] of its image
    return place[perms] @ radix_digits(np.arange(total), dims)


def permutation_rep(n: int, d: int) -> UnitaryRep:
    """Representation of S_n on the n-fold tensor power of C^d.

    Each group element acts by permuting the tensor factors; the
    representation keeps the permutations of the product basis as an index
    array and builds the permutation matrices only when they are read.
    """
    group = symmetric_group(n)
    return UnitaryRep(group, dest=factor_permutation_index([d] * n,
                                                          group.perms),
                      check=False)
