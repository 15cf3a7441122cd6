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
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError, VerificationError
from .linalg import DEFAULT_TOL, op_norm

MAX_SYMMETRIC_N = 7

# Largest factor-permutation index table (entries), and largest tensor power
# dimension of a permutation representation.
_MAX_INDEX_ENTRIES = 70_000_000
_MAX_PERMUTATION_REP_DIM = 5000


class FiniteGroup:
    """A finite group as an explicit multiplication table on 0..order-1."""

    def __init__(self, mult, perms=None, check: bool = True):
        mult = np.array(mult, dtype=np.int64)
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

    def conjugate(self, g: int, h: int) -> int:
        """g h g^{-1}."""
        return int(self.mult[self.mult[g, h], self.inv[g]])

    def is_associative(self) -> bool:
        """Exhaustive associativity check; cubic memory in the order."""
        m = self.mult
        left = m[m, :]    # left[a, b, c] = (ab)c
        right = m[:, m]   # right[a, b, c] = a(bc)
        return bool(np.array_equal(left, right))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> FiniteGroup:
    """The symmetric group on n points, elements in lexicographic order."""
    if not 1 <= n <= MAX_SYMMETRIC_N:
        raise ValueError(f"n must be between 1 and {MAX_SYMMETRIC_N}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    order = perms.shape[0]
    radix = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = perms @ radix  # ascending, since perms are in lex order
    mult = np.empty((order, order), dtype=np.int64)
    for a in range(order):
        comp = perms[a][perms]  # comp[b, i] = pa[pb[i]]
        mult[a] = np.searchsorted(keys, comp @ radix)
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
        return symmetric_group(int(obj["symmetric"]))
    if "table" in obj:
        group = FiniteGroup(obj["table"])
        if "inv" in obj and not np.array_equal(
                np.asarray(obj["inv"], dtype=np.int64), group.inv):
            raise ValueError("inverse list does not match the table")
        return group
    raise ValueError('group description needs "symmetric" or "table"')


def group_to_json(group: FiniteGroup) -> dict:
    return {"table": group.mult.tolist(), "inv": group.inv.tolist()}


class Subgroup:
    """A subgroup of an ambient group, with left coset bookkeeping.

    ``elements`` are ambient indices in increasing order; ``group`` is the
    intrinsic multiplication table on local indices; ``coset_reps`` are the
    smallest ambient index in each left coset (for symmetric groups this is
    the lexicographically minimal permutation).
    """

    def __init__(self, ambient: FiniteGroup, elements):
        elements = tuple(sorted(set(int(e) for e in elements)))
        elem_set = set(elements)
        if ambient.identity not in elem_set:
            raise ValueError("subgroup must contain the identity")
        for a in elements:
            if ambient.inverse(a) not in elem_set:
                raise ValueError("subset not closed under inverses")
            for b in elements:
                if ambient.multiply(a, b) not in elem_set:
                    raise ValueError("subset not closed under multiplication")
        self.ambient = ambient
        self.elements = elements
        self.local = {amb: i for i, amb in enumerate(elements)}
        table = [[self.local[ambient.multiply(a, b)] for b in elements]
                 for a in elements]
        perms = None
        if ambient.perms is not None:
            perms = [ambient.perms[a] for a in elements]
        self.group = FiniteGroup(table, perms=perms, check=False)
        coset_of = np.full(ambient.order, -1, dtype=np.int64)
        reps = []
        for g in range(ambient.order):
            if coset_of[g] >= 0:
                continue
            j = len(reps)
            reps.append(g)
            for h in elements:
                coset_of[ambient.multiply(g, h)] = j
        self.coset_reps = tuple(reps)
        self.coset_of = coset_of

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return len(self.coset_reps)

    def __repr__(self):
        return f"Subgroup(order={self.order}, index={self.index})"


def whole_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, range(group.order))


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
    blk = []
    for b, size in enumerate(q):
        blk.extend([b] * size)
    members = [g for g, p in enumerate(group.perms)
               if all(blk[p[x]] == blk[x] for x in range(n))]
    return Subgroup(group, members)


# ---------------------------------------------------------------------------
# partitions and tableaux

def partitions(n: int):
    """Partitions of n as weakly decreasing tuples, largest part first."""
    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    return list(gen(n, n))


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
    parts = check_partition(parts)
    n = sum(parts)
    denom = 1
    for row in hook_lengths(parts):
        for h in row:
            denom *= h
    return math.factorial(n) // denom


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
            if c >= parts[r]:
                continue
            if r > 0 and len(shape_fill[r - 1]) <= c:
                continue
            shape_fill[r].append(value)
            yield from build(shape_fill, value + 1)
            shape_fill[r].pop()

    return list(build([[] for _ in parts], 1))


def ssyt_count(parts, k: int) -> int:
    """Number of semistandard tableaux of the given shape with entries <= k.

    Computed by the hook content formula; returns 0 when the shape has more
    than k rows.
    """
    parts = check_partition(parts)
    if k < 0:
        raise ValueError("k must be non-negative")
    hooks = hook_lengths(parts)
    out = Fraction(1)
    for i in range(len(parts)):
        for j in range(parts[i]):
            out *= Fraction(k + j - i, hooks[i][j])
    if out.denominator != 1:
        raise VerificationError("hook content product is not an integer")
    return int(out)


# ---------------------------------------------------------------------------
# unitary representations

def homomorphism_residual(group: FiniteGroup, mats) -> np.ndarray:
    """(sum_a c_a M_a)(sum_b e_b M_b) - sum_g (c*e)_g M_g for generic complex
    c and e, with c*e the convolution over the group table.  The coefficient
    of c_a e_b is the defect M_a M_b - M_ab, so one generic draw shows any
    failing pair with probability one (Freivalds' idea, IFIP 1977)."""
    rng = np.random.default_rng(0)
    c, e = rng.standard_normal((2, group.order)) \
        + 1j * rng.standard_normal((2, group.order))
    conv = np.zeros(group.order, dtype=complex)
    for a in range(group.order):
        conv[group.mult[a]] += c[a] * e  # row a of the table is a bijection
    x, y, xy = np.tensordot(np.stack([c, e, conv]), mats, axes=(1, 0))
    return x @ y - xy


class UnitaryRep:
    """A unitary representation of a FiniteGroup, one matrix per element;
    the check of the multiplication table is ``homomorphism_residual``."""

    def __init__(self, group: FiniteGroup, matrices, tol: float = DEFAULT_TOL,
                 check: bool = True):
        matrices = np.asarray(matrices, dtype=complex)
        if matrices.shape[0] != group.order or matrices.ndim != 3 \
                or matrices.shape[1] != matrices.shape[2]:
            raise ValueError("need one square matrix per group element")
        self.group = group
        self.matrices = matrices
        self.dim = int(matrices.shape[1])
        if check:
            self._check(tol)

    def _check(self, tol):
        g = self.group
        eye = np.eye(self.dim)
        if op_norm(self.matrices[g.identity] - eye) > tol:
            raise ValueError("identity element is not the identity matrix")
        for m in self.matrices:
            if op_norm(m.conj().T @ m - eye) > tol * max(1.0, op_norm(m) ** 2):
                raise ValueError("matrix is not unitary within tolerance")
        if op_norm(homomorphism_residual(g, self.matrices)) > \
                tol * max(1.0, self.dim):
            raise ValueError("multiplication table is not respected")

    def mat(self, g: int) -> np.ndarray:
        return self.matrices[g]

    def character(self) -> np.ndarray:
        return np.einsum("gii->g", self.matrices)

    def tensor(self, other: "UnitaryRep") -> "UnitaryRep":
        if self.group is not other.group:
            raise ValueError("tensor product requires the same group")
        mats = np.einsum("gij,gkl->gikjl", self.matrices, other.matrices)
        d = self.dim * other.dim
        return UnitaryRep(self.group, mats.reshape(self.group.order, d, d),
                          check=False)


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
        g = self.group
        if np.max(np.abs(np.abs(self.cocycle) - 1.0)) > tol:
            raise ValueError("cocycle values must be unimodular")
        for t in range(g.order):
            for s in range(g.order):
                lhs = self.matrices[g.mult[t, s]]
                rhs = self.cocycle[t, s] * self.matrices[t] @ self.matrices[s]
                if op_norm(lhs - rhs) > tol * max(1.0, self.dim):
                    raise ValueError("projective multiplication law fails")
        if self.cocycle_identity_residual() > tol:
            raise ValueError("cocycle identity fails")

    def cocycle_identity_residual(self) -> float:
        g, c = self.group, self.cocycle
        worst = 0.0
        for t in range(g.order):
            for s in range(g.order):
                ts = g.mult[t, s]
                for r in range(g.order):
                    sr = g.mult[s, r]
                    worst = max(worst, abs(c[t, s] * c[ts, r]
                                           - c[s, r] * c[t, sr]))
        return worst


def regular_rep(group: FiniteGroup) -> UnitaryRep:
    """Left regular representation by permutation matrices."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        mats[g, group.mult[g], np.arange(n)] = 1.0
    return UnitaryRep(group, mats, check=False)


def _adjacent_transposition_matrices(parts):
    """Young's orthogonal form matrices for the adjacent transpositions.

    Entry i (0-based) swaps the tableau values i+1 and i+2.
    """
    parts = check_partition(parts)
    n = sum(parts)
    tableaux = standard_tableaux(parts)
    index = {t: i for i, t in enumerate(tableaux)}
    pos = []
    for t in tableaux:
        where = {}
        for r, row in enumerate(t):
            for c, v in enumerate(row):
                where[v] = (r, c)
        pos.append(where)
    d = len(tableaux)
    gens = []
    for i in range(1, n):
        m = np.zeros((d, d), dtype=complex)
        for t_idx, t in enumerate(tableaux):
            r1, c1 = pos[t_idx][i]
            r2, c2 = pos[t_idx][i + 1]
            dist = (c2 - r2) - (c1 - r1)
            m[t_idx, t_idx] = 1.0 / dist
            if r1 != r2 and c1 != c2:
                swapped = tuple(tuple(i + 1 if v == i else i if v == i + 1 else v
                                      for v in row) for row in t)
                m[index[swapped], t_idx] = math.sqrt(1.0 - 1.0 / dist ** 2)
        gens.append(m)
    return gens


@lru_cache(maxsize=None)
def sn_irrep(parts) -> UnitaryRep:
    """Irreducible representation of S_n labelled by a partition of n.

    Built in Young's orthogonal form, so the matrices are real orthogonal.
    """
    parts = check_partition(parts)
    n = sum(parts)
    group = symmetric_group(n)
    gens = _adjacent_transposition_matrices(parts)
    d = gens[0].shape[0] if gens else 1
    gen_idx = []
    for j in range(n - 1):
        p = list(range(n))
        p[j], p[j + 1] = p[j + 1], p[j]
        gen_idx.append(group.perms.index(tuple(p)))
    mats = np.zeros((group.order, d, d), dtype=complex)
    mats[group.identity] = np.eye(d)
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for j, s in enumerate(gen_idx):
                h = group.multiply(g, s)
                if h not in seen:
                    # value-level swap of j+1, j+2 realizes the point swap (j, j+1)
                    mats[h] = mats[g] @ gens[j]
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    rep = UnitaryRep(group, mats, check=False)
    rep.matrices.flags.writeable = False
    return rep


def sn_character(parts) -> np.ndarray:
    return np.real(sn_irrep(parts).character())


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
    if max(perms.shape[0], n) * total > _MAX_INDEX_ENTRIES:
        raise BudgetError(
            f"factor permutation index of {perms.shape[0]}x{total} entries")
    if not np.array_equal(np.sort(perms, axis=1),
                          np.broadcast_to(np.arange(n), perms.shape)):
        raise ValueError("not a permutation of the tensor factors")
    if not np.array_equal(np.array(dims)[perms],
                          np.broadcast_to(dims, perms.shape)):
        raise ValueError("permutation does not preserve factor dimensions")
    radix = np.ones(n, dtype=np.int64)
    for t in range(n - 2, -1, -1):
        radix[t] = radix[t + 1] * dims[t + 1]
    digits = np.empty((n, total), dtype=np.int64)
    r = np.arange(total)
    for t in range(n - 1, -1, -1):
        digits[t] = r % dims[t]
        r = r // dims[t]
    # digit t of a basis vector becomes digit p[t] of its image
    return radix[perms] @ digits


def permutation_rep(n: int, d: int) -> UnitaryRep:
    """Representation of S_n on the n-fold tensor power of C^d.

    Each group element acts by permuting the tensor factors; the matrices are
    permutation matrices in the product basis.
    """
    group = symmetric_group(n)
    dim = d ** n
    if dim > _MAX_PERMUTATION_REP_DIM:
        raise BudgetError(f"tensor power dimension {dim} exceeds "
                          f"{_MAX_PERMUTATION_REP_DIM}")
    dest = factor_permutation_index([d] * n, group.perms)
    mats = np.zeros((group.order, dim, dim), dtype=complex)
    mats[np.arange(group.order)[:, None], dest, np.arange(dim)] = 1.0
    return UnitaryRep(group, mats, check=False)


def isotypic_projection(parts, rep: UnitaryRep,
                        tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the isotypic component of a partition.

    ``rep`` must be a unitary representation of the symmetric group on
    sum(parts) points.  The projections over all partitions of n resolve the
    identity.
    """
    parts = check_partition(parts)
    n = sum(parts)
    if rep.group is not symmetric_group(n):
        raise ValueError("rep is not a representation of S_n for this partition")
    chi = sn_character(parts)
    d = syt_dimension(parts)
    proj = (d / rep.group.order) * np.einsum(
        "g,gij->ij", np.conj(chi).astype(complex), rep.matrices)
    if op_norm(proj @ proj - proj) > tol * max(1.0, rep.dim):
        raise VerificationError("isotypic projection is not idempotent")
    return proj
