"""Wedderburn analysis of concrete *-closed matrix algebras.

Commutants, centers, minimal central projections, and equivalence tests for
representations given by the images of an algebra basis.

Commutants are solved in the eigenbasis of a generic Hermitian element H of
a *-closed family: whatever commutes with the family commutes with H, so in
the eigenbasis of H it is block diagonal over the eigenvalue clusters of H,
and only the sum of the squared cluster sizes are unknowns instead of all
N^2 entries (the generic step of Murota, Kanno, Kojima & Kojima, Japan J.
Indust. Appl. Math. 27 (2010)).  Large families are first replaced by
generic linear combinations with their adjoints, whose commutant equals the
family's with probability one.  Every candidate is verified against the
family; a failing draw is retried with fresh combinations, and the dense
commutation system of the whole family is the last resort.  Intertwiner and
center solves use the combination shortcut in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DegenerateDrawError, VerificationError
from .linalg import (DEFAULT_TOL, SPECTRAL_GAP, adjoint, cluster_eigenvalues,
                     eig_hermitian, nullspace, orthonormal_columns)

# Largest ambient size accepted by commutant.  It bounds the dense
# commutation system of the last-resort fallback (N^2 x N^2 per member); the
# eigenbasis solve is much smaller.  Block structure of larger algebras
# should be computed through minimal_central_projections instead.
MAX_COMMUTANT_AMBIENT = 40

# Basis pairs checked for product closure of a span (all pairs up to this
# many, a fixed-seed sample of this many beyond), and family members a
# commutant candidate is verified against (a fixed-seed sample beyond).
_CLOSURE_CHECK_PAIRS = 400
_VERIFY_MAX_MEMBERS = 256

# Largest entry count of the stacked dense intertwiner system; beyond it the
# solve runs on generic combinations of the two representations.
_INTERTWINER_DENSE_ENTRIES = 30_000_000


def _as_family(mats) -> np.ndarray:
    fam = np.asarray(mats, dtype=complex)
    if fam.ndim != 3 or fam.shape[1] != fam.shape[2]:
        raise ValueError("expected a family of square matrices")
    return fam


@dataclass
class SpannedAlgebra:
    """A *-closed, product-closed linear span of matrices.

    ``span_basis`` is linearly independent; ``onb`` holds an orthonormal
    basis of the span as rows of vectorized matrices; ``generators`` is an
    optional smaller family generating the span as an algebra, used to speed
    up commutation solves.
    """

    ambient: int
    span_basis: np.ndarray
    onb: np.ndarray
    unital: bool
    generators: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.span_basis.shape[0]

    def contains(self, mat, tol: float = DEFAULT_TOL) -> bool:
        v = np.asarray(mat, dtype=complex).ravel()
        # onb.conj() @ v without copying the onb matrix
        proj = np.conj(self.onb @ np.conj(v))
        resid = v - proj @ self.onb
        scale = max(1.0, float(np.linalg.norm(v)))
        return float(np.linalg.norm(resid)) <= tol * scale

    def support(self) -> np.ndarray:
        """Flat indices of the matrix entries where the span can be nonzero.

        Commutators and products of span elements stay supported there, which
        keeps the center solve small for sparse spans.
        """
        mask = np.any(self.span_basis != 0, axis=0)
        if self.generators is not None:
            mask |= np.any(self.generators != 0, axis=0)
        return np.flatnonzero(mask.ravel())


def spanned_algebra(mats, tol: float = DEFAULT_TOL, generators=None,
                    check: bool = True, seed: int = 0, orthogonal: bool = False) -> SpannedAlgebra:
    """Build a SpannedAlgebra from a spanning family.

    Reduces the family to a linearly independent subset and verifies closure
    under adjoints and products on basis pairs (all pairs when there are few,
    a fixed-seed sample otherwise).  ``orthogonal`` asserts that the family
    is already pairwise orthogonal (e.g. matrices with disjoint supports), in
    which case normalizing rows gives the orthonormal basis directly.
    """
    fam = _as_family(mats)
    n = fam.shape[1]
    vecs = fam.reshape(fam.shape[0], n * n)
    # one economy factorization when the family is already independent,
    # greedy selection of an independent subset otherwise
    basis, onb = fam, np.zeros((0, n * n), dtype=complex)
    if orthogonal and fam.shape[0]:
        norms = np.linalg.norm(vecs, axis=1)
        if np.any(norms == 0):
            raise ValueError("orthogonal family must not contain zero matrices")
        onb = vecs / norms[:, None]
    elif fam.shape[0]:
        _, s, vh = np.linalg.svd(vecs, full_matrices=False)
        rank = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
        if rank == fam.shape[0]:
            onb = vh[:rank]
        else:
            keep: list[int] = []
            onb_rows: list[np.ndarray] = []
            for i, v in enumerate(vecs):
                w = v.copy()
                for q in onb_rows:
                    w = w - (q.conj() @ w) * q
                nw = np.linalg.norm(w)
                if nw > tol * max(1.0, np.linalg.norm(v)):
                    keep.append(i)
                    onb_rows.append(w / nw)
            basis = fam[keep]
            onb = np.array(onb_rows)
    out = SpannedAlgebra(n, basis, onb, unital=False,
                         generators=None if generators is None
                         else _as_family(generators))
    out.unital = out.contains(np.eye(n), tol)
    if check:
        d = basis.shape[0]
        rng = np.random.default_rng(seed)
        if d * d <= _CLOSURE_CHECK_PAIRS:
            pairs = [(i, j) for i in range(d) for j in range(d)]
        else:
            pairs = [(int(i), int(j)) for i, j in
                     rng.integers(0, d, size=(_CLOSURE_CHECK_PAIRS, 2))]
        for i in range(d):
            if not out.contains(adjoint(basis[i]), tol):
                raise ValueError("span is not closed under adjoints")
        for i, j in pairs:
            if not out.contains(basis[i] @ basis[j], tol):
                raise ValueError("span is not closed under products")
    return out


# ---------------------------------------------------------------------------
# commutants

def _random_combos(fam: np.ndarray, rng, count: int) -> list[np.ndarray]:
    """Generic complex combinations of a family, each paired with its adjoint."""
    out = []
    for _ in range(count):
        c = rng.standard_normal(fam.shape[0]) + 1j * rng.standard_normal(fam.shape[0])
        m = np.tensordot(c, fam, axes=(0, 0))
        out.extend([m, m.conj().T])
    return out


def _hermitian_parts(fam: np.ndarray) -> np.ndarray:
    """(m + m*)/2 and (m - m*)/2i of every member; their real span holds the
    Hermitian elements of the family's complex span when it is *-closed."""
    adj = np.conj(np.transpose(fam, (0, 2, 1)))
    return np.concatenate([(fam + adj) / 2, (fam - adj) / 2j], axis=0)


def _commutation_operator(m: np.ndarray) -> np.ndarray:
    """Matrix of X -> Xm - mX on row-major vectorized X."""
    n = m.shape[0]
    eye = np.eye(n)
    return np.kron(eye, m.T) - np.kron(m, eye)


def _verify_commutant(cands: np.ndarray, fam: np.ndarray, tol: float) -> bool:
    if cands.shape[0] == 0:
        return True
    if fam.shape[0] > _VERIFY_MAX_MEMBERS:
        rng = np.random.default_rng(0)
        fam = fam[rng.choice(fam.shape[0], size=_VERIFY_MAX_MEMBERS,
                             replace=False)]
    scale = max(1.0, float(np.max(np.abs(fam)))) * max(
        1.0, float(np.max(np.abs(cands))))
    for c in cands:
        worst = np.max(np.abs(c @ fam - fam @ c))
        if worst > 100 * tol * scale:
            return False
    return True


def commutant(s, tol: float = DEFAULT_TOL, seed: int = 0) -> SpannedAlgebra:
    """Commutant of a *-closed spanned algebra or matrix family in its
    ambient space.

    The family must be closed under adjoints (up to span): the solve keeps
    only what commutes with a Hermitian element built from the members and
    their adjoints, which for a family that is not *-closed can drop part of
    its commutant.  A SpannedAlgebra's generators must generate it as a
    *-algebra.  Up to four generators are used with their adjoints as the
    constraints, more are replaced by a generic combination and its adjoint.
    Each draw takes a random real combination H of the Hermitian parts of the
    constraints, H = V D V*, and solves [X', V* m V] = 0 for the unknown
    X' = V* X V restricted to the blocks of the eigenvalue clusters of H.
    The result is verified against the whole family; two more draws with
    added combinations follow a failure, and the dense commutation system of
    the whole family is the last resort.

    Returns a SpannedAlgebra; the double commutant of a unital *-closed span
    recovers the span itself at these (finite) sizes.
    """
    if isinstance(s, SpannedAlgebra):
        fam = s.span_basis
        gens = s.generators if s.generators is not None else fam
    else:
        fam = _as_family(s)
        gens = fam
    n = fam.shape[1]
    if n > MAX_COMMUTANT_AMBIENT:
        raise BudgetError(
            f"dense commutant solve limited to ambient {MAX_COMMUTANT_AMBIENT}")
    rng = np.random.default_rng(seed)
    if gens.shape[0] <= 4:
        constraints = np.concatenate(
            [gens, np.conj(np.transpose(gens, (0, 2, 1)))])
    else:
        constraints = np.stack(_random_combos(gens, rng, 1))
    for attempt in range(3):
        herm = _hermitian_parts(constraints)
        h = np.tensordot(rng.standard_normal(herm.shape[0]), herm, axes=(0, 0))
        w, v = eig_hermitian(h, tol)
        clusters = cluster_eigenvalues(
            w, SPECTRAL_GAP * max(1.0, float(np.max(np.abs(w)))))
        # unknowns: the entries (rows[u], cols[u]) of X' inside one cluster's
        # block; [E_ij, m] has m[j, :] in row i and -m[:, i] in column j
        rows = np.concatenate([np.repeat(c, len(c)) for c in clusters])
        cols = np.concatenate([np.tile(c, len(c)) for c in clusters])
        unknowns = np.arange(rows.size)
        primed = np.matmul(v.conj().T, constraints @ v)
        ops = []
        for m in primed:
            op = np.zeros((rows.size, n, n), dtype=complex)
            op[unknowns, rows, :] = m[cols, :]
            op[unknowns, :, cols] -= m[:, rows].T
            ops.append(op.reshape(rows.size, n * n).T)
        scale = 2 * float(np.max(np.linalg.norm(constraints, 2, axis=(1, 2))))
        coeffs = nullspace(np.concatenate(ops, axis=0), tol, scale=scale)
        reduced = np.zeros((coeffs.shape[1], n, n), dtype=complex)
        reduced[:, rows, cols] = coeffs.T
        basis = np.matmul(v, reduced @ v.conj().T)
        if _verify_commutant(basis, fam, tol):
            break
        constraints = np.concatenate(
            [constraints, np.stack(_random_combos(gens, rng, 1))])
    else:
        stacked = np.concatenate(
            [_commutation_operator(m) for m in fam], axis=0)
        basis = nullspace(stacked, tol).T.reshape(-1, n, n)
    return spanned_algebra(basis, tol, check=False)


def commutant_dimension(family, tol: float = DEFAULT_TOL, seed: int = 0) -> int:
    return commutant(family, tol, seed).dim


# ---------------------------------------------------------------------------
# intertwiners and equivalence

def intertwiner_space(pi, rho, tol: float = DEFAULT_TOL,
                      seed: int = 0) -> np.ndarray:
    """Basis of {T : T pi(b) = rho(b) T for every basis element b}.

    ``pi`` and ``rho`` are families of images of the same algebra basis.
    Returns an array of shape (k, dim rho, dim pi).
    """
    pi = _as_family(pi)
    rho = _as_family(rho)
    if pi.shape[0] != rho.shape[0]:
        raise ValueError("the two representations must share a basis")
    d = pi.shape[0]
    np_, nr = pi.shape[1], rho.shape[1]

    def constraint(a, b):
        # vec_r(rho_b T - T pi_b) = (kron(rho_b, I) - kron(I, pi_b^T)) vec_r(T)
        return np.kron(b, np.eye(np_)) - np.kron(np.eye(nr), a.T)

    if d * (nr * np_) ** 2 <= _INTERTWINER_DENSE_ENTRIES:
        stacked = np.concatenate([constraint(pi[i], rho[i]) for i in range(d)],
                                 axis=0)
        return nullspace(stacked, tol).T.reshape(-1, nr, np_)
    rng = np.random.default_rng(seed)
    for attempt in range(3):
        rows = []
        for _ in range(attempt + 2):
            c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            rows.append(constraint(np.tensordot(c, pi, axes=(0, 0)),
                                   np.tensordot(c, rho, axes=(0, 0))))
        basis = nullspace(np.concatenate(rows, axis=0), tol).T.reshape(-1, nr, np_)
        worst = 0.0
        for t in basis:
            worst = max(worst, float(np.max(np.abs(t @ pi - rho @ t))))
        if basis.size == 0 or worst <= 100 * tol * max(
                1.0, float(np.max(np.abs(basis)))):
            return basis
    raise DegenerateDrawError("intertwiner solve failed to verify")


def equivalent(pi, rho, tol: float = DEFAULT_TOL, seed: int = 0) -> bool:
    """Unitary equivalence of two representations given on the same basis.

    True iff the intertwiner space contains an invertible element; a generic
    combination of an intertwiner basis achieves the maximal rank, so a few
    random draws decide invertibility.
    """
    pi = _as_family(pi)
    rho = _as_family(rho)
    if pi.shape[1] != rho.shape[1]:
        return False
    basis = intertwiner_space(pi, rho, tol, seed)
    if basis.shape[0] == 0:
        return False
    rng = np.random.default_rng(seed)
    n = pi.shape[1]
    for _ in range(3):
        c = rng.standard_normal(basis.shape[0]) \
            + 1j * rng.standard_normal(basis.shape[0])
        t = np.tensordot(c, basis, axes=(0, 0))
        s = np.linalg.svd(t, compute_uv=False)
        if s[-1] > tol * s[0]:
            return True
    return False


def is_irreducible(pi, tol: float = DEFAULT_TOL, seed: int = 0) -> bool:
    return commutant_dimension(_as_family(pi), tol, seed) == 1


def is_factor(pi, tol: float = DEFAULT_TOL, seed: int = 0) -> bool:
    """Whether the generated von Neumann algebra has trivial center.

    At finite dimension this is the condition that the center of the
    commutant is the scalars.
    """
    comm = commutant(_as_family(pi), tol, seed)
    return _center_coefficients(comm.span_basis, comm.span_basis,
                                tol).shape[1] == 1


# ---------------------------------------------------------------------------
# centers and minimal central projections

def _center_coefficients(basis: np.ndarray, constraints: np.ndarray,
                         tol: float, support=None) -> np.ndarray:
    """Coefficient vectors x with sum_j x_j basis_j commuting with the
    constraint matrices; returns an (dim basis, k) array of columns.

    ``support`` restricts the commutator rows to the span's support entries,
    which is lossless because commutators of span elements stay in the span.
    """
    cols = []
    for m in constraints:
        comm = (basis @ m - m @ basis).reshape(basis.shape[0], -1)
        if support is not None:
            comm = comm[:, support]
        cols.append(comm.T)
    stacked = np.concatenate(cols, axis=0)
    return nullspace(stacked, tol)


@dataclass
class WedderburnReport:
    """Minimal central projections with per-block dimension and multiplicity.

    ``block_dims[j]`` is the size of the j-th simple summand of the algebra
    and ``multiplicities[j]`` how often its defining representation occurs in
    the ambient space, so rank(projection) = block_dim * multiplicity and the
    squared block dims sum to the linear dimension of the span.
    """

    central_projections: list
    block_dims: list
    multiplicities: list


def _support_components(basis: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Connected components of the ambient indices under the span's supports.

    A union-find over the ambient indices joins every row and column index
    touched by one member: each round hooks the root of every touched index
    onto the least root its members meet and then compresses paths, until
    no root moves.  Each member then lies in the square block of one
    component, and the span is the direct sum of the spans of each
    component's members.  Only the sparsity pattern is read.
    Returns (indices, members) per component; indices that no member
    touches form no component.
    """
    nz = basis != 0
    touched = np.any(nz, axis=1) | np.any(nz, axis=2)
    n = basis.shape[1]
    roots = np.arange(n)
    while True:
        member_root = np.where(touched, roots, n).min(axis=1, initial=n)
        least = np.where(touched, member_root[:, None], n).min(axis=0, initial=n)
        hooked = roots.copy()
        np.minimum.at(hooked, roots, least)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, roots):
            break
        roots = hooked
    return [(np.flatnonzero(roots == c), np.flatnonzero(member_root == c))
            for c in np.unique(member_root[member_root < n])]


def _component_span(s: SpannedAlgebra, idx: np.ndarray, members: np.ndarray,
                    tol) -> SpannedAlgebra:
    """The span of the given members, all supported on ``idx x idx``, as
    matrices on those indices, with the generators compressed there.

    The whole span's orthonormal rows, restricted to the block, give the
    orthogonal projection onto the component's span, which is all that
    ``contains`` uses; rows that vanish on the block are dropped.
    """
    rows, cols = idx[:, None], idx
    onb = s.onb[:, (rows * s.ambient + cols).ravel()]
    onb = onb[np.any(onb != 0, axis=1)]
    gens = None if s.generators is None else s.generators[:, rows, cols]
    sub = SpannedAlgebra(idx.shape[0], s.span_basis[members][:, rows, cols],
                         onb, unital=False, generators=gens)
    sub.unital = sub.contains(np.eye(idx.shape[0]), tol)
    return sub


def minimal_central_projections(s: SpannedAlgebra, seed: int = 0,
                                tol: float = DEFAULT_TOL,
                                gap: float = SPECTRAL_GAP) -> WedderburnReport:
    """Wedderburn data of a *-closed span via a random central element.

    The ambient indices are first split into the connected components of the
    members' supports, and each component is solved on its own block: the
    span is the direct sum of the component spans, so its minimal central
    projections are the union of theirs.  Per component, draws a random
    Hermitian element of the center, clusters its eigenvalues (threshold
    ``gap``), and takes the spectral projections; a generic draw separates
    the minimal central projections with probability one.  Retries with
    fresh seeds on degenerate draws, failing after five attempts.
    """
    n = s.ambient
    projections, dims, mults = [], [], []
    for idx, members in _support_components(s.span_basis):
        sub = _component_span(s, idx, members, tol)
        for proj, d, k in _component_projections(sub, seed, tol, gap):
            full = np.zeros((n, n), dtype=complex)
            full[idx[:, None], idx] = proj
            projections.append(full)
            dims.append(d)
            mults.append(k)
    if sum(d * d for d in dims) != s.dim:
        raise DegenerateDrawError("block dimensions do not add up to the span")
    order = sorted(range(len(dims)), key=lambda i: (dims[i], mults[i]))
    return WedderburnReport([projections[i] for i in order],
                            [dims[i] for i in order],
                            [mults[i] for i in order])


def _component_projections(s: SpannedAlgebra, seed, tol, gap):
    basis = s.span_basis
    gens = s.generators if s.generators is not None else basis
    n = s.ambient
    support = s.support()
    if support.shape[0] > 0.5 * n * n:
        support = None
    last_error = "no attempt"
    for attempt in range(5):
        rng = np.random.default_rng(seed + attempt)
        constraints = list(gens) if gens.shape[0] <= 4 \
            else _random_combos(gens, rng, 1)
        xi = _center_coefficients(basis, np.asarray(constraints), tol, support)
        center = np.tensordot(xi.T, basis, axes=(1, 0))
        if not _verify_commutant(center, basis, tol):
            xi = _center_coefficients(basis, basis, tol, support)
            center = np.tensordot(xi.T, basis, axes=(1, 0))
        herm = _hermitian_parts(center)
        z = np.tensordot(rng.standard_normal(herm.shape[0]), herm, axes=(0, 0))
        w, v = eig_hermitian(z, max(tol, 1e-8))
        try:
            return _projections_from_spectrum(s, w, v, tol, gap)
        except DegenerateDrawError as exc:
            last_error = str(exc)
    raise DegenerateDrawError(
        f"central projection extraction failed after 5 seeds: {last_error}")


def _projections_from_spectrum(s: SpannedAlgebra, w, v, tol, gap):
    """(projection, block dim, multiplicity) of each spectral cluster."""
    basis = s.span_basis
    out = []
    for idx in cluster_eigenvalues(w, gap):
        cols = v[:, idx]
        proj = cols @ cols.conj().T
        if not s.contains(proj, max(tol * 100, 1e-7)):
            # spectral cluster outside the span: only legitimate for the
            # kernel of a degenerate algebra
            if s.unital or abs(np.mean(w[idx])) > gap:
                raise DegenerateDrawError("cluster projection not in the span")
            continue
        rank = int(round(float(np.real(np.trace(proj)))))
        compressed = np.matmul(cols.conj().T, basis @ cols)
        sq = compressed.reshape(basis.shape[0], -1)
        sv = np.linalg.svd(sq, compute_uv=False)
        block_sq = int(np.sum(sv > max(tol, 1e-8) * sv[0]))
        d = int(round(block_sq ** 0.5))
        if d * d != block_sq or d == 0 or rank % d != 0:
            raise DegenerateDrawError(
                f"cluster gives non-square block dimension {block_sq}")
        out.append((proj, d, rank // d))
    if sum(d * d for _, d, _ in out) != s.dim:
        raise DegenerateDrawError("block dimensions do not add up to the span")
    return out


# ---------------------------------------------------------------------------
# essential subspaces, quasi-equivalence, ergodicity

def essential_subspace(images, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the span of the ranges of the images.

    The zero representation yields the zero projection; compressing to the
    range makes the representation nondegenerate.
    """
    fam = _as_family(images)
    n = fam.shape[1]
    stacked = fam.transpose(1, 0, 2).reshape(n, -1)
    q = orthonormal_columns(stacked, tol)
    return q @ q.conj().T


def quasi_equivalent(pi, rho, tol: float = DEFAULT_TOL, seed: int = 0) -> bool:
    """Same set of irreducible constituents, ignoring multiplicities.

    Decomposes both representations by minimal central projections of their
    image spans and matches the compressed factor blocks by nonzero
    intertwiner spaces.
    """
    def blocks(fam):
        fam = _as_family(fam)
        p = essential_subspace(fam, tol)
        q = orthonormal_columns(p, tol)
        fam = np.matmul(q.conj().T, fam @ q)
        alg = spanned_algebra(fam, tol, check=False)
        rep = minimal_central_projections(alg, seed=seed, tol=tol)
        out = []
        for proj in rep.central_projections:
            w = orthonormal_columns(proj, tol)
            out.append(np.matmul(w.conj().T, fam @ w))
        return out

    bp, br = blocks(pi), blocks(rho)

    def matched(xs, ys):
        return all(any(intertwiner_space(x, y, tol).shape[0] > 0 for y in ys)
                   for x in xs)

    return matched(bp, br) and matched(br, bp)


@dataclass
class ErgodicReport:
    is_ergodic: bool
    algebra_dim: int
    group_order: int


def ergodic_bound_check(action, tol: float = DEFAULT_TOL) -> ErgodicReport:
    """Whether a group action on an algebra has only scalar fixed points.

    For an ergodic action of a finite group the algebra dimension is bounded
    by the group order; the function asserts that bound.
    """
    fixed = action.fixed_space(tol)
    is_ergodic = fixed.shape[0] == 1
    report = ErgodicReport(is_ergodic, action.algebra.dim, action.group.order)
    if is_ergodic and report.algebra_dim > report.group_order:
        raise VerificationError(
            "ergodic action with algebra dimension above the group order")
    return report
