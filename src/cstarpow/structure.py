"""Wedderburn analysis of concrete *-closed matrix algebras.

Commutants, centers, minimal central projections, and equivalence tests for
representations given by the images of an algebra basis.  Large solves use a
randomized shortcut: the commutant of a *-closed family equals the commutant
of one or two generic linear combinations with probability one, so we solve
against combinations and then verify the result against the whole family,
falling back to the full linear system if the verification fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DegenerateDrawError
from .linalg import (DEFAULT_TOL, SPECTRAL_GAP, adjoint, cluster_eigenvalues,
                     eig_hermitian, nullspace, orthonormal_columns)

# Largest ambient size for which dense commutation operators (size N^2 x N^2
# blocks stacked) are materialized; beyond this the factorizations dominate
# the runtime badly.  Block structure of larger algebras should be computed
# through minimal_central_projections instead.
MAX_COMMUTANT_AMBIENT = 40

# Basis pairs checked for product closure of a span (all pairs up to this
# many, a fixed-seed sample of this many beyond), and family members a
# commutant candidate is verified against (a fixed-seed sample beyond).
_CLOSURE_CHECK_PAIRS = 400
_VERIFY_MAX_MEMBERS = 256


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
    """Commutant of a spanned algebra or matrix family in its ambient space.

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
    constraints = list(gens) if gens.shape[0] <= 4 else _random_combos(gens, rng, 1)
    for attempt in range(3):
        stacked = np.concatenate(
            [_commutation_operator(m) for m in constraints], axis=0)
        basis = nullspace(stacked, tol).T.reshape(-1, n, n)
        if _verify_commutant(basis, fam, tol):
            break
        constraints.extend(_random_combos(gens, rng, 1))
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

    if d * (nr * np_) ** 2 <= 30_000_000:
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


def minimal_central_projections(s: SpannedAlgebra, seed: int = 0,
                                tol: float = DEFAULT_TOL,
                                gap: float = SPECTRAL_GAP) -> WedderburnReport:
    """Wedderburn data of a *-closed span via a random central element.

    Draws a random Hermitian element of the center, clusters its eigenvalues
    (threshold ``gap``), and takes the spectral projections; a generic draw
    separates the minimal central projections with probability one.  Retries
    with fresh seeds on degenerate draws, failing after five attempts.
    """
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
        # real span of the Hermitian parts of the center
        herm = np.concatenate([(center + np.conj(np.transpose(center, (0, 2, 1)))) / 2,
                               (center - np.conj(np.transpose(center, (0, 2, 1)))) / 2j],
                              axis=0)
        z = np.tensordot(rng.standard_normal(herm.shape[0]), herm, axes=(0, 0))
        w, v = eig_hermitian(z, max(tol, 1e-8))
        try:
            report = _projections_from_spectrum(s, w, v, tol, gap)
        except DegenerateDrawError as exc:
            last_error = str(exc)
            continue
        return report
    raise DegenerateDrawError(
        f"central projection extraction failed after 5 seeds: {last_error}")


def _projections_from_spectrum(s: SpannedAlgebra, w, v, tol, gap):
    basis = s.span_basis
    projections, dims, mults = [], [], []
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
        projections.append(proj)
        dims.append(d)
        mults.append(rank // d)
    if sum(d * d for d in dims) != s.dim:
        raise DegenerateDrawError("block dimensions do not add up to the span")
    order = sorted(range(len(dims)), key=lambda i: (dims[i], mults[i]))
    return WedderburnReport([projections[i] for i in order],
                            [dims[i] for i in order],
                            [mults[i] for i in order])


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
        raise AssertionError(
            "ergodic action with algebra dimension above the group order")
    return report
