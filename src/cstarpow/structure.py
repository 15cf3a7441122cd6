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
family's with probability one.  Candidates are verified against a generic
combination of the whole family and its adjoint, which exposes a failing
member with probability one (the idea of Freivalds' check, IFIP 1977); a
failing draw is retried with added combinations, and an exhaustive solve is
the last resort.  The center solve runs through the same loop, and the size
guard bounds each system built.  Intertwiners and equivalence are read off
the corners of the commutant of pi (+) rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DegenerateDrawError, VerificationError
from .linalg import (DEFAULT_TOL, SPECTRAL_GAP, adjoint, cluster_eigenvalues,
                     direct_sum, eig_hermitian, matrix_rank, nullspace,
                     orthonormal_columns)

# Largest ambient size of the dense last-resort commutation system (N^2 x
# N^2 per member); the eigenbasis system (N^2 rows per constraint, one column
# per unknown) may have as many entries as one member's dense system here.
MAX_COMMUTANT_AMBIENT = 40


def _as_family(mats) -> np.ndarray:
    fam = np.asarray(mats, dtype=complex)
    if fam.ndim != 3 or fam.shape[1] != fam.shape[2]:
        raise ValueError("expected a family of square matrices")
    return fam


@dataclass
class SpannedAlgebra:
    """A *-closed, product-closed linear span of matrices, held as an
    orthonormal basis: as labels when its members have disjoint supports
    (for each of the n^2 entries, ``owner`` is the member covering it, -1 if
    none, and ``normalized`` that unit-norm member's entry), else as the
    vectorized rows ``onb``.  ``span_basis`` builds the basis matrices from
    that form on each read.  ``generators`` is an optional smaller family in
    the span generating it as an algebra, used to speed up commutation
    solves.
    """

    ambient: int
    generators: np.ndarray | None = None
    onb: np.ndarray | None = None
    owner: np.ndarray | None = None
    normalized: np.ndarray | None = None

    @property
    def dim(self) -> int:
        if self.onb is not None:
            return self.onb.shape[0]
        return int(self.owner.max(initial=-1)) + 1

    @property
    def span_basis(self) -> np.ndarray:
        rows = self.onb if self.onb is not None else np.where(
            self.owner == np.arange(self.dim)[:, None], self.normalized, 0)
        return rows.reshape(-1, self.ambient, self.ambient)

    def coordinates(self, mats) -> np.ndarray:
        """The (count, dim) coefficients on the orthonormal basis of the
        projections onto the span of a matrix or a stack of them."""
        v = np.asarray(mats, dtype=complex).reshape(-1, self.ambient ** 2)
        if self.onb is not None:
            # onb.conj() without copying the onb matrix
            return np.conj(np.conj(v) @ self.onb.T)
        # member i's coefficient sums conj(w) v over its entries; column 0
        # gathers the uncovered entries, where w is zero
        k, p = self.owner + 1, v * np.conj(self.normalized)
        return np.stack([np.bincount(k, r.real, self.dim + 1)
                         + 1j * np.bincount(k, r.imag, self.dim + 1)
                         for r in p])[:, 1:]

    def contains(self, mat, tol: float = DEFAULT_TOL,
                 scale: float | None = None) -> bool:
        """Whether the distance from the span is at most tol times
        ``scale``, by default max(1, |mat|) in the Frobenius norm."""
        v = np.asarray(mat, dtype=complex).ravel()
        coef = self.coordinates(v)[0]
        if self.onb is None:
            # uncovered entries read any coefficient, times w = 0
            resid = v - self.normalized * np.append(coef, 0)[self.owner]
        else:
            resid = v - coef @ self.onb
        if scale is None:
            scale = max(1.0, float(np.linalg.norm(v)))
        return float(np.linalg.norm(resid)) <= tol * scale


def label_span(n: int, member, entry, values,
               generators=None) -> SpannedAlgebra:
    """The label span on ambient n of members 0, 1, ... with disjoint,
    nonempty supports (not checked), given as triplets: member ``member[t]``
    has value ``values[t]`` at the flat entry ``entry[t]``."""
    norms = np.sqrt(np.bincount(member, np.abs(values) ** 2))
    out = SpannedAlgebra(n, generators, owner=np.full(n * n, -1),
                         normalized=np.zeros(n * n, dtype=complex))
    out.owner[entry] = member
    out.normalized[entry] = values / norms[member]
    return out


def spanned_algebra(mats, tol: float = DEFAULT_TOL, generators=None,
                    check: bool = True, seed: int = 0) -> SpannedAlgebra:
    """Build a SpannedAlgebra from a spanning family.

    A family with no zero member and no entry nonzero in two members is
    pairwise orthogonal; its normalized members are the basis, kept as
    labels by ``label_span``.  Any other family is factored once by an SVD,
    and the orthonormal rows of its span are the basis.  Verifies closure
    under adjoints and products at generic members x = sum c_i b_i and
    y = sum e_j b_j drawn from ``seed``: x* and xy are linear and bilinear in
    the basis, so one outside the span shows with probability one; the
    basis is orthonormal, so the bounds are not scaled by x or y.
    """
    fam = _as_family(mats)
    n = fam.shape[1]
    vecs = fam.reshape(fam.shape[0], n * n)
    gens = None if generators is None else _as_family(generators)
    nz = vecs != 0
    if np.all(np.any(nz, axis=1)) and \
            np.max(np.count_nonzero(nz, axis=0), initial=0) <= 1:
        member, entry = np.nonzero(nz)
        out = label_span(n, member, entry, vecs[member, entry], gens)
    else:
        out = SpannedAlgebra(n, gens, onb=orthonormal_columns(vecs.T, tol).T)
    if check:
        rng = np.random.default_rng(seed)
        basis = out.span_basis
        c = rng.standard_normal((2, basis.shape[0])) \
            + 1j * rng.standard_normal((2, basis.shape[0]))
        x, y = np.tensordot(c, basis, axes=(1, 0))
        if not out.contains(adjoint(x), tol, 1.0):
            raise ValueError("span is not closed under adjoints")
        if not out.contains(x @ y, tol, 1.0):
            raise ValueError("span is not closed under products")
    return out


# ---------------------------------------------------------------------------
# commutants

# A family given as blocks is a tuple of families with one member count whose
# members are the block-diagonal sums of theirs, built only where needed.

def _random_combos(blocks, rng, count: int) -> list[np.ndarray]:
    """Generic complex combinations of a family, each paired with its adjoint."""
    out = []
    for _ in range(count):
        d = blocks[0].shape[0]
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        m = direct_sum([np.tensordot(c, f, axes=(0, 0)) for f in blocks])
        out.extend([m, m.conj().T])
    return out


def _members(blocks) -> np.ndarray:
    return np.stack([direct_sum(ms) for ms in zip(*blocks)])


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


def _verify_commutant(cands: np.ndarray, blocks, tol: float, rng) -> bool:
    """Whether every candidate commutes with a generic combination of the
    whole family and its adjoint, drawn from ``rng`` after the constraints:
    the commutator is linear, so any failing member shows."""
    if cands.shape[0] == 0:
        return True
    probe = np.stack(_random_combos(blocks, rng, 1))
    # scaled by the members, not the probe: one failing member adds about
    # its coefficient times its own commutator, whatever the family's size
    scale = max(1.0, *(float(np.max(np.abs(f), initial=0.0)) for f in blocks)) \
        * max(1.0, float(np.max(np.abs(cands))))
    for c in cands:
        worst = np.max(np.abs(c @ probe - probe @ c))
        if worst > 100 * tol * scale:
            return False
    return True


def _verified_solve(gens, fam, rng, solve, exhaustive, tol: float) -> np.ndarray:
    """Draw -> solve -> verify -> redraw -> exhaustive: up to four
    generators with their adjoints, or else a generic combination and its
    adjoint, are the constraints of ``solve``; two more draws each add a
    combination, and ``exhaustive()`` follows the third failure.  ``gens``
    and ``fam`` are given as blocks."""
    if gens[0].shape[0] <= 4:
        members = _members(gens)
        constraints = np.concatenate(
            [members, np.conj(np.transpose(members, (0, 2, 1)))])
    else:
        constraints = np.stack(_random_combos(gens, rng, 1))
    for _ in range(3):
        cands = solve(constraints)
        if _verify_commutant(cands, fam, tol, rng):
            return cands
        constraints = np.concatenate(
            [constraints, np.stack(_random_combos(gens, rng, 1))])
    return exhaustive()


def commutant(s, tol: float = DEFAULT_TOL, seed: int = 0) -> SpannedAlgebra:
    """Commutant of a *-closed spanned algebra or matrix family in its
    ambient space.

    The family must be closed under adjoints (up to span): the solve keeps
    only what commutes with a Hermitian element built from the members and
    their adjoints, which for a family that is not *-closed can drop part of
    its commutant.  A SpannedAlgebra's generators must generate it as a
    *-algebra.  Each draw of ``_verified_solve`` takes a random real
    combination H of the Hermitian parts of the constraints, H = V D V*, and
    solves [X', V* m V] = 0 for the unknown X' = V* X V restricted to the
    blocks of the eigenvalue clusters of H; the dense commutation system of
    the whole family is the last resort.  BudgetError is raised when the
    eigenbasis system exceeds MAX_COMMUTANT_AMBIENT^4 entries or the dense
    one is needed above ambient MAX_COMMUTANT_AMBIENT.

    Returns a SpannedAlgebra; the double commutant of a unital *-closed span
    recovers the span itself at these (finite) sizes.
    """
    if isinstance(s, SpannedAlgebra):
        fam = s.span_basis
        gens = s.generators if s.generators is not None else fam
    else:
        fam = gens = _as_family(s)
    return spanned_algebra(_commutant_basis((gens,), (fam,), tol, seed), tol,
                           check=False)


def _commutant_basis(gens, fam, tol: float, seed: int) -> np.ndarray:
    """Orthonormal basis of the commutant of ``fam``, generated as a
    *-algebra by ``gens``, both given as blocks; see ``commutant``."""
    n = sum(f.shape[1] for f in fam)
    rng = np.random.default_rng(seed)

    def eigenbasis_solve(constraints):
        herm = _hermitian_parts(constraints)
        h = np.tensordot(rng.standard_normal(herm.shape[0]), herm, axes=(0, 0))
        w, v = eig_hermitian(h, tol)
        clusters = cluster_eigenvalues(
            w, SPECTRAL_GAP * max(1.0, float(np.max(np.abs(w)))))
        # unknowns: the entries (rows[u], cols[u]) of X' inside one cluster's
        # block; [E_ij, m] has m[j, :] in row i and -m[:, i] in column j
        rows = np.concatenate([np.repeat(c, len(c)) for c in clusters])
        cols = np.concatenate([np.tile(c, len(c)) for c in clusters])
        if rows.size * n * n > MAX_COMMUTANT_AMBIENT ** 4:
            raise BudgetError(f"eigenbasis commutant system of {rows.size} "
                              f"unknowns on ambient {n} is too large")
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
        return np.matmul(v, reduced @ v.conj().T)

    def dense_solve():
        if n > MAX_COMMUTANT_AMBIENT:
            raise BudgetError(
                f"dense commutant solve limited to ambient {MAX_COMMUTANT_AMBIENT}")
        stacked = np.concatenate(
            [_commutation_operator(m) for m in _members(fam)], axis=0)
        return nullspace(stacked, tol).T.reshape(-1, n, n)

    return _verified_solve(gens, fam, rng, eigenbasis_solve, dense_solve, tol)


def commutant_dimension(family, tol: float = DEFAULT_TOL, seed: int = 0) -> int:
    return commutant(family, tol, seed).dim


# ---------------------------------------------------------------------------
# intertwiners and equivalence

def _commutant_corners(pi, rho, tol: float, seed: int):
    """Orthonormal bases of the corners (1, 1), (2, 1) and (2, 2) of the
    commutant of pi (+) rho: pi', Hom(pi, rho) and rho'.  The block
    projections lie in the commutant, so the corners are orthogonal summands
    and the cuts of its basis span them.  The basis is orthonormal, so each
    cut's singular values are 1 on its corner and round-off elsewhere; they
    are ranked against 1, since a zero corner's cut holds only round-off."""
    pi, rho = _as_family(pi), _as_family(rho)
    if pi.shape[0] != rho.shape[0]:
        raise ValueError("the two representations must share a basis")
    p = pi.shape[1]
    basis = _commutant_basis((pi, rho), (pi, rho), tol, seed)
    corners = []
    for cut in (basis[:, :p, :p], basis[:, p:, :p], basis[:, p:, p:]):
        q = orthonormal_columns(cut.reshape(cut.shape[0], -1).T, tol,
                                scale=1.0)
        corners.append(q.T.reshape(-1, *cut.shape[1:]))
    return corners


def intertwiner_space(pi, rho, tol: float = DEFAULT_TOL,
                      seed: int = 0) -> np.ndarray:
    """Orthonormal basis of {T : T pi(b) = rho(b) T for every basis element b}.

    ``pi`` and ``rho`` are *-representations on the same algebra basis; the
    space is the (2, 1) corner of the commutant of pi (+) rho, so the size
    guards of ``commutant`` apply on ambient dim pi + dim rho (a pair of high
    multiplicity, such as two copies of I_21, raises BudgetError).  Returns
    an array of shape (k, dim rho, dim pi).
    """
    return _commutant_corners(pi, rho, tol, seed)[1]


def equivalent(pi, rho, tol: float = DEFAULT_TOL, seed: int = 0) -> bool:
    """Unitary equivalence of two *-representations given on the same basis.

    With multiplicity vectors m and n over the irreducible types (the zero
    representation counted as one more type), the corners of the commutant
    of pi (+) rho have dimensions sum m^2, sum m n and sum n^2, and by
    Cauchy-Schwarz the three are equal iff m = n.
    """
    if _as_family(pi).shape[1] != _as_family(rho).shape[1]:
        return False
    dims = {c.shape[0] for c in _commutant_corners(pi, rho, tol, seed)}
    return len(dims) == 1


def is_irreducible(pi, tol: float = DEFAULT_TOL, seed: int = 0) -> bool:
    return commutant_dimension(_as_family(pi), tol, seed) == 1


def is_factor(pi, tol: float = DEFAULT_TOL, seed: int = 0) -> bool:
    """Whether the generated von Neumann algebra has trivial center.

    At finite dimension this is the condition that the center of the
    commutant is the scalars.
    """
    comm = commutant(_as_family(pi), tol, seed)
    basis = comm.span_basis
    return _center_basis(comm, basis, basis, tol).shape[0] == 1


# ---------------------------------------------------------------------------
# centers and minimal central projections

def _center_basis(s: SpannedAlgebra, basis: np.ndarray,
                  constraints: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the elements sum_j x_j basis_j of the span
    (``basis`` is ``s.span_basis``) that commute with the constraints.

    The constraints lie in the span, so each commutator [basis_j, m] does
    too, and its span coordinates keep its norm: the system for x keeps the
    singular values of the commutator system over all n^2 entries.  The
    cutoff scales with the constraints (columns are at most 2|m|), since a
    commutative span's system is round-off.
    """
    scale = 2 * float(np.max(np.linalg.norm(constraints, axis=(1, 2))))
    xi = nullspace(np.concatenate(
        [s.coordinates(basis @ m - m @ basis).T for m in constraints]), tol,
        scale=scale)
    return np.tensordot(xi.T, basis, axes=(1, 0))


@dataclass
class WedderburnReport:
    """Minimal central projections with per-block dimension and multiplicity.

    ``blocks[j]`` is (indices, projection), the j-th projection on the
    ambient indices outside which it vanishes.  ``block_dims[j]`` is the
    size of the j-th simple summand of the algebra and ``multiplicities[j]``
    how often its defining representation occurs in the ambient space, so
    rank(projection) = block_dim * multiplicity and the squared block dims
    sum to the linear dimension of the span.
    """

    ambient: int
    blocks: list
    block_dims: list
    multiplicities: list

    @property
    def central_projections(self) -> list:
        """The projections as ambient matrices, built on each read."""
        out = []
        for idx, proj in self.blocks:
            full = np.zeros((self.ambient, self.ambient), dtype=complex)
            full[idx[:, None], idx] = proj
            out.append(full)
        return out


def _support_components(n: int, owner: np.ndarray
                        ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Connected components of the ambient indices under the supports of a
    label span on ambient n (``owner`` as in SpannedAlgebra).

    A union-find over the ambient indices joins the row and column index
    divmod(entry, n) of every entry a member owns: each round hooks the root
    of every touched index onto the least root its members meet and then
    compresses paths, until no root moves.  Each member then lies in the
    square block of one component, and the span is the direct sum of the
    spans of each component's members.  Returns (indices, members) per
    component; indices that no member touches form no component.
    """
    entry = np.flatnonzero(owner >= 0)
    touched = np.zeros((int(owner.max(initial=-1)) + 1, n), dtype=bool)
    touched[np.tile(owner[entry], 2), np.concatenate(np.divmod(entry, n))] = 1
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


def minimal_central_projections(s: SpannedAlgebra, seed: int = 0,
                                tol: float = DEFAULT_TOL,
                                gap: float = SPECTRAL_GAP) -> WedderburnReport:
    """Wedderburn data of a *-closed span via a random central element.

    A label span is first split into the connected components of its
    members' supports, read from the labels.  Each component's labels on
    its block form a label span of their own, with the generators
    compressed to the block: the span is the direct sum of the component
    spans, so its minimal central projections are the union of theirs, and
    the report keeps each on its component's indices.  A dense span is one
    component.  Per component, the center is solved in span coordinates,
    through the same verified loop as the commutant; a random Hermitian
    element of it is drawn, its eigenvalues clustered (threshold ``gap``),
    and the spectral projections taken.  A generic draw separates the
    minimal central projections with probability one; degenerate central
    elements are redrawn, failing after five draws.
    """
    parts = [(np.arange(s.ambient), s)]
    if s.onb is None:
        parts = []
        for idx, members in _support_components(s.ambient, s.owner):
            flat = (idx[:, None] * s.ambient + idx).ravel()
            local = np.flatnonzero(s.owner[flat] >= 0)
            gens = None if s.generators is None \
                else s.generators[:, idx[:, None], idx]
            parts.append((idx, label_span(
                len(idx), np.searchsorted(members, s.owner[flat[local]]),
                local, s.normalized[flat[local]], gens)))
    found = []
    for idx, sub in parts:
        found += [(d, k, (idx, proj)) for proj, d, k
                  in _component_projections(sub, seed, tol, gap)]
    if sum(f[0] ** 2 for f in found) != s.dim:
        raise DegenerateDrawError("block dimensions do not add up to the span")
    found.sort(key=lambda f: f[:2])
    return WedderburnReport(s.ambient, [f[2] for f in found],
                            [f[0] for f in found], [f[1] for f in found])


def _component_projections(s: SpannedAlgebra, seed, tol, gap):
    basis = s.span_basis
    gens = s.generators if s.generators is not None else basis
    rng = np.random.default_rng(seed)

    center = _verified_solve(
        (gens,), (basis,), rng, lambda c: _center_basis(s, basis, c, tol),
        lambda: _center_basis(s, basis, basis, tol), tol)
    herm = _hermitian_parts(center)
    last_error = "no attempt"
    for attempt in range(5):
        z = np.tensordot(rng.standard_normal(herm.shape[0]), herm, axes=(0, 0))
        w, v = eig_hermitian(z, max(tol, 1e-8))
        try:
            return _projections_from_spectrum(s, basis, w, v, tol, gap)
        except DegenerateDrawError as exc:
            last_error = str(exc)
    raise DegenerateDrawError(
        f"central projection extraction failed after 5 draws: {last_error}")


def _projections_from_spectrum(s: SpannedAlgebra, basis, w, v, tol, gap):
    """(projection, block dim, multiplicity) of each spectral cluster."""
    out = []
    for idx in cluster_eigenvalues(w, gap):
        cols = v[:, idx]
        proj = cols @ cols.conj().T
        if not s.contains(proj, max(tol * 100, 1e-7)):
            # spectral cluster outside the span: only legitimate for the
            # kernel of a non-unital algebra
            if abs(np.mean(w[idx])) > gap \
                    or s.contains(np.eye(s.ambient), tol):
                raise DegenerateDrawError("cluster projection not in the span")
            continue
        rank = int(round(float(np.real(np.trace(proj)))))
        compressed = np.matmul(cols.conj().T, basis @ cols)
        block_sq = matrix_rank(compressed.reshape(basis.shape[0], -1),
                               max(tol, 1e-8))
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
        for idx, proj in rep.blocks:
            w = orthonormal_columns(proj, tol)
            out.append(np.matmul(w.conj().T, fam[:, idx[:, None], idx] @ w))
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
