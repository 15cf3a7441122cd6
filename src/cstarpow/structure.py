"""Wedderburn analysis of concrete *-closed matrix algebras.

Commutants, minimal central projections, and equivalence tests for
representations given by the images of an algebra basis.

Both work in the eigenbasis of a generic Hermitian element H (the generic
step of Murota, Kanno, Kojima & Kojima and of Maehara & Murota, both Japan
J. Indust. Appl. Math. 27 (2010)).  Whatever commutes with a *-closed
family commutes with H, so the commutant is block diagonal over the
eigenvalue clusters of H in its eigenbasis, and only the sum of the squared
cluster sizes are unknowns instead of all N^2 entries.  For commutants H is
generic in the generated *-algebra, not only in the span, and the system is
folded slice by slice into its triangular factor.  Every family is first
replaced by one generic linear combination with its adjoint, whose
commutant equals the family's with probability one.  Candidates are
verified against a generic combination of the whole family and its
adjoint, which exposes a failing member with probability one (the idea of
Freivalds' check, IFIP 1977).  The size guards bound the entries of each
system.  Minimal central projections need no solve: H drawn from the span
itself has the same clusters on each copy of one simple summand, and a
second generic member links exactly the clusters of one summand.  Both
solves redraw through ``_redraw``: each failing commutant draw adds a
combination, the exhaustive solve follows the third, and the Wedderburn
engine has five draws.  Intertwiners and equivalence are read off the
corners of the commutant of pi (+) rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import MAX_DENSE_ENTRIES
from .errors import BudgetError, DegenerateDrawError, VerificationError
from .linalg import (DEFAULT_TOL, SPECTRAL_GAP, Draws, adjoint,
                     cluster_eigenvalues, direct_sum, eig_hermitian,
                     nullspace, orthonormal_columns)

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
    (label t gives unit-norm member ``member[t]`` the value ``weight[t]`` at
    the flat entry ``entry[t]`` of n x n; the entries outside the labels
    are zero), else as the vectorized rows ``onb``.  ``span_basis`` builds
    the basis matrices from that form on each read.
    """

    ambient: int
    onb: np.ndarray | None = None
    member: np.ndarray | None = None
    entry: np.ndarray | None = None
    weight: np.ndarray | None = None

    @property
    def dim(self) -> int:
        if self.onb is not None:
            return self.onb.shape[0]
        return int(self.member.max(initial=-1)) + 1

    @property
    def span_basis(self) -> np.ndarray:
        if self.onb is None:
            return self.combine(np.eye(self.dim))
        return self.onb.reshape(-1, self.ambient, self.ambient)

    def coordinates(self, mats) -> np.ndarray:
        """The (count, dim) coefficients on the orthonormal basis of the
        projections onto the span of a matrix or a stack of them."""
        v = np.asarray(mats, dtype=complex).reshape(-1, self.ambient ** 2)
        if self.onb is not None:
            # onb.conj() without copying the onb matrix
            return np.conj(np.conj(v) @ self.onb.T)
        # member i's coefficient of row t sums conj(w) v over its labels,
        # at the flat index t * dim + i
        size = v.shape[0] * self.dim
        key = (np.arange(v.shape[0])[:, None] * self.dim + self.member).ravel()
        p = (v[:, self.entry] * np.conj(self.weight)).ravel()
        return (np.bincount(key, p.real, size)
                + 1j * np.bincount(key, p.imag, size)).reshape(-1, self.dim)

    def combine(self, coeffs) -> np.ndarray:
        """The (count, n, n) matrices sum_j coeffs[i, j] b_j of the rows of
        a (count, dim) coefficient array."""
        coeffs = np.atleast_2d(coeffs)
        if self.onb is not None:
            flat = coeffs @ self.onb
        else:
            flat = np.zeros((len(coeffs), self.ambient ** 2), dtype=complex)
            flat[:, self.entry] = coeffs[:, self.member] * self.weight
        return flat.reshape(-1, self.ambient, self.ambient)

    def contains(self, mat, tol: float = DEFAULT_TOL,
                 scale: float | None = None) -> bool:
        """Whether the distance from the span is at most tol times
        ``scale``, by default max(1, |mat|) in the Frobenius norm."""
        v = np.asarray(mat, dtype=complex).ravel()
        resid = v - self.combine(self.coordinates(v)).ravel()
        if scale is None:
            scale = max(1.0, float(np.linalg.norm(v)))
        return float(np.linalg.norm(resid)) <= tol * scale


def label_span(n: int, member, entry, values) -> SpannedAlgebra:
    """The label span on ambient n of members 0, 1, ... with disjoint,
    nonempty supports (not checked), given as triplets: member ``member[t]``
    has value ``values[t]`` at the flat entry ``entry[t]``.  The triplets
    are kept, with each member's values scaled to unit norm."""
    norms = np.sqrt(np.bincount(member, np.abs(values) ** 2))
    return SpannedAlgebra(n, member=member, entry=entry,
                          weight=values / norms[member])


def spanned_algebra(mats, tol: float = DEFAULT_TOL, check: bool = True,
                    seed: int = 0) -> SpannedAlgebra:
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
    nz = vecs != 0
    if np.all(np.any(nz, axis=1)) and \
            np.max(np.count_nonzero(nz, axis=0), initial=0) <= 1:
        member, entry = np.nonzero(nz)
        out = label_span(n, member, entry, vecs[member, entry])
    else:
        out = SpannedAlgebra(n, onb=orthonormal_columns(vecs.T, tol).T)
    if check:
        rng = Draws(seed)
        x, y = out.combine(rng.complex_normal((2, out.dim)))
        if not out.contains(adjoint(x), tol, 1.0):
            raise ValueError("span is not closed under adjoints")
        if not out.contains(x @ y, tol, 1.0):
            raise ValueError("span is not closed under products")
    return out


# ---------------------------------------------------------------------------
# commutants

# A family given as blocks is a tuple of families with one member count whose
# members are the block-diagonal sums of theirs, built only where needed.

def _random_combo(blocks, rng) -> np.ndarray:
    """A generic complex combination of a family stacked on its adjoint."""
    c = Draws.complex_normal(rng, blocks[0].shape[0])
    m = direct_sum([np.tensordot(c, f, axes=(0, 0)) for f in blocks])
    return np.stack([m, m.conj().T])


def _hermitian_spectrum(x: np.ndarray, tol: float):
    """(w, v, clusters, gap) of the Hermitian part H = V diag(w) V* of x:
    its eigenvalues clustered at gap = SPECTRAL_GAP max(1, max |w|)."""
    w, v = eig_hermitian((x + adjoint(x)) / 2, tol)
    gap = SPECTRAL_GAP * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    return w, v, cluster_eigenvalues(w, gap), gap


def _redraw(solve: str, attempts):
    """The result of the first of the ordered callables ``attempts`` that
    raises no DegenerateDrawError, else one naming the solve, the number of
    draws and the last failure."""
    for count, attempt in enumerate(attempts, 1):
        try:
            return attempt()
        except DegenerateDrawError as exc:
            failure = exc
    raise DegenerateDrawError(f"{solve} failed after {count} draws: {failure}")


def _commutation_operator(m: np.ndarray) -> np.ndarray:
    """Matrix of X -> Xm - mX on row-major vectorized X."""
    n = m.shape[0]
    eye = np.eye(n)
    return np.kron(eye, m.T) - np.kron(m, eye)


_SYSTEM_CHUNK = 1 << 18  # most entries of a system slice, unless one row


def _eigenbasis_system(constraints, v, rows, cols):
    """Slices of rows lo:hi of [X', V* m V] = 0 for each constraint m, in
    the unknowns X'[rows[u], cols[u]]: [E_rc, m] has m[c, :] in row r and
    -m[:, r] in column c."""
    n, unknowns = v.shape[0], np.arange(rows.size)
    step = max(1, _SYSTEM_CHUNK // (n * rows.size))
    for c in constraints:
        m = v.conj().T @ c @ v
        for lo in range(0, n, step):
            op = np.zeros((min(step, n - lo), n, rows.size), dtype=complex)
            mine = (lo <= rows) & (rows < lo + step)
            op[rows[mine] - lo, :, unknowns[mine]] = m[cols[mine], :]
            op[:, cols, unknowns] -= m[lo:lo + step, rows]
            yield op.reshape(-1, rows.size)


def _verify_commutant(cands: np.ndarray, blocks, tol: float, rng) -> bool:
    """Whether every candidate commutes with a generic combination of the
    whole family and its adjoint, drawn from ``rng`` after the constraints:
    the commutator is linear, so any failing member shows."""
    if cands.shape[0] == 0:
        return True
    probe = _random_combo(blocks, rng)
    # scaled by the members, not the probe: one failing member adds about
    # its coefficient times its own commutator, whatever the family's size
    scale = max(1.0, *(float(np.max(np.abs(f), initial=0.0)) for f in blocks)) \
        * max(1.0, float(np.max(np.abs(cands))))
    return not any(np.max(np.abs(c @ probe - probe @ c)) > 100 * tol * scale
                   for c in cands)


def commutant(s, tol: float = DEFAULT_TOL, seed: int = 0) -> SpannedAlgebra:
    """Commutant of a *-closed spanned algebra or matrix family in its
    ambient space.

    The family must be closed under adjoints (up to span): the solve keeps
    only what commutes with a Hermitian element built from the members and
    their adjoints, which for a family that is not *-closed can drop part of
    its commutant.  The constraints start as one generic combination m of
    the family and its adjoint m*.  Each draw of ``_commutant_basis`` takes
    for H the Hermitian part of x + ab, x, a, b generic combinations of the
    constraints, so generic in the *-algebra they generate; with H = V D V*
    it solves [X', V* m V] = 0 for X' = V* X V on the blocks of the
    eigenvalue clusters of H, in row slices that ``nullspace`` folds into
    one R factor.  Three such draws, each after a failed verification with
    one more pair of constraints, are followed by the dense system of the
    whole family as the last resort.
    BudgetError is raised when the eigenbasis system exceeds
    MAX_COMMUTANT_AMBIENT^4 entries (a bound on work, not memory held) or
    the dense one is needed above ambient MAX_COMMUTANT_AMBIENT or above
    MAX_DENSE_ENTRIES entries (members x N^4).

    Returns a SpannedAlgebra on the solve's orthonormal basis; the double
    commutant of a unital *-closed span recovers the span itself at these
    (finite) sizes.
    """
    fam = s.span_basis if isinstance(s, SpannedAlgebra) else _as_family(s)
    basis = _commutant_basis((fam,), tol, seed)
    return SpannedAlgebra(fam.shape[1], onb=basis.reshape(basis.shape[0], -1))


def check_commutant_work(unknowns: int, n: int):
    """Refuse an eigenbasis commutant system, n^2 rows per constraint and
    one column per unknown, over MAX_COMMUTANT_AMBIENT^4 entries."""
    if unknowns * n * n > MAX_COMMUTANT_AMBIENT ** 4:
        raise BudgetError(f"eigenbasis commutant system of {unknowns} "
                          f"unknowns on ambient {n} is too large")


def _commutant_basis(blocks, tol: float, seed: int) -> np.ndarray:
    """Orthonormal basis of the commutant of a family given as blocks; see
    ``commutant``.  The constraints start as a generic pair m, m*, and each
    failed ``_verify_commutant`` adds another; three eigenbasis draws and
    then the dense system of the whole family are the attempts of
    ``_redraw``."""
    n = sum(f.shape[1] for f in blocks)
    rng = Draws(seed)
    constraints = _random_combo(blocks, rng)

    def eigenbasis_draw():
        nonlocal constraints
        # x + ab is generic in the generated *-algebra; x alone, from the
        # span, may repeat eigenvalues (as Lie algebra weights do)
        x, a, b = np.tensordot(rng.complex_normal((3, len(constraints))),
                               constraints, axes=(1, 0))
        _, v, clusters, _ = _hermitian_spectrum(x + a @ b, tol)
        # unknowns: the entries (rows[u], cols[u]) of X' in one cluster's block
        rows = np.concatenate([np.repeat(c, len(c)) for c in clusters])
        cols = np.concatenate([np.tile(c, len(c)) for c in clusters])
        check_commutant_work(rows.size, n)
        scale = 2 * float(np.max(np.linalg.norm(constraints, 2, axis=(1, 2))))
        coeffs = nullspace(_eigenbasis_system(constraints, v, rows, cols),
                           tol, scale=scale)
        reduced = np.zeros((coeffs.shape[1], n, n), dtype=complex)
        reduced[:, rows, cols] = coeffs.T
        cands = np.matmul(v, reduced @ v.conj().T)
        if _verify_commutant(cands, blocks, tol, rng):
            return cands
        constraints = np.concatenate([constraints, _random_combo(blocks, rng)])
        raise DegenerateDrawError("a candidate fails the commutation probe")

    def dense_solve():
        if n > MAX_COMMUTANT_AMBIENT or \
                len(blocks[0]) * n ** 4 > MAX_DENSE_ENTRIES:
            raise BudgetError(f"dense commutant system of {len(blocks[0])} "
                              f"members on ambient {n} is too large")
        stacked = np.concatenate([_commutation_operator(direct_sum(ms))
                                  for ms in zip(*blocks)], axis=0)
        return nullspace(stacked, tol).T.reshape(-1, n, n)

    return _redraw("commutant solve", [eigenbasis_draw] * 3 + [dense_solve])


# ---------------------------------------------------------------------------
# intertwiners and equivalence

def _pair(pi, rho):
    """Two representations as families on one algebra basis."""
    pi, rho = _as_family(pi), _as_family(rho)
    if pi.shape[0] != rho.shape[0]:
        raise ValueError("the two representations must share a basis")
    return pi, rho


def intertwiner_space(pi, rho, tol: float = DEFAULT_TOL,
                      seed: int = 0) -> np.ndarray:
    """Orthonormal basis of {T : T pi(b) = rho(b) T for every basis element b}.

    ``pi`` and ``rho`` are *-representations on the same algebra basis; the
    space is the (2, 1) corner of the commutant of pi (+) rho, so the size
    guards of ``commutant`` apply on ambient dim pi + dim rho (a pair of high
    multiplicity, such as two copies of I_21, raises BudgetError).  The
    block projections lie in the commutant, so the (2, 1) cut of its
    orthonormal basis spans the corner, with singular values 1 on it and
    round-off elsewhere; they are ranked against 1, since a zero corner's
    cut holds only round-off.  Returns an array of shape
    (k, dim rho, dim pi).
    """
    pi, rho = _pair(pi, rho)
    p = pi.shape[1]
    cut = _commutant_basis((pi, rho), tol, seed)[:, p:, :p]
    q = orthonormal_columns(cut.reshape(cut.shape[0], -1).T, tol, scale=1.0)
    return q.T.reshape(-1, *cut.shape[1:])


def equivalent(pi, rho, tol: float = DEFAULT_TOL, seed: int = 0) -> bool:
    """Unitary equivalence of two *-representations given on the same basis.

    With multiplicity vectors m and n over the irreducible types (the zero
    representation counted as one more type), the corners (1, 1), (2, 1)
    and (2, 2) of the commutant of pi (+) rho have dimensions sum m^2,
    sum m n and sum n^2, and by Cauchy-Schwarz the three are equal iff
    m = n.  The block projections E_i lie in the commutant, so the cut
    b -> E_i b E_j is an orthogonal projection of it, and the dimension of
    its corner is its trace sum_k |E_i b_k E_j|_F^2 over the orthonormal
    basis.  A trace farther than max(100 tol, 1e-7) times the commutant's
    dimension from an integer raises DegenerateDrawError.
    """
    if _as_family(pi).shape[1] != _as_family(rho).shape[1]:
        return False
    pi, rho = _pair(pi, rho)
    p = pi.shape[1]
    basis = _commutant_basis((pi, rho), tol, seed)
    bound = max(tol * 100, 1e-7) * basis.shape[0]
    dims = set()
    for cut in (basis[:, :p, :p], basis[:, p:, :p], basis[:, p:, p:]):
        trace = float(np.sum(np.abs(cut) ** 2))
        if abs(trace - round(trace)) > bound:
            raise DegenerateDrawError(
                f"commutant corner has trace {trace:.6g}, not an integer")
        dims.add(round(trace))
    return len(dims) == 1


# ---------------------------------------------------------------------------
# minimal central projections

# Most entry pairs held at once by the label form of the block dimensions.
PAIR_CHUNK = 1 << 20


def _line_pairs(line: np.ndarray):
    """All ordered pairs (e, f) of positions on a common line, line[e] ==
    line[f], yielded as two index arrays per group of consecutive lines;
    a group holds at most PAIR_CHUNK pairs, or one line that alone holds
    more."""
    order = np.argsort(line, kind="stable")
    # the distinct lines numbered 0, 1, ... along the sorted positions
    ids = np.cumsum(np.diff(line[order], prepend=line[order[:1]]) != 0)
    counts = np.bincount(ids)
    ends = np.cumsum(counts)
    pairs = counts.astype(np.int64) ** 2
    total = np.cumsum(pairs)
    lo = 0
    while lo < counts.size:
        hi = max(lo + 1, int(np.searchsorted(
            total, total[lo] - pairs[lo] + PAIR_CHUNK, side="right")))
        part = slice(ends[lo] - counts[lo], ends[hi - 1])
        f, reps = order[part], counts[ids[part]]
        # the partners of the i-th f fill reps[i] consecutive slots
        first = ends[ids[part]] - reps - (np.cumsum(reps) - reps)
        yield order[np.repeat(first, reps) + np.arange(reps.sum())], \
            np.repeat(f, reps)
        lo = hi


def _basis_gram(s: SpannedAlgebra) -> np.ndarray:
    """G = sum_j b_j b_j^* over the orthonormal basis, so that tr(P G) =
    sum_j |P b_j|_F^2 for any projection P.

    The rows of a dense span give G as one product.  On labels, G[r_e, r_f]
    sums w_e conj(w_f) over the pairs of entries of one member on a common
    column.
    """
    n = s.ambient
    if s.onb is not None:
        rows = s.span_basis.transpose(1, 0, 2).reshape(n, -1)
        return rows @ rows.conj().T
    row, col = np.divmod(s.entry, n)
    out = np.zeros(n * n, dtype=complex)
    for e, f in _line_pairs(s.member * n + col):
        key, vals = row[e] * n + row[f], s.weight[e] * np.conj(s.weight[f])
        out += np.bincount(key, vals.real, n * n) \
            + 1j * np.bincount(key, vals.imag, n * n)
    return out.reshape(n, n)


@dataclass
class WedderburnReport:
    """Minimal central projections with per-block dimension and multiplicity.

    ``blocks[j]`` is (indices, projection), the j-th projection on the
    ambient indices outside which it vanishes; projections are read-only,
    and alike components share one.  ``block_dims[j]`` is the size of the
    j-th simple summand of the algebra and ``multiplicities[j]`` how often
    its defining representation occurs in the ambient space (on
    ``symmetric_power_span``, in one sorted block sequence per S_n-orbit),
    so rank(projection) = block_dim * multiplicity and the squared block
    dims sum to the linear dimension of the span."""

    ambient: int
    blocks: list
    block_dims: list
    multiplicities: list


def _support_components(n: int, member: np.ndarray, entry: np.ndarray
                        ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Connected components of the ambient indices under the supports of a
    label span on ambient n (``member`` and ``entry`` as in SpannedAlgebra).

    A union-find over the ambient indices joins the row and the column
    divmod(entry, n) of every label to ``anchor``, one row of the same
    member (whichever the scatter keeps): each round hooks the two roots of
    every such edge onto the lesser and then compresses paths, until no
    root moves.  Each member then lies in
    the square block of one component, and the span is the direct sum of
    the spans of each component's members.  Returns (indices, members,
    labels) per component; indices that no label touches form no
    component.
    """
    row, col = np.divmod(entry, n)
    anchor = np.zeros(int(member.max(initial=-1)) + 1, dtype=np.intp)
    anchor[member] = row
    edges = np.stack([np.tile(anchor[member], 2), np.concatenate([row, col])])
    roots = np.arange(n)
    while True:
        hooked, ends = roots.copy(), roots[edges]
        np.minimum.at(hooked, ends.ravel(), np.tile(ends.min(axis=0), 2))
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, roots):
            break
        roots = hooked
    member_root, label_root = roots[anchor], roots[row]
    # bincount, not np.unique: that imports numpy.ma on its first call
    return [(np.flatnonzero(roots == c), np.flatnonzero(member_root == c),
             np.flatnonzero(label_root == c))
            for c in np.flatnonzero(np.bincount(member_root, minlength=n)[:n])]


def minimal_central_projections(s: SpannedAlgebra, seed: int = 0,
                                tol: float = DEFAULT_TOL) -> WedderburnReport:
    """Wedderburn data of a *-closed span from two generic members.

    A label span is first split into the connected components of its
    members' supports, read from the labels.  Each component's labels on
    its block form a label span of their own: the span is the direct sum of
    the component spans, so its minimal central projections are the union
    of theirs, and the report keeps each on its component's indices.  A
    dense span is one component.  Components with equal label arrays (of
    equal ambient and label count, compared in place) are solved once and
    share their read-only projections: each solve draws from a fresh
    ``Draws(seed)``, so it depends on the labels alone.  Per component,
    generic members x1 and x2 are drawn and the eigenvalues of
    H = (x1 + x1*)/2 clustered; x2 links the clusters of one simple
    summand, and each linked component of clusters sums to one minimal
    central projection, whose block dimension is its cluster count
    (``_projections_from_spectrum``).  Only span members are read, never a
    description of the algebra.  A draw that fails a check is redrawn,
    failing after five draws."""
    parts = [(np.arange(s.ambient), s)]
    if s.onb is None:
        parts = []
        for idx, members, labels in _support_components(
                s.ambient, s.member, s.entry):
            row, col = np.searchsorted(idx, np.divmod(s.entry[labels],
                                                      s.ambient))
            parts.append((idx, label_span(
                len(idx), np.searchsorted(members, s.member[labels]),
                row * len(idx) + col, s.weight[labels])))
    found, solved = [], {}
    for idx, sub in parts:
        alike = solved.setdefault((sub.ambient, sub.onb is None
                                   and sub.entry.size), [])
        result = next((r for other, r in alike if all(
            np.array_equal(getattr(other, f), getattr(sub, f))
            for f in ("member", "entry", "weight"))), None)
        if result is None:
            result = _component_projections(sub, seed, tol)
            alike.append((sub, result))
        found += [(d, k, (idx, proj)) for proj, d, k in result]
    found.sort(key=lambda f: f[:2])
    return WedderburnReport(s.ambient, [f[2] for f in found],
                            [f[0] for f in found], [f[1] for f in found])


def _component_projections(s: SpannedAlgebra, seed, tol):
    rng = Draws(seed)
    gram = _basis_gram(s)

    def draw():
        # x1 for the clusters, x2 for their links, and a commutation probe
        x1, x2, probe = s.combine(rng.complex_normal((3, s.dim)))
        return _projections_from_spectrum(s, gram, x1, x2, probe, tol)

    return _redraw("central projection extraction", [draw] * 5)


def _projections_from_spectrum(s: SpannedAlgebra, gram, x1, x2, probe, tol):
    """(projection, block dim, multiplicity) of each component of the
    eigenvalue clusters of H = (x1 + x1*)/2 = V diag(w) V* linked by x2.

    On a summand M_d (x) I_m of the span, a generic H has d eigenvalues of
    multiplicity m, none shared with another summand.  A generic x2 links
    clusters c, c' (Q_c x2 Q_c' or Q_c' x2 Q_c nonzero, beyond 100 tol
    |x2|) iff they lie in one summand, so each connected component of the
    links sums to a minimal central projection P, with d its cluster count
    and m its cluster size.  For P, b -> P b is the Hilbert-Schmidt
    orthogonal projection of the span onto P A, so d^2 = dim P A =
    sum_j |P b_j|_F^2 = tr(P G), with ``gram`` the G of ``_basis_gram``.
    Each P must lie in the span, have that trace within max(100 tol, 1e-7)
    times the span dimension, a rank divisible by d, and commute with the
    generic ``probe``; the squared block dimensions must sum to the span
    dimension.  A single unlinked cluster outside the span is skipped when
    it is the kernel of a non-unital span.
    """
    bound = max(tol * 100, 1e-7)
    w, v, clusters, gap = _hermitian_spectrum(x1, tol)
    # the clusters are runs of the ascending eigenvalues, so |Q_c x2 Q_c'|^2
    # sums a run-by-run block of x2's squared entries in the eigenbasis
    starts = [c[0] for c in clusters]
    weight = np.add.reduceat(np.add.reduceat(
        np.abs(v.conj().T @ x2 @ v) ** 2, starts, axis=0), starts, axis=1)
    k = len(clusters)
    link = (weight + weight.T > (100 * tol) ** 2 * np.sum(np.abs(x2) ** 2)) \
        | np.eye(k, dtype=bool)
    # the link graph's components are the support components of labels
    # whose member c owns the entries (c, c') of the clusters it links
    out = []
    for comp, _, _ in _support_components(k, np.nonzero(link)[0],
                                          np.flatnonzero(link)):
        idx = np.concatenate([clusters[c] for c in comp])
        cols = v[:, idx]
        proj = cols @ cols.conj().T
        if not s.contains(proj, bound):
            # only legitimate for the kernel of a non-unital algebra
            if len(comp) > 1 or abs(np.mean(w[idx])) > gap \
                    or s.contains(np.eye(s.ambient), tol):
                raise DegenerateDrawError("linked clusters outside the span")
            continue
        d = len(comp)
        block_sq = float(np.real(np.vdot(gram, proj)))
        if abs(block_sq - d * d) > bound * s.dim or idx.size % d != 0:
            raise DegenerateDrawError(
                f"{d} linked clusters give tr(P G) = {block_sq:.6g}")
        if np.linalg.norm(proj @ probe - probe @ proj) \
                > bound * max(1.0, float(np.linalg.norm(probe))):
            raise DegenerateDrawError("linked clusters are not central")
        proj.flags.writeable = False
        out.append((proj, d, idx.size // d))
    if sum(d * d for _, d, _ in out) != s.dim:
        raise DegenerateDrawError("block dimensions do not add up to the span")
    return out


# ---------------------------------------------------------------------------
# ergodicity

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
