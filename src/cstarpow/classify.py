"""Classification of the irreducible representations of symmetric powers.

The irreducible representations of the permutation-fixed part of an n-fold
tensor power of a direct sum of matrix blocks are labelled by descriptors:
a set of distinct blocks, positive multiplicities summing to n, and one
partition per chosen block bounded in length by the block size.  Each
descriptor is realized concretely on a weight space of the product of the
chosen blocks' spaces: the joint eigenspace of the Jucys-Murphy elements of
each block's factors with the contents of one standard tableau of its
partition, which is the multiplicity space of the matching irreducible of
the Young subgroup (Schur-Weyl duality), so no symmetric group element or
matrix is built.  The realization gives the images of the generators
dGamma(e_i) of the symmetric power, one per basis element of the algebra,
not of its orbit-sum basis: they generate the same algebra, so they have
the same commutants and intertwiners.  The Schur-Weyl representations are the descriptors with a
single block of multiplicity n, realized by that same construction.
Homogeneous components of a multiplicative map are recovered by discrete
Fourier inversion, with one evaluation of the map per root of unity at each
point.

The descriptor dimension is the product of semistandard tableau counts, and
the multiset of descriptor dimensions must agree with the numerically
computed block structure of the fixed-point span; `wedderburn_comparison`
returns both lists, from two independent computations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (MAX_DENSE_ENTRIES, FdCStarAlgebra, SymmetricPowerBasis,
                      make_algebra, symmetric_power_basis,
                      symmetric_power_count, tensor_algebra)
from .crossed import GroupAction
from .errors import BudgetError, VerificationError
from .groups import (ProjectiveRep, Subgroup, check_partition, partitions,
                     ssyt_count)
from .linalg import (DEFAULT_TOL, Draws, largest_op_norm, op_norm,
                     orthonormal_columns)
from .structure import (SpannedAlgebra, check_commutant_work, commutant,
                        equivalent, intertwiner_space, label_span,
                        minimal_central_projections)


# ---------------------------------------------------------------------------
# descriptors

@dataclass(frozen=True)
class IrrepDescriptor:
    """Label of one irreducible representation of a symmetric power.

    ``blocks`` are distinct block indices in ascending order (the canonical
    orbit representative), ``q`` the positive multiplicities with sum n, and
    ``lambdas[k]`` a partition of ``q[k]`` with at most ``block size`` rows.
    """

    blocks: tuple
    q: tuple
    lambdas: tuple
    dim: int

    @property
    def degree(self) -> int:
        return sum(self.q)

    def to_json(self) -> dict:
        return {"blocks": list(self.blocks), "q": list(self.q),
                "lambdas": [list(l) for l in self.lambdas], "dim": self.dim}


def _descriptor(algebra: FdCStarAlgebra, blocks, q, lambdas) -> IrrepDescriptor:
    blocks = tuple(int(b) for b in blocks)
    q = tuple(int(x) for x in q)
    lambdas = tuple(check_partition(l) for l in lambdas)
    if len(set(blocks)) != len(blocks) or list(blocks) != sorted(blocks):
        raise ValueError("blocks must be distinct and ascending")
    if len(blocks) != len(q) or len(q) != len(lambdas):
        raise ValueError("blocks, q, lambdas must have equal length")
    if any(x <= 0 for x in q):
        raise ValueError("multiplicities must be positive")
    dim = 1
    for b, qk, lam in zip(blocks, q, lambdas):
        if sum(lam) != qk:
            raise ValueError("each partition must partition its multiplicity")
        if len(lam) > algebra.blocks[b]:
            raise ValueError("partition has more rows than the block size")
        dim *= ssyt_count(lam, algebra.blocks[b])
    return IrrepDescriptor(blocks, q, lambdas, dim)


def enumerate_sn_irreps(algebra: FdCStarAlgebra, n: int) -> list[IrrepDescriptor]:
    """Complete, duplicate-free list of descriptors for degree n.

    The sum of squared dimensions equals the multiset count
    C(dim + n - 1, n), which is checked before returning.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    out = []
    # one sorted block sequence per S_n-orbit: its blocks and their counts
    for beta in itertools.combinations_with_replacement(
            range(len(algebra.blocks)), n):
        chosen = tuple(sorted(set(beta)))
        q = tuple(beta.count(j) for j in chosen)
        options = [partitions(qk, algebra.blocks[j])
                   for j, qk in zip(chosen, q)]
        for lambdas in itertools.product(*options):
            out.append(_descriptor(algebra, chosen, q, lambdas))
    total = sum(d.dim ** 2 for d in out)
    expected = symmetric_power_count(algebra.dim, n)
    if total != expected:
        raise VerificationError(
            f"descriptor dimensions sum to {total}, expected {expected}")
    out.sort(key=lambda d: (d.blocks, d.q, d.lambdas))
    return out


# ---------------------------------------------------------------------------
# concrete realization

# Oversampling of the range finder for weight spaces and the seed of its
# Gaussian block.
_RANGE_OVERSAMPLE = 4
_RANGE_SEED = 0


@dataclass
class RealizedIrrep:
    """A representation of the symmetric power given on its generators:
    ``images[i]`` is the image of dGamma(e_i) for the basis element e_i of
    the base algebra."""

    descriptor: IrrepDescriptor
    images: np.ndarray  # (algebra.dim, dim, dim)

    @property
    def dim(self) -> int:
        return int(self.images.shape[1])


def _weight_steps(algebra: FdCStarAlgebra, desc: IrrepDescriptor) -> list:
    """The Jucys-Murphy steps of a descriptor's weight space, as tuples
    (first, last, c, others): for each chosen block of size k > 1 and each
    i = 2..q, the axes first..last of its factors 1..i among the factors of
    dimension above 1, the content c of cell i of the row-reading tableau of
    lambda, and the contents of the other cells addable, within k rows, to
    the shape of cells 1..i-1."""
    steps, first = [], 0
    for b, q, lam in zip(desc.blocks, desc.q, desc.lambdas):
        k = algebra.blocks[b]
        if k == 1:
            continue
        cells = [r for r, part in enumerate(lam) for _ in range(part)]
        rows = [1] + [0] * (k - 1)  # the row lengths of the cells placed
        for i, r in enumerate(cells[1:], start=1):
            addable = [rows[j] - j for j in range(k)
                       if j == 0 or rows[j - 1] > rows[j]]
            c = rows[r] - r
            steps.append((first, first + i, c, [e for e in addable if e != c]))
            rows[r] += 1
        first += q
    return steps


def _jucys_murphy(x, first: int, last: int, shift: int):
    """(X - shift) x for X = sum over first <= a < last of the
    transposition of factors a and last, on an array with one axis per
    factor."""
    out = -shift * x
    for a in range(first, last):
        out += np.swapaxes(x, a, last)
    return out


def _weight_space(algebra: FdCStarAlgebra, desc: IrrepDescriptor,
                  tol: float):
    """Orthonormal columns, of shape (N, desc.dim), spanning the joint
    eigenspace of the Jucys-Murphy elements X_i = sum_{j<i} (j i) of each
    block's factors with the contents of the row-reading tableau of its
    partition.  In (C^k)^(x)q = sum_lambda S_lambda(C^k) (x) Specht_lambda
    that is S_lambda(C^k) times one Gelfand-Tsetlin vector, since a content
    vector determines its tableau (Okounkov & Vershik, Selecta Math. 2,
    1996), so the symmetric power acts on it as the descriptor's irreducible.
    Factors of dimension 1 carry no step.

    A randomized range finder (Halko, Martinsson & Tropp, SIAM Review 53,
    2011): a Gaussian block of desc.dim + ``_RANGE_OVERSAMPLE`` columns from
    a fixed seed goes through the Lagrange projector prod_e (X_i - e)/(c_i - e)
    of each step, e over the other addable contents, and is orthonormalized
    with rank truncation after each.  The rank must equal desc.dim and each
    X_i must act on the columns found as c_i; either failure raises
    ``VerificationError``.
    """
    dims = [algebra.blocks[b] for b, q in zip(desc.blocks, desc.q)
            if algebra.blocks[b] > 1 for _ in range(q)]
    steps = _weight_steps(algebra, desc)
    w = orthonormal_columns(Draws(_RANGE_SEED).complex_normal(
        (math.prod(dims), desc.dim + _RANGE_OVERSAMPLE)), tol)
    for first, last, c, others in steps:
        x = w.reshape(*dims, -1)
        for e in others:
            x = _jucys_murphy(x, first, last, e)
            x /= c - e
        w = orthonormal_columns(x.reshape(len(w), -1), tol)
    if w.shape[1] != desc.dim:
        raise VerificationError(
            f"weight space has rank {w.shape[1]}, descriptor dimension {desc.dim}")
    x = w.reshape(*dims, -1)
    for first, last, c, _ in steps:
        moved = _jucys_murphy(x, first, last, c).reshape(w.shape)
        bound = 100 * tol * (last - first)
        if largest_op_norm([moved], floor=bound) > bound:
            raise VerificationError("the Jucys-Murphy elements do not act on "
                                    "the weight space by the tableau's contents")
    return w


def _check_image_budget(algebra: FdCStarAlgebra, desc: IrrepDescriptor):
    """Refuse a realization whose images of the dim A generators or whose
    range finder block, N x (dim + 4) on the carrier of dimension N, has
    over MAX_DENSE_ENTRIES entries, or whose commutant solve, of at least
    dim unknowns on ambient dim, is sure to fail ``check_commutant_work``."""
    dim = desc.dim
    carrier = math.prod(algebra.blocks[b] ** q
                        for b, q in zip(desc.blocks, desc.q))
    for what, entries in (
            (f"{algebra.dim} generator images on dimension {dim}",
             algebra.dim * dim ** 2),
            (f"range finder blocks of {carrier} x {dim + _RANGE_OVERSAMPLE}",
             carrier * (dim + _RANGE_OVERSAMPLE))):
        if entries > MAX_DENSE_ENTRIES:
            raise BudgetError(f"{what} are too large")
    check_commutant_work(dim, dim)


def realize_sn_irrep(algebra: FdCStarAlgebra, n: int, desc: IrrepDescriptor,
                     tol: float = DEFAULT_TOL) -> RealizedIrrep:
    """Concrete irreducible representation attached to a descriptor, as the
    images of the generators dGamma(e_i) of the symmetric power.

    The product pi of the chosen blocks, block beta_t on factor t, maps
    the symmetric power into the commutant of the Young subgroup of the
    descriptor's multiplicities, which permutes the factors of each block.
    So it preserves the weight space w of ``_weight_space``, the
    multiplicity space of the partitions' irreducible of that subgroup, and
    a acts as w* pi(a) w.  pi sends slot t of
    dGamma(e_i) = sum_t 1 (x) ... (x) e_i (x) ... (x) 1 to E_rc on factor t
    if e_i is the unit (r, c) of block beta_t, and to 0 otherwise, so image
    i is one contraction of w over the other factors per such slot.  The
    dGamma(e_i) generate the symmetric power (Newton's identities), so
    these images have the commutants and intertwiners of the whole
    representation.  The rank of w must equal the descriptor dimension;
    distinct descriptors yield inequivalent irreducibles.
    ``_check_image_budget`` runs first.
    """
    if desc.degree != n:
        raise ValueError("descriptor degree does not match n")
    _check_image_budget(algebra, desc)
    return _realize(algebra, desc, tol)


def _realize(algebra: FdCStarAlgebra, desc: IrrepDescriptor,
             tol: float) -> RealizedIrrep:
    """``realize_sn_irrep`` after its pre-flight."""
    w = _weight_space(algebra, desc, tol)
    dim = w.shape[1]
    images = np.zeros((algebra.dim, dim, dim), dtype=complex)
    before = 1  # the dimension of the factors before slot t
    for b, q in zip(desc.blocks, desc.q):
        k, units = algebra.blocks[b], algebra.block_units[b]
        if k == 1:  # each slot adds w* w = I
            images[units] += q * np.eye(dim)
            continue
        for _ in range(q):
            view = w.reshape(before, k, -1, dim)
            images[units] += np.einsum("prqa,pcqj->rcaj", view.conj(), view,
                                       optimize=True)
            before *= k
    return RealizedIrrep(desc, images)


def wedderburn_comparison(algebra: FdCStarAlgebra, n: int,
                          tol: float = DEFAULT_TOL, seed: int = 0,
                          sym: SymmetricPowerBasis | None = None):
    """Descriptor dimensions versus numerically computed block dimensions.

    The first list is combinatorial (tableau counts); the second comes from
    minimal central projections of the fixed-point span, computed without
    reference to the enumeration.  Both are sorted ascending.
    """
    enumerated = sorted(d.dim for d in enumerate_sn_irreps(algebra, n))
    span = symmetric_power_span(algebra, n, sym)
    report = minimal_central_projections(span, seed=seed, tol=tol)
    return enumerated, sorted(report.block_dims)


def symmetric_power_span(algebra: FdCStarAlgebra, n: int,
                         sym: SymmetricPowerBasis | None = None
                         ) -> SpannedAlgebra:
    """The fixed-point span of the n-th tensor power as concrete matrices, in
    the block form of ``SymmetricPowerBasis``: multiplicities read on it
    count one sorted block sequence per orbit.

    Member i is the orbit sum ``sym.index[i]``, 1 at the entry of each of
    its listed monomials; these supports are disjoint, so the orbit labels
    go straight to ``label_span`` and no member stack is built.
    """
    if sym is None:
        sym = symmetric_power_basis(algebra, n)
    return label_span(sym.ambient, sym.orbit, sym.entry,
                      np.ones(sym.orbit.shape[0]))


# ---------------------------------------------------------------------------
# Schur-Weyl representations

def schur_weyl_rep(algebra: FdCStarAlgebra, block: int, lam,
                   tol: float = DEFAULT_TOL) -> RealizedIrrep:
    """The irreducible representation carried by the equivariant maps from a
    symmetric group irrep into the tensor power of one block's space.

    ``lam`` is a partition of the degree n; the carrier dimension is the
    count of semistandard tableaux of shape lam with entries up to the block
    size.  Partitions with more rows than the block size have zero carrier
    and are rejected.  This is the descriptor with the single block and
    multiplicity n, realized by the same construction as every other.
    """
    lam = check_partition(lam)
    n = sum(lam)
    desc = _descriptor(algebra, (block,), (n,), (lam,))
    return realize_sn_irrep(algebra, n, desc, tol)


def schur_weyl_labels(algebra: FdCStarAlgebra, n: int):
    """All (block, partition) labels with nonzero carrier at degree n."""
    return [(j, lam) for j, k in enumerate(algebra.blocks)
            for lam in partitions(n, k)]


def schur_weyl_family(algebra: FdCStarAlgebra, n: int,
                      tol: float = DEFAULT_TOL):
    """Every Schur-Weyl representation of degree n, as (block, partition,
    representation) in the order of ``schur_weyl_labels``; every label
    passes the pre-flight before any is realized."""
    labels = [(j, lam, _descriptor(algebra, (j,), (n,), (lam,)))
              for j, lam in schur_weyl_labels(algebra, n)]
    for _, _, desc in labels:
        _check_image_budget(algebra, desc)
    return [(j, lam, _realize(algebra, desc, tol)) for j, lam, desc in labels]


def schur_weyl_injectivity_check(algebra: FdCStarAlgebra, n_max: int,
                                 tol: float = DEFAULT_TOL,
                                 families=None) -> bool:
    """Pairwise inequivalence of all Schur-Weyl representations per degree.

    Degrees separate representations of different symmetric powers, so only
    same-degree pairs need a numerical test.  ``families`` maps degrees to
    families the caller already holds from ``schur_weyl_family``.
    """
    for n in range(1, n_max + 1):
        family = (families or {}).get(n) or schur_weyl_family(algebra, n, tol)
        reps = [rep.images for _, _, rep in family]
        if any(equivalent(a, b, tol)
               for a, b in itertools.combinations(reps, 2)):
            return False
    return True


@dataclass
class WitnessCertificate:
    """A degree-2 irreducible that no Schur-Weyl representation matches."""

    witness: RealizedIrrep
    commutant_dim: int
    intertwiner_dims: dict

    @property
    def is_valid(self) -> bool:
        return self.commutant_dim == 1 and \
            all(v == 0 for v in self.intertwiner_dims.values())


def non_schur_weyl_witness(algebra: FdCStarAlgebra, block1: int, block2: int,
                           tol: float = DEFAULT_TOL) -> WitnessCertificate:
    """The product representation of two inequivalent irreducibles.

    Realizes the descriptor with the two blocks each of multiplicity one and
    certifies that it is irreducible and has zero intertwiner space with
    every Schur-Weyl representation of degree 2.
    """
    if block1 == block2:
        raise ValueError("the two block representations must be inequivalent")
    b1, b2 = sorted((block1, block2))
    desc = _descriptor(algebra, (b1, b2), (1, 1), ((1,), (1,)))
    witness = realize_sn_irrep(algebra, 2, desc, tol)
    inter = {(j, lam): int(intertwiner_space(witness.images, sw.images,
                                             tol).shape[0])
             for j, lam, sw in schur_weyl_family(algebra, 2, tol)}
    cert = WitnessCertificate(
        witness, commutant(witness.images, tol).dim, inter)
    return cert


# ---------------------------------------------------------------------------
# isotropy groups and intertwining cocycles

def isotropy_group(pi, action: GroupAction,
                   tol: float = DEFAULT_TOL) -> Subgroup:
    """Elements whose automorphism leaves the equivalence class of an
    irreducible representation fixed; verified to form a subgroup."""
    pi = np.asarray(pi, dtype=complex)
    members = [g for g in range(action.group.order)
               if equivalent(action.composed_images(g, pi), pi, tol)]
    return Subgroup(action.group, members)


@dataclass
class CocycleData:
    isotropy: Subgroup
    rep: ProjectiveRep
    sigma: np.ndarray


def intertwining_cocycle(pi, action: GroupAction, isotropy: Subgroup,
                         tol: float = DEFAULT_TOL) -> CocycleData:
    """Unitaries intertwining an irreducible with its twists, and the
    resulting 2-cocycle.

    Each unitary is unique up to phase; phases are fixed by making the
    largest-modulus entry positive real, which leaves the cohomology class
    untouched.  The cocycle compares each product of unitaries with the
    unitary of the product element.
    """
    pi = np.asarray(pi, dtype=complex)
    dim = pi.shape[1]
    mats = []
    for amb in isotropy.elements:
        rho = action.composed_images(amb, pi)
        basis = intertwiner_space(pi, rho, tol)
        if basis.shape[0] != 1:
            raise ValueError(
                f"intertwiner space has dimension {basis.shape[0]}, need 1")
        t = basis[0]
        c = np.trace(t.conj().T @ t) / dim
        u = t / np.sqrt(np.real(c))
        if op_norm(u.conj().T @ u - np.eye(dim)) > 100 * tol:
            raise ValueError("no unitary intertwiner found")
        idx = int(np.argmax(np.abs(u)))
        phase = u.flat[idx] / abs(u.flat[idx])
        mats.append(u * np.conj(phase))
    mats = np.stack(mats)
    order = isotropy.group.order
    sigma = np.empty((order, order), dtype=complex)
    for t in range(order):
        for s in range(order):
            ts = isotropy.group.mult[t, s]
            sigma[t, s] = np.trace(mats[ts] @ (mats[t] @ mats[s]).conj().T) / dim
    rep = ProjectiveRep(isotropy.group, mats, sigma, tol=max(tol * 100, 1e-7))
    return CocycleData(isotropy, rep, sigma)


# ---------------------------------------------------------------------------
# homogeneous components of multiplicative maps

def homogeneous_components(phi, algebra: FdCStarAlgebra,
                           target: FdCStarAlgebra, n_max: int,
                           tol: float = DEFAULT_TOL, seed: int = 0,
                           samples: int = 8):
    """Split a multiplicative map into its homogeneous parts by discrete
    Fourier inversion over roots of unity.

    ``phi`` maps coefficient vectors of ``algebra`` to those of ``target``
    and has no component of degree above n_max.  Returns a function that
    maps x to the (m, target.dim) array of the m = n_max + 1 components at
    x, the DFT weight matrix times the values phi(zeta^j x) at the m-th
    roots of unity.  Random samples check, in ``target.norm``, that they sum
    back to phi and are homogeneous at a generic phase; a failure means the
    degree bound was too small (components above n_max alias onto lower
    degrees).  A residual passes with no SVD if its coefficient 2-norm, the
    Frobenius norm (the matrix units are orthonormal), is at most tol.  The
    components at the unit are orthogonal projections.  The m x m weights
    and the m values of dimension target.dim are bounded by
    MAX_DENSE_ENTRIES before either is built.
    """
    m = n_max + 1
    if m * max(m, target.dim) > MAX_DENSE_ENTRIES:
        raise BudgetError(f"{m} components of dimension {target.dim} and "
                          f"their {m} x {m} DFT weights are too large")
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    weights = np.vander(roots, increasing=True).conj() / m

    def components(x):
        return weights @ np.stack([phi(r * np.asarray(x)) for r in roots])

    def check(x, z):
        ref = phi(x)
        values = components(x)
        moved = components(z * x) - z ** np.arange(m)[:, None] * values
        residuals = [values.sum(0) - ref, *moved]
        if (max(map(np.linalg.norm, residuals)) > tol
                and max(map(target.norm, residuals))
                > tol * max(1.0, target.norm(ref))):
            raise VerificationError("degree bound too small for this map")

    rng = Draws(seed)
    for _ in range(samples):
        x = algebra.random_element(rng)
        check(x / max(algebra.norm(x), 1e-12),
              np.exp(2j * np.pi * rng.random()))
    return components


def direct_sum_of_power_maps(algebra: FdCStarAlgebra, degrees):
    """The direct sum of the power maps of the given degrees, a concrete
    multiplicative map with known homogeneous parts, as ``(phi, target)``.

    ``target`` has the blocks of ``tensor_power(algebra, d)`` for each d in
    turn.  ``phi`` builds the powers of x as one chain of outer products of
    coefficient vectors and gathers it into the target's basis through each
    power's block units; no ambient matrix is built.
    """
    degrees = [int(d) for d in degrees]
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    powers = [algebra]
    while len(powers) < max(degrees):
        powers.append(tensor_algebra(powers[-1], algebra))
    starts = np.cumsum([0] + [p.dim for p in powers])
    grids = [starts[d - 1] + u for d in degrees
             for u in powers[d - 1].block_units]
    target = make_algebra([len(g) for g in grids])
    # make_algebra orders its basis block by block, each block row-major
    index = np.concatenate([g.ravel() for g in grids])

    def phi(x):
        chain = [np.asarray(x, dtype=complex)]
        for _ in powers[1:]:
            chain.append(np.multiply.outer(chain[-1], chain[0]).ravel())
        return np.concatenate(chain)[index]

    return phi, target
