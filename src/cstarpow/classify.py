"""Classification of the irreducible representations of symmetric powers.

The irreducible representations of the permutation-fixed part of an n-fold
tensor power of a direct sum of matrix blocks are labelled by descriptors:
a set of distinct blocks, positive multiplicities summing to n, and one
partition per chosen block bounded in length by the block size.  Each
descriptor is realized concretely by building the product covariant pair
over the matching Young subgroup, inducing up to the full symmetric group,
integrating, and compressing to the range of the group averaging projection.
The Schur-Weyl representations are the descriptors with a single block of
multiplicity n, realized by that same construction.

The descriptor dimension is the product of semistandard tableau counts, and
the multiset of descriptor dimensions must agree with the numerically
computed block structure of the fixed-point span; `wedderburn_crosscheck`
performs exactly that comparison with two independent computations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algebra import (FdCStarAlgebra, SymmetricPowerBasis,
                      power_map_differential, symmetric_power_basis,
                      symmetric_power_count)
from .crossed import GroupAction
from .errors import VerificationError
from .groups import (ProjectiveRep, Subgroup, check_partition,
                     factor_permutation_index, partitions, sn_irrep,
                     ssyt_count, symmetric_group, young_subgroup)
from .induction import induced_unitaries
from .linalg import DEFAULT_TOL, direct_sum, op_norm, orthonormal_columns
from .structure import (SpannedAlgebra, commutant_dimension, equivalent,
                        intertwiner_space, label_span,
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


def _weak_compositions(n: int, m: int):
    """All ways to write n as an ordered sum of m non-negative integers."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _weak_compositions(n - first, m - 1):
            yield (first,) + rest


def enumerate_sn_irreps(algebra: FdCStarAlgebra, n: int) -> list[IrrepDescriptor]:
    """Complete, duplicate-free list of descriptors for degree n.

    The sum of squared dimensions equals the multiset count
    C(dim + n - 1, n), which is checked before returning.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    m = len(algebra.blocks)
    out = []
    for comp in _weak_compositions(n, m):
        chosen = tuple(j for j in range(m) if comp[j] > 0)
        q = tuple(comp[j] for j in chosen)
        options = []
        for j, qk in zip(chosen, q):
            opts = [lam for lam in partitions(qk)
                    if len(lam) <= algebra.blocks[j]]
            options.append(opts)
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

@dataclass
class RealizedIrrep:
    """A representation of the symmetric power given on its orbit-sum basis."""

    descriptor: IrrepDescriptor
    images: np.ndarray  # (basis size, dim, dim)

    @property
    def dim(self) -> int:
        return int(self.images.shape[1])


def _block_entries_of_orbits(base: FdCStarAlgebra, beta, orbit, dest):
    """Nonzero entries ``(which, row, col)`` of the images of the orbit sums
    labelled by ``orbit``, each monomial moved by the factor permutation with
    index ``dest``, under the product of block representations chosen by
    beta: entry ``(row, col)`` of the image of orbit sum ``which`` is 1.

    Every basis monomial lies in one orbit sum with coefficient 1 and maps to
    a single matrix entry (or to zero when some factor misses its assigned
    block), and distinct monomials map to distinct entries, so the evaluation
    is positional.
    """
    digits = np.unravel_index(dest, (base.dim,) * len(beta))
    ok = np.logical_and.reduce(
        [base.block_of[i] == b for i, b in zip(digits, beta)])
    dims = [base.blocks[b] for b in beta]
    row = np.ravel_multi_index([base.local[i[ok], 0] for i in digits], dims)
    col = np.ravel_multi_index([base.local[i[ok], 1] for i in digits], dims)
    return orbit[ok], row, col


def _young_factorization(sub: Subgroup, q):
    """Per-block local permutations of every subgroup element.

    Returns a list over the subgroup's local elements; each entry is a tuple
    of per-block permutation tuples on 0..q_k-1.
    """
    offsets = np.concatenate([[0], np.cumsum(q)])
    out = []
    for amb in sub.elements:
        p = sub.ambient.perms[amb]
        factors = []
        for k, qk in enumerate(q):
            o = offsets[k]
            factors.append(tuple(p[o + i] - o for i in range(qk)))
        out.append(tuple(factors))
    return out


def _realization_unitaries(algebra, n, desc, sub: Subgroup):
    """The linking unitaries of the product pair: for each subgroup element,
    the factor permutation on the product carrier tensored with the conjugate
    of the chosen symmetric group irreps of the multiplicity space."""
    beta = []
    for b, mult in zip(desc.blocks, desc.q):
        beta.extend([b] * mult)
    dims = [algebra.blocks[b] for b in beta]
    ureps = [sn_irrep(lam) for lam in desc.lambdas]
    d_mult = 1
    for u in ureps:
        d_mult *= u.dim
    factor_groups = [symmetric_group(qk) for qk in desc.q]
    lookup = [{p: i for i, p in enumerate(g.perms)} for g in factor_groups]
    w1 = []
    dests = factor_permutation_index(
        dims, [sub.ambient.perms[amb] for amb in sub.elements])
    total = dests.shape[1]
    for dest, factors in zip(dests, _young_factorization(sub, desc.q)):
        v0 = np.zeros((total, total), dtype=complex)
        v0[dest, np.arange(total)] = 1.0
        u0 = np.eye(1, dtype=complex)
        for k, f in enumerate(factors):
            u0 = np.kron(u0, ureps[k].mat(lookup[k][f]))
        w1.append(np.kron(v0, np.conj(u0)))
    return beta, np.stack(w1), d_mult


def realize_sn_irrep(algebra: FdCStarAlgebra, n: int, desc: IrrepDescriptor,
                     sym: SymmetricPowerBasis | None = None,
                     tol: float = DEFAULT_TOL) -> RealizedIrrep:
    """Concrete irreducible representation attached to a descriptor.

    Builds the product covariant pair over the Young subgroup of the
    descriptor's multiplicities, induces to the full symmetric group in
    coset-block form, and compresses the algebra action to the range of the
    group averaging projection.  The compressed dimension must equal the
    descriptor dimension; distinct descriptors yield inequivalent
    irreducibles.
    """
    if desc.degree != n:
        raise ValueError("descriptor degree does not match n")
    if sym is None:
        sym = symmetric_power_basis(algebra, n)
    group = symmetric_group(n)
    sub = young_subgroup(desc.q, group)
    beta, w1, d_mult = _realization_unitaries(algebra, n, desc, sub)
    m_block = w1.shape[1]
    size = sub.index * m_block

    # induced unitaries and the averaging projection
    avg = np.mean(induced_unitaries(sub, w1), axis=0)
    w = orthonormal_columns(avg, tol)
    if w.shape[1] != desc.dim:
        raise VerificationError(
            f"fixed space has rank {w.shape[1]}, descriptor dimension {desc.dim}")

    # the induced algebra action on the orbit-sum basis vectors is sparse:
    # block j is the product pair composed with the automorphism of g_j^{-1},
    # tensored with the identity of the multiplicity space.  Accumulate
    # t[a] = pi(a) w from its entries, then compress with w*.
    dests = factor_permutation_index(
        [algebra.dim] * n,
        [group.perms[group.inverse(gj)] for gj in sub.coset_reps])
    span = np.arange(d_mult)
    t = np.zeros((sym.size, size, w.shape[1]), dtype=complex)
    for j, dest in enumerate(dests):
        which, row, col = _block_entries_of_orbits(
            algebra, beta, sym.orbit, dest)
        rows = (j * m_block + row[:, None] * d_mult + span).ravel()
        cols = (j * m_block + col[:, None] * d_mult + span).ravel()
        np.add.at(t, (np.repeat(which, d_mult), rows), w[cols])
    images = np.matmul(w.conj().T, t)
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
    """The fixed-point span of the n-th tensor power as concrete matrices.

    Member i is the orbit sum ``sym.index[i]``, 1 at the unit position of
    each of its monomials; these supports are disjoint, so the orbit labels
    go straight to ``label_span`` and no member stack is built.  Generators
    are the embedded derivatives of the power map at the basis units of the
    algebra.
    """
    if sym is None:
        sym = symmetric_power_basis(algebra, n)
    ambient = sym.power.ambient
    row, col = sym.power.positions.T
    gens = sym.power.embed(np.stack([power_map_differential(algebra, e, n)
                                     for e in np.eye(algebra.dim)]))
    return label_span(ambient, sym.orbit, row * ambient + col,
                      np.ones(sym.orbit.shape[0]), gens)


def wedderburn_crosscheck(algebra: FdCStarAlgebra, n: int,
                          tol: float = DEFAULT_TOL, seed: int = 0) -> bool:
    enumerated, spectral = wedderburn_comparison(algebra, n, tol, seed)
    return enumerated == spectral


# ---------------------------------------------------------------------------
# Schur-Weyl representations

def schur_weyl_rep(algebra: FdCStarAlgebra, block: int, lam,
                   sym: SymmetricPowerBasis | None = None,
                   tol: float = DEFAULT_TOL) -> RealizedIrrep:
    """The irreducible representation carried by the equivariant maps from a
    symmetric group irrep into the tensor power of one block's space.

    ``lam`` is a partition of the degree n; the carrier dimension is the
    count of semistandard tableaux of shape lam with entries up to the block
    size.  Partitions with more rows than the block size have zero carrier
    and are rejected.  This is the descriptor with the single block and
    multiplicity n, realized by the same induction as every other.
    """
    lam = check_partition(lam)
    n = sum(lam)
    desc = _descriptor(algebra, (block,), (n,), (lam,))
    return realize_sn_irrep(algebra, n, desc, sym=sym, tol=tol)


def schur_weyl_labels(algebra: FdCStarAlgebra, n: int):
    """All (block, partition) labels with nonzero carrier at degree n."""
    out = []
    for j, k in enumerate(algebra.blocks):
        for lam in partitions(n):
            if len(lam) <= k:
                out.append((j, lam))
    return out


def schur_weyl_family(algebra: FdCStarAlgebra, n: int,
                      tol: float = DEFAULT_TOL,
                      sym: SymmetricPowerBasis | None = None):
    """Every Schur-Weyl representation of degree n, as (block, partition,
    representation) in the order of ``schur_weyl_labels``."""
    if sym is None:
        sym = symmetric_power_basis(algebra, n)
    return [(j, lam, schur_weyl_rep(algebra, j, lam, sym=sym, tol=tol))
            for j, lam in schur_weyl_labels(algebra, n)]


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
    sym = symmetric_power_basis(algebra, 2)
    desc = _descriptor(algebra, (b1, b2), (1, 1), ((1,), (1,)))
    witness = realize_sn_irrep(algebra, 2, desc, sym=sym, tol=tol)
    inter = {(j, lam): int(intertwiner_space(witness.images, sw.images,
                                             tol).shape[0])
             for j, lam, sw in schur_weyl_family(algebra, 2, tol, sym)}
    cert = WitnessCertificate(
        witness, commutant_dimension(witness.images, tol), inter)
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

def homogeneous_components(phi, algebra: FdCStarAlgebra, n_max: int,
                           tol: float = DEFAULT_TOL, seed: int = 0,
                           samples: int = 8) -> list:
    """Split a multiplicative map into its homogeneous parts by discrete
    Fourier inversion over roots of unity.

    ``phi`` maps coefficient vectors to matrices and is assumed to have no
    component of degree above n_max.  Random samples check that the recovered
    components sum back to phi and that each one is homogeneous of its degree
    at a generic phase; a failure means the degree bound was too small
    (components above n_max alias onto lower degrees).  The values of the
    components at the unit are mutually orthogonal projections.
    """
    m = n_max + 1
    zeta = np.exp(2j * np.pi / m)

    def component(k):
        def phi_k(x):
            x = np.asarray(x, dtype=complex)
            acc = 0
            for j in range(m):
                acc = acc + zeta ** (-k * j) * phi(zeta ** j * x)
            return acc / m
        return phi_k

    comps = [component(k) for k in range(m)]
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x = algebra.random_element(rng)
        x = x / max(algebra.norm(x), 1e-12)
        ref = phi(x)
        scale = max(1.0, op_norm(ref))
        values = [c(x) for c in comps]
        if op_norm(sum(values) - ref) > tol * scale:
            raise VerificationError("degree bound too small for this map")
        z = np.exp(2j * np.pi * rng.random())
        for k, value in enumerate(values):
            if op_norm(comps[k](z * x) - z ** k * value) > tol * scale:
                raise VerificationError("degree bound too small for this map")
    return comps


def direct_sum_of_power_maps(algebra: FdCStarAlgebra, degrees):
    """The block direct sum of the power maps of the given degrees.

    Returns a callable on coefficient vectors; useful as a concrete
    multiplicative map with known homogeneous parts.  A tensor power is
    carried by the Kronecker product embedding, so the block of degree d is
    the d-th Kronecker power of the embedded argument.
    """
    degrees = [int(d) for d in degrees]
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")

    def phi(x):
        m = algebra.embed(x)
        return direct_sum([reduce(np.kron, [m] * d) for d in degrees])

    return phi
