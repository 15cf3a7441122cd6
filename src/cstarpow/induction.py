"""Induced covariant representations from subgroups, in coset-block form.

The induced space is the direct sum of one copy of the base space per left
coset.  With coset representatives g_0 = identity, g_1, ..., g_r, the algebra
acts block-diagonally, the j-th block being the base representation composed
with the automorphism of g_j^{-1}, and a group element g maps block j to the
block k of its translated coset, acting there by the base unitary of
g_k^{-1} g g_j.  Coset representatives are the lexicographically minimal
elements, so the construction is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossed import CovariantPair, GroupAction
from .errors import VerificationError
from .groups import Subgroup, UnitaryRep
from .linalg import DEFAULT_TOL, op_norm, orthonormal_columns
from .structure import commutant


@dataclass
class InducedRep:
    """An induced covariant pair with its coset-block bookkeeping."""

    base: CovariantPair
    subgroup: Subgroup
    action: GroupAction
    pair: CovariantPair
    block_dim: int

    @property
    def coset_reps(self) -> tuple:
        return self.subgroup.coset_reps

    @property
    def num_blocks(self) -> int:
        return len(self.subgroup.coset_reps)

    def block_slice(self, j: int) -> slice:
        return slice(j * self.block_dim, (j + 1) * self.block_dim)

    def block_projection(self, j: int) -> np.ndarray:
        n = self.pair.dim
        out = np.zeros((n, n), dtype=complex)
        sl = self.block_slice(j)
        out[sl, sl] = np.eye(self.block_dim)
        return out

    def block_target(self, g: int, j: int) -> int:
        """Index of the coset block that g sends block j to."""
        amb = self.subgroup.ambient
        return int(self.subgroup.coset_of[amb.multiply(g, self.coset_reps[j])])


def induce(base: CovariantPair, action: GroupAction, sub: Subgroup,
           tol: float = DEFAULT_TOL, check: bool = True) -> InducedRep:
    """Induce a covariant pair over a subgroup up to the whole group.

    ``base`` must be a covariant pair of the action restricted to ``sub``;
    the result is a covariant pair of the full system whose dimension is the
    subgroup index times the base dimension.
    """
    if sub.ambient is not action.group:
        raise ValueError("subgroup does not live in the acting group")
    if base.action.group is not sub.group:
        raise ValueError("base pair is not over the given subgroup")
    _check_restriction(base.action, action, sub, tol)
    grp = action.group
    m = base.dim
    n = sub.index * m

    pi = np.zeros((action.algebra.dim, n, n), dtype=complex)
    for j, gj in enumerate(sub.coset_reps):
        sl = slice(j * m, (j + 1) * m)
        pi[:, sl, sl] = action.composed_images(grp.inverse(gj), base.pi)

    unitary = UnitaryRep(grp, induced_unitaries(sub, base.unitary.matrices),
                         check=False)
    pair = CovariantPair(action, pi, unitary, check=check, tol=tol)
    return InducedRep(base, sub, action, pair, m)


def induced_unitaries(sub: Subgroup, base_mats) -> np.ndarray:
    """The group unitaries of the representation induced from ``sub``.

    ``base_mats[h]`` is the base unitary of the subgroup element with local
    index h.  In coset-block form, g maps block j to the block k of the coset
    of g g_j and acts there by the base unitary of g_k^{-1} g g_j.
    """
    grp = sub.ambient
    reps = sub.coset_reps
    m = base_mats.shape[1]
    n = len(reps) * m
    umats = np.zeros((grp.order, n, n), dtype=complex)
    for g in range(grp.order):
        for j, gj in enumerate(reps):
            k = int(sub.coset_of[grp.multiply(g, gj)])
            h = grp.multiply(grp.inverse(reps[k]), grp.multiply(g, gj))
            umats[g, k * m:(k + 1) * m, j * m:(j + 1) * m] = \
                base_mats[sub.local[h]]
    return umats


def _check_restriction(base_action: GroupAction, action: GroupAction,
                       sub: Subgroup, tol: float):
    for local, amb in enumerate(sub.elements):
        if base_action.is_permutation and action.is_permutation:
            ok = np.array_equal(base_action.perm_maps[local],
                                action.perm_maps[amb])
        else:
            ok = np.max(np.abs(base_action.matrix(local)
                               - action.matrix(amb))) <= tol
        if not ok:
            raise ValueError("base pair is not over the restricted action")


def fixed_point_unitary(ind: InducedRep,
                        tol: float = DEFAULT_TOL) -> np.ndarray:
    """Isometry from the base fixed subspace onto the induced fixed subspace.

    Sends a base-fixed vector to the function constant with value that vector
    scaled by the inverse square root of the coset count; its range is exactly
    the jointly fixed subspace of the induced pair, so the two fixed subspaces
    have equal dimension.
    """
    base_fixed = orthonormal_columns(ind.base.unitary.mean(), tol)
    r1 = ind.num_blocks
    column = np.tile(base_fixed, (r1, 1)) / np.sqrt(r1)
    return column


@dataclass
class CommutantRestriction:
    """Restriction of block-diagonal intertwiners to one coset block.

    The source is the commutant of the induced integrated image together with
    the block projections; the target is the commutant of the compressed pair
    at block j (over the conjugated subgroup).  The map is a *-isomorphism,
    checked here by dimension equality.
    """

    induced: InducedRep
    block: int
    source_dim: int
    target_dim: int
    tol: float

    def apply(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=complex)
        ind = self.induced
        scale = max(1.0, op_norm(t))
        fam = _integrated_family(ind)
        for m in fam:
            if op_norm(t @ m - m @ t) > 100 * self.tol * scale * max(1.0, op_norm(m)):
                raise ValueError("matrix is not in the commutant of the pair")
        for j in range(ind.num_blocks):
            p = ind.block_projection(j)
            if op_norm(t @ p - p @ t) > 100 * self.tol * scale:
                raise ValueError("matrix does not commute with the block projections")
        sl = ind.block_slice(self.block)
        return t[sl, sl]


def _integrated_family(ind: InducedRep) -> np.ndarray:
    return np.concatenate([ind.pair.pi, ind.pair.unitary.matrices], axis=0)


def _compressed_family(ind: InducedRep, j: int) -> np.ndarray:
    """Images of the compressed covariant pair on block j.

    The compression carries the conjugated subgroup g_j G_0 g_j^{-1}, whose
    elements leave block j invariant.
    """
    grp = ind.action.group
    gj = ind.coset_reps[j]
    sl = ind.block_slice(j)
    pi_j = ind.pair.pi[:, sl, sl]
    conj_elements = [grp.multiply(gj, grp.multiply(h, grp.inverse(gj)))
                     for h in ind.subgroup.elements]
    v_j = np.stack([ind.pair.unitary.mat(g)[sl, sl] for g in conj_elements])
    return np.concatenate([pi_j, v_j], axis=0)


def commutant_restriction(ind: InducedRep, j: int,
                          tol: float = DEFAULT_TOL) -> CommutantRestriction:
    if not 0 <= j < ind.num_blocks:
        raise ValueError("block index out of range")
    fam = _integrated_family(ind)
    projections = np.stack([ind.block_projection(k)
                            for k in range(ind.num_blocks)])
    source = commutant(np.concatenate([fam, projections], axis=0), tol)
    target = commutant(_compressed_family(ind, j), tol)
    if source.dim != target.dim:
        raise VerificationError(
            f"restriction is not an isomorphism: {source.dim} != {target.dim}")
    return CommutantRestriction(ind, j, source.dim, target.dim, tol)
