"""Induced covariant representations from subgroups, in coset-block form.

The induced space is the direct sum of one copy of the base space per left
coset.  With coset representatives g_0 = identity, g_1, ..., g_r, the algebra
acts block-diagonally, the j-th block being the base representation composed
with the automorphism of g_j^{-1}, and a group element g maps block j to the
block k of its translated coset, acting there by the base unitary of
g_k^{-1} g g_j.  ``Subgroup.coset_table`` gives k and g_k^{-1} g g_j for
every (g, j) at once, and ``induce`` is the one construction of induced
pairs: labelled images and index unitaries stay in that form, so inducing a
spatial pair is index arithmetic.  Coset representatives are the
lexicographically minimal elements, so the construction is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossed import CovariantPair, GroupAction
from .errors import VerificationError
from .groups import Subgroup, UnitaryRep
from .linalg import DEFAULT_TOL, orthonormal_columns
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
    def num_blocks(self) -> int:
        return len(self.subgroup.coset_reps)

    def block_slice(self, j: int) -> slice:
        return slice(j * self.block_dim, (j + 1) * self.block_dim)


def induce(base: CovariantPair, action: GroupAction, sub: Subgroup,
           tol: float = DEFAULT_TOL, check: bool = True) -> InducedRep:
    """Induce a covariant pair over a subgroup up to the whole group.

    ``base`` must be a covariant pair of the action restricted to ``sub``;
    the result is a covariant pair of the full system whose dimension is the
    subgroup index times the base dimension.  Over a permutation action,
    labelled base images induce to labels and an index unitary to an index
    unitary, so a spatial base induces to a spatial pair; dense blocks are
    placed only for dense inputs.
    """
    if sub.ambient is not action.group:
        raise ValueError("subgroup does not live in the acting group")
    if base.action.group is not sub.group:
        raise ValueError("base pair is not over the given subgroup")
    _check_restriction(base.action, action, sub, tol)
    grp = action.group
    m, r = base.dim, sub.index
    n = r * m
    reps = np.array(sub.coset_reps)

    if base.labels is not None and action.is_permutation:
        # the entry of base label i in block j belongs to the element that
        # alpha of g_j moves e_i to
        which, row, col = base.labels
        shift = np.arange(r)[:, None] * m
        pi = (action.perm_maps[reps][:, which], row + shift, col + shift)
    else:
        pi = np.zeros((action.algebra.dim, n, n), dtype=complex)
        for j, gj in enumerate(reps):
            sl = slice(j * m, (j + 1) * m)
            pi[:, sl, sl] = action.composed_images(grp.inverse(gj), base.pi)

    # g maps block j to block k by the base unitary of local index h
    k, h = sub.coset_table
    if base.unitary.dest is not None:
        dest = k[:, :, None] * m + base.unitary.dest[h]
        unitary = UnitaryRep(grp, dest=dest.reshape(grp.order, n),
                             check=False)
    else:
        mats = np.zeros((grp.order, r, m, r, m), dtype=complex)
        mats[np.arange(grp.order)[:, None], k, :, np.arange(r), :] = \
            base.unitary.matrices[h]
        unitary = UnitaryRep(grp, mats.reshape(grp.order, n, n), check=False)
    pair = CovariantPair(action, pi, unitary, check=check, tol=tol)
    return InducedRep(base, sub, action, pair, m)


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
    have equal dimension.  The mean, a projection, is ranked against 1.
    """
    base_fixed = orthonormal_columns(ind.base.unitary.mean(), tol, scale=1.0)
    r1 = ind.num_blocks
    column = np.tile(base_fixed, (r1, 1)) / np.sqrt(r1)
    return column


@dataclass
class CommutantRestriction:
    """Restriction of block-diagonal intertwiners to one coset block.

    The source is the commutant of the induced integrated image together with
    the block projections; the target is the commutant of the compressed pair
    at the block (over the conjugated subgroup).  The map is a *-isomorphism,
    checked by dimension equality.
    """

    source_dim: int
    target_dim: int


def _source_family(ind: InducedRep) -> np.ndarray:
    """The induced images and unitaries, then the block projections."""
    n = ind.pair.dim
    proj = np.zeros((ind.num_blocks, n, n), dtype=complex)
    proj[np.arange(n) // ind.block_dim, np.arange(n), np.arange(n)] = 1
    return np.concatenate([ind.pair.pi, ind.pair.unitary.matrices, proj])


def _compressed_family(ind: InducedRep, j: int) -> np.ndarray:
    """Images of the compressed covariant pair on block j.

    The compression carries the conjugated subgroup g_j G_0 g_j^{-1}, whose
    elements leave block j invariant.
    """
    grp = ind.action.group
    gj = ind.subgroup.coset_reps[j]
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
    source = commutant(_source_family(ind), tol)
    target = commutant(_compressed_family(ind, j), tol)
    if source.dim != target.dim:
        raise VerificationError(
            f"restriction is not an isomorphism: {source.dim} != {target.dim}")
    return CommutantRestriction(source.dim, target.dim)
