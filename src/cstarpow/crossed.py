"""Crossed products of finite group actions on finite-dimensional C*-algebras.

The crossed product is the space of functions from the group into the algebra
with the normalized twisted convolution

    (f1 f2)(g) = (1/|G|) sum_h f1(h) alpha_h(f2(h^{-1} g))

and involution f*(g) = alpha_g(f(g^{-1}))*.  The same 1/|G| factor appears in
the integrated form of a covariant pair, so that the integrated form is
multiplicative and sends the constant-one function to the group averaging
projection.  Under this normalization the unit of the crossed product is |G|
times the indicator of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FdCStarAlgebra, make_algebra, tensor_power
from .groups import (FiniteGroup, Subgroup, UnitaryRep,
                     factor_permutation_index, group_from_json,
                     homomorphism_residual, permutation_rep, symmetric_group)
from .linalg import DEFAULT_TOL, op_norm, orthonormal_columns
from .structure import SpannedAlgebra, spanned_algebra


class GroupAction:
    """An action of a finite group on an algebra by *-automorphisms.

    Each group element acts on the coefficient space of the algebra, either
    as a permutation of the matrix-unit basis (stored as index arrays) or as
    a dense matrix.  Construction verifies that every map is a unital
    *-homomorphism and that the maps compose according to the group table:
    by exact integer comparisons for permutation actions, and at one generic
    pair x, y per map and one generic combination of the maps for dense ones.
    """

    def __init__(self, group: FiniteGroup, algebra: FdCStarAlgebra,
                 perm_maps=None, dense_maps=None, check: bool = True,
                 tol: float = DEFAULT_TOL):
        if (perm_maps is None) == (dense_maps is None):
            raise ValueError("provide exactly one of perm_maps, dense_maps")
        self.group = group
        self.algebra = algebra
        self.perm_maps = None if perm_maps is None else \
            np.asarray(perm_maps, dtype=np.int64)
        self.dense_maps = None if dense_maps is None else \
            np.asarray(dense_maps, dtype=complex)
        shape_ok = (self.perm_maps is not None and
                    self.perm_maps.shape == (group.order, algebra.dim)) or \
                   (self.dense_maps is not None and
                    self.dense_maps.shape == (group.order, algebra.dim,
                                              algebra.dim))
        if not shape_ok:
            raise ValueError("action maps have the wrong shape")
        if check:
            self._check(tol)

    @property
    def is_permutation(self) -> bool:
        return self.perm_maps is not None

    def apply(self, g: int, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=complex)
        if self.is_permutation:
            out = np.empty_like(coeffs)
            out[self.perm_maps[g]] = coeffs
            return out
        return self.dense_maps[g] @ coeffs

    def matrix(self, g: int) -> np.ndarray:
        if self.is_permutation:
            d = self.algebra.dim
            out = np.zeros((d, d), dtype=complex)
            out[self.perm_maps[g], np.arange(d)] = 1.0
            return out
        return self.dense_maps[g]

    def composed_images(self, g: int, images) -> np.ndarray:
        """Stacked images of basis elements, composed with the automorphism
        of g: entry i of the result is the image of alpha_g(basis_i)."""
        if self.is_permutation:
            return images[self.perm_maps[g]]
        return np.tensordot(self.dense_maps[g], images, axes=(0, 0))

    def _check(self, tol):
        grp, alg = self.group, self.algebra
        if self.is_permutation:
            table = alg.product_table()
            perms = self.perm_maps
            for g in range(grp.order):
                p = perms[g]
                if sorted(p) != list(range(alg.dim)):
                    raise ValueError("map is not a basis permutation")
                lhs = table[p][:, p]
                rhs = np.where(table >= 0, p[table], -1)
                if not np.array_equal(lhs, rhs):
                    raise ValueError("map is not multiplicative")
                if not np.array_equal(p[alg.star_index], alg.star_index[p]):
                    raise ValueError("map does not preserve adjoints")
            for g in range(grp.order):
                for h in range(grp.order):
                    if not np.array_equal(perms[grp.mult[g, h]],
                                          perms[g][perms[h]]):
                        raise ValueError("maps do not compose with the table")
        else:
            rng = np.random.default_rng(0)
            x, y = alg.random_element(rng), alg.random_element(rng)
            xy, unit = alg.multiply(x, y), alg.unit()
            for m in self.dense_maps:
                mx = m @ x
                if op_norm(alg.embed(mx) @ alg.embed(m @ y)
                           - alg.embed(m @ xy)) > tol * 10:
                    raise ValueError("map is not multiplicative")
                if np.linalg.norm(alg.star(mx) - m @ alg.star(x)) > tol * 10:
                    raise ValueError("map does not preserve adjoints")
                if np.linalg.norm(m @ unit - unit) > tol * 10:
                    raise ValueError("map does not fix the unit")
            if np.linalg.norm(homomorphism_residual(grp, self.dense_maps)) > \
                    tol * 10 * alg.dim:
                raise ValueError("maps do not compose with the table")

    def fixed_space(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal basis (rows) of the jointly fixed coefficient space.

        For permutation actions the fixed space is spanned by normalized orbit
        indicator vectors, computed exactly; dense actions go through the
        averaging operator.
        """
        d = self.algebra.dim
        if self.is_permutation:
            # the maps form a group, so column i is the orbit of unit i
            _, orbit, sizes = np.unique(self.perm_maps.min(axis=0),
                                        return_inverse=True, return_counts=True)
            rows = np.zeros((sizes.size, d), dtype=complex)
            rows[orbit, np.arange(d)] = 1.0 / np.sqrt(sizes[orbit])
            return rows
        avg = np.mean(self.dense_maps, axis=0)
        q = orthonormal_columns(avg, tol)
        return q.conj().T

    def restrict(self, sub: Subgroup) -> "GroupAction":
        """The same action viewed over a subgroup of the acting group."""
        if sub.ambient is not self.group:
            raise ValueError("subgroup does not live in the acting group")
        if self.is_permutation:
            maps = self.perm_maps[list(sub.elements)]
            return GroupAction(sub.group, self.algebra, perm_maps=maps,
                               check=False)
        maps = self.dense_maps[list(sub.elements)]
        return GroupAction(sub.group, self.algebra, dense_maps=maps,
                           check=False)


def trivial_action(algebra: FdCStarAlgebra, group: FiniteGroup) -> GroupAction:
    maps = np.tile(np.arange(algebra.dim), (group.order, 1))
    return GroupAction(group, algebra, perm_maps=maps, check=False)


def tensor_permutation_action(base: FdCStarAlgebra, n: int,
                              check: bool = False) -> GroupAction:
    """The symmetric group permuting the factors of an n-fold tensor power."""
    group = symmetric_group(n)
    power = tensor_power(base, n)
    maps = factor_permutation_index([base.dim] * n, group.perms)
    action = GroupAction(group, power, perm_maps=maps, check=check)
    action.base = base
    action.power_exponent = n
    return action


def block_permutation_action(algebra: FdCStarAlgebra, group: FiniteGroup,
                             block_perms=None, check: bool = True) -> GroupAction:
    """Action permuting blocks of equal size within the algebra.

    ``block_perms[g]`` is a permutation of the block indices; when omitted,
    the group's own permutation semantics act on the blocks (so a symmetric
    group on as many points as there are blocks permutes the coordinates of a
    commutative algebra).
    """
    if block_perms is None:
        if group.perms is None or len(group.perms[0]) != len(algebra.blocks):
            raise ValueError("group does not permute the blocks naturally")
        block_perms = group.perms
    maps = np.empty((group.order, algebra.dim), dtype=np.int64)
    for g in range(group.order):
        p = block_perms[g]
        for j, k in enumerate(algebra.blocks):
            if algebra.blocks[p[j]] != k:
                raise ValueError("permutation moves a block to one of a "
                                 "different size")
            maps[g, algebra.block_units[j].ravel()] = \
                algebra.block_units[p[j]].ravel()
    return GroupAction(group, algebra, perm_maps=maps, check=check)


def action_from_json(obj) -> GroupAction:
    """Build an action from its JSON form.

    Accepts {"tensor_permutation": {"base_blocks": [...], "n": n}} or
    {"group": <group json>, "blocks": [...], "maps": [per-element matrix]}
    with matrix entries as numbers or [re, im] pairs.
    """
    if "tensor_permutation" in obj:
        spec = obj["tensor_permutation"]
        return tensor_permutation_action(make_algebra(spec["base_blocks"]),
                                         int(spec["n"]))
    if "maps" in obj:
        group = group_from_json(obj["group"])
        algebra = make_algebra(obj["blocks"])

        def entry(e):
            return complex(e[0], e[1]) if isinstance(e, (list, tuple)) else complex(e)

        maps = np.array([[[entry(e) for e in row] for row in m]
                         for m in obj["maps"]])
        return GroupAction(group, algebra, dense_maps=maps)
    raise ValueError("unrecognized action spec")


# ---------------------------------------------------------------------------
# crossed product elements

@dataclass
class CrossedElement:
    """A function from group elements to algebra elements."""

    action: GroupAction
    values: np.ndarray  # (|G|, dim) coefficient rows

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        expected = (self.action.group.order, self.action.algebra.dim)
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}")


def crossed_unit(action: GroupAction) -> CrossedElement:
    vals = np.zeros((action.group.order, action.algebra.dim), dtype=complex)
    vals[action.group.identity] = action.group.order * action.algebra.unit()
    return CrossedElement(action, vals)


def corner_projection(action: GroupAction) -> CrossedElement:
    """The constant function with value one; a projection for convolution."""
    unit = action.algebra.unit()
    vals = np.tile(unit, (action.group.order, 1))
    return CrossedElement(action, vals)


def corner_embedding(action: GroupAction, x,
                     tol: float = DEFAULT_TOL) -> CrossedElement:
    """Embed a fixed element as the constant function with that value.

    The image is a *-isomorphism onto the compression of the crossed product
    by the corner projection; inputs that are not fixed by the action are
    rejected.
    """
    x = np.asarray(x, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(x)))
    for g in range(action.group.order):
        if np.linalg.norm(action.apply(g, x) - x) > tol * scale:
            raise ValueError("element is not fixed by the action")
    return CrossedElement(action, np.tile(x, (action.group.order, 1)))


def convolve(f1: CrossedElement, f2: CrossedElement) -> CrossedElement:
    if f1.action is not f2.action:
        raise ValueError("convolution requires elements of the same system")
    action = f1.action
    grp, alg = action.group, action.algebra
    lhs = np.stack([alg.embed(f1.values[h]) for h in range(grp.order)])
    out = np.zeros((grp.order, alg.dim), dtype=complex)
    for g in range(grp.order):
        acc = np.zeros((alg.ambient, alg.ambient), dtype=complex)
        for h in range(grp.order):
            arg = grp.mult[grp.inv[h], g]
            acc += lhs[h] @ alg.embed(action.apply(h, f2.values[arg]))
        out[g] = alg.coefficients(acc, check=False) / grp.order
    return CrossedElement(action, out)


def involution(f: CrossedElement) -> CrossedElement:
    action = f.action
    grp, alg = action.group, action.algebra
    out = np.zeros_like(f.values)
    for g in range(grp.order):
        out[g] = alg.star(action.apply(g, f.values[grp.inv[g]]))
    return CrossedElement(action, out)


# ---------------------------------------------------------------------------
# covariant pairs and integrated forms

class CovariantPair:
    """An algebra representation and a unitary group representation that are
    linked by the covariance relation pi(alpha_g(x)) = U_g pi(x) U_g*."""

    def __init__(self, action: GroupAction, pi_images, unitary: UnitaryRep,
                 check: bool = True, tol: float = DEFAULT_TOL):
        self.action = action
        self.pi = np.asarray(pi_images, dtype=complex)
        self.unitary = unitary
        if unitary.group is not action.group:
            raise ValueError("unitary representation is over the wrong group")
        if self.pi.shape[0] != action.algebra.dim or \
                self.pi.shape[1] != unitary.dim:
            raise ValueError("pi images have the wrong shape")
        if check:
            self._check(tol)

    @property
    def dim(self) -> int:
        return int(self.pi.shape[1])

    def apply(self, coeffs) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=complex), self.pi,
                            axes=(0, 0))

    def _check(self, tol):
        """Covariance at one generic x = sum_i c_i e_i for each g: the law is
        linear in x, so a generic x shows any failing basis element."""
        action = self.action
        c = action.algebra.random_element(np.random.default_rng(0))
        x = self.apply(c)
        scale = max(1.0, float(np.max(np.abs(self.pi), initial=0.0)))
        for g in range(action.group.order):
            u = self.unitary.mat(g)
            moved = self.apply(action.apply(g, c))
            if np.max(np.abs(moved - u @ x @ u.conj().T), initial=0.0) > \
                    100 * tol * scale:
                raise ValueError("pair fails the covariance relation")


def spatial_pair(action: GroupAction, check: bool = True) -> CovariantPair:
    """The defining pair of a tensor permutation system: the embedding of the
    power algebra together with the factor-permuting unitaries."""
    if not hasattr(action, "base"):
        raise ValueError("spatial pair needs a tensor permutation action")
    alg = action.algebra
    pi = alg.basis_matrices()
    tau = permutation_rep(action.power_exponent, action.base.ambient)
    return CovariantPair(action, pi, tau, check=check)


def integrated_form(pair: CovariantPair, f: CrossedElement) -> np.ndarray:
    """The representation of the crossed product determined by the pair."""
    if f.action is not pair.action:
        raise ValueError("element and pair live over different systems")
    grp = pair.action.group
    out = np.zeros((pair.dim, pair.dim), dtype=complex)
    for g in range(grp.order):
        out += pair.apply(f.values[g]) @ pair.unitary.mat(g)
    return out / grp.order


def group_average_projection(pair: CovariantPair) -> np.ndarray:
    """Mean of the group unitaries; the orthogonal projection onto the
    jointly fixed subspace."""
    return np.mean(pair.unitary.matrices, axis=0)


def fixed_point_algebra(action: GroupAction,
                        tol: float = DEFAULT_TOL) -> SpannedAlgebra:
    """The fixed-point subalgebra as a concrete span in the ambient space."""
    rows = action.fixed_space(tol)
    mats = np.stack([action.algebra.embed(r) for r in rows]) if rows.size \
        else np.zeros((0, action.algebra.ambient, action.algebra.ambient),
                      dtype=complex)
    return spanned_algebra(mats, tol, check=False)
