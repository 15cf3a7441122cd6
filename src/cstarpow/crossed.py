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
from functools import cached_property

import numpy as np

from .algebra import (MAX_DENSE_ENTRIES, FdCStarAlgebra, make_algebra,
                      tensor_power)
from .errors import BudgetError
from .groups import (FiniteGroup, Subgroup, UnitaryRep,
                     factor_permutation_index, group_from_json,
                     homomorphism_residual, permutation_rep, symmetric_group)
from .linalg import DEFAULT_TOL, Draws, op_norm, orthonormal_columns


class GroupAction:
    """An action of a finite group on an algebra by *-automorphisms.

    Each group element acts on the coefficient space of the algebra, either
    as a permutation of the matrix-unit basis (stored as index arrays) or as
    a dense matrix.  Construction verifies that every map is a unital
    *-homomorphism and that the maps compose according to the group table:
    exactly on indices for permutation actions, where each map must send
    every block's grid of units into one block by E_rc -> E'_(s(r), s(c)),
    one permutation s per grid, and commute with the adjoint; at one generic
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
        if self.is_permutation:  # the map of g^-1 inverts that of g
            return coeffs[self.perm_maps[self.group.inv[g]]]
        return self.dense_maps[g] @ coeffs

    def apply_each(self, rows) -> np.ndarray:
        """Row g of the result is alpha_g applied to row g of ``rows``."""
        rows = np.asarray(rows, dtype=complex)
        if self.is_permutation:
            return np.take_along_axis(rows, self.perm_maps[self.group.inv], 1)
        return (self.dense_maps @ rows[:, :, None])[:, :, 0]

    def matrix(self, g: int) -> np.ndarray:
        if self.is_permutation:  # column j is unit p_g(j)
            return np.identity(self.algebra.dim, complex)[:, self.perm_maps[g]]
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
            # index rows, identity and group table, exactly
            UnitaryRep(grp, dest=self.perm_maps)
            # a bijection of the units respects products exactly when each
            # grid goes into one block by E_rc -> E_s(r),s(c) (E_rr is an
            # idempotent and E_rc = E_rr E_rc E_cc); s is then injective, so
            # the grids fill blocks of their own size, largest first
            for units in alg._size_groups:
                image = self.perm_maps[:, units]
                block = alg.block_of[image]
                row, col = np.moveaxis(alg.local[image], -1, 0)
                if not (np.all(block == block[..., :1, :1])
                        and np.all(row == row[..., :1])
                        and np.all(col == col[..., :1, :])
                        and np.array_equal(np.diagonal(row, 0, -2, -1),
                                           np.diagonal(col, 0, -2, -1))):
                    raise ValueError("map is not multiplicative")
            if not np.array_equal(self.perm_maps[:, alg.star_index],
                                  alg.star_index[self.perm_maps]):
                raise ValueError("map does not preserve adjoints")
        else:
            rng = Draws(0)
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
        rows = list(sub.elements)
        if self.is_permutation:
            return GroupAction(sub.group, self.algebra,
                               perm_maps=self.perm_maps[rows], check=False)
        return GroupAction(sub.group, self.algebra,
                           dense_maps=self.dense_maps[rows], check=False)


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

        try:
            maps = np.array([[[entry(e) for e in row] for row in m]
                             for m in obj["maps"]])
        except (TypeError, IndexError) as exc:
            raise ValueError("action maps must be lists of matrices of "
                             "numbers or [re, im] pairs") from exc
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
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        expected = (self.action.group.order, self.action.algebra.dim)
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}")


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
    # row g of x[perm_maps] is alpha of g^-1: one gather moves x by every g
    moved = np.take(x, action.perm_maps) if action.is_permutation else \
        action.apply_each(np.broadcast_to(x, (action.group.order, x.size)))
    moved -= x
    parts = moved.view(float)  # row norms without a squared copy
    if np.any(np.sqrt(np.einsum("ij,ij->i", parts, parts)) > tol * scale):
        raise ValueError("element is not fixed by the action")
    moved[:] = x  # the checked buffer becomes the constant function
    return CrossedElement(action, moved)


# Entries of one tile of moved values in ``convolve``: large enough for
# efficient matrix products, small enough that a tile and its accumulator
# stay in cache across the whole sum over h.  Of 2^14 to 2^17, 2^14 was the
# fastest on 1x1 blocks and on matrix products, in float64 and complex128.
_CONVOLVE_TILE = 1 << 14


def convolve(f1: CrossedElement, f2: CrossedElement) -> CrossedElement:
    """Twisted convolution in block layout, batched over the group.

    Blocks of one size are handled together, on tiles of group elements g.
    For each h, one flat gather takes alpha_h(f2(h^{-1} g)) for every g of
    the tile with each block transposed, and one matrix product multiplies
    them all by the transposed blocks of f1(h), as (A B)^T = B^T A^T; 1x1
    blocks are gathered g-major and multiplied elementwise, into buffers of
    one tile.  No ambient matrix is formed.  Under a permutation action,
    operands with no imaginary part run the same kernel in float64 on their
    float views, where entry i is the float at offset 2i: no copy is made,
    and the result is the accumulator in the real slots.
    """
    if f1.action is not f2.action:
        raise ValueError("convolution requires elements of the same system")
    action = f1.action
    grp, alg = action.group, action.algebra
    order, dim = grp.order, alg.dim
    real = action.is_permutation and not (
        np.any(f1.values.imag) or np.any(f2.values.imag))
    stride = 2 if real else 1
    v1, v2 = (f.values.view(float) if real else f.values for f in (f1, f2))
    out = np.zeros((order, dim), dtype=complex) if real else \
        np.empty((order, dim), dtype=complex)
    flat = out.view(float) if real else out
    for units in alg._size_groups:
        count, k, _ = units.shape
        # grid[b, c, r] is the index of unit (r, c) of block b, so that a
        # gather by it holds each block transposed; 1x1 blocks go on the
        # last axis, so that their gather, laid out (b, g, c, r), is g-major
        grid = units.reshape(1, 1, -1) if k == 1 else units.transpose(0, 2, 1)
        at = grid * stride  # offsets of the entries in a row of v1 and v2
        step = max(1, _CONVOLVE_TILE // units.size)
        # one tile's buffers for all tiles; the last, partial one, a prefix
        ints = np.empty((2, at.size * min(step, order)), dtype=np.int64)
        vals = np.empty((3, ints.shape[1]), dtype=v2.dtype)
        for lo in range(0, order, step):
            tile = np.arange(lo, min(order, lo + step))
            target, idx, moved, prod, acc = (b[:at.size * tile.size].reshape(
                len(at), -1, *at.shape[1:]) for b in [*ints, *vals])
            np.add(at[:, None], (tile * (dim * stride))[:, None, None],
                   out=target)
            acc.fill(0)
            for h in range(order):
                hi = grp.inv[h]
                rows = grp.mult[hi, tile]  # h^-1 g
                if action.is_permutation:
                    # the maps form a group: that of h^-1 inverts that of h
                    src, cols = v2, action.perm_maps[hi][grid] * stride
                else:
                    src = f2.values[rows] @ action.dense_maps[h].T
                    cols, rows = grid, np.arange(tile.size)
                # idx is in range, and mode "raise" would buffer the output
                np.add(cols[:, None], (rows * (dim * stride))[:, None, None],
                       out=idx)
                np.take(src, idx, out=moved, mode="clip")
                left = v1[h][at]
                if k == 1:
                    np.multiply(moved, left, out=prod)
                else:
                    np.matmul(moved.reshape(count, -1, k), left,
                              out=prod.reshape(count, -1, k))
                acc += prod
            np.put(flat, target, acc)
    out /= order
    return CrossedElement(action, out)


def involution(f: CrossedElement) -> CrossedElement:
    """f*(g) = alpha_g(f(g^{-1}))*; for a permutation action, entry i of f*(g)
    is entry p_(g^-1)(star(i)) of f(g^{-1}), conjugated: one flat gather."""
    action = f.action
    grp, alg = action.group, action.algebra
    if not action.is_permutation:
        moved = action.apply_each(f.values[grp.inv])
        return CrossedElement(action, alg.star(moved))
    idx = action.perm_maps[grp.inv[:, None], alg.star_index]
    idx += grp.inv[:, None] * alg.dim
    out = np.take(f.values, idx)
    return CrossedElement(action, np.conjugate(out, out=out))


# ---------------------------------------------------------------------------
# covariant pairs and integrated forms

class CovariantPair:
    """An algebra representation and a unitary group representation that are
    linked by the covariance relation pi(alpha_g(x)) = U_g pi(x) U_g*.

    ``pi_images`` stacks the image of every basis element, or gives them as
    entry labels ``(which, row, col)``: pi(e_which) has a 1 at (row, col),
    and no two labels share an entry.  ``None`` stands for the labels of the
    algebra's own positions, so that pi(x) is ``algebra.embed(x)``.  For
    labels the stack ``pi`` is built only when it is read.
    """

    def __init__(self, action: GroupAction, pi_images, unitary: UnitaryRep,
                 check: bool = True, tol: float = DEFAULT_TOL):
        self.action = action
        self.unitary = unitary
        if unitary.group is not action.group:
            raise ValueError("unitary representation is over the wrong group")
        alg, n = action.algebra, unitary.dim
        if pi_images is None:
            pi_images = (np.arange(alg.dim), *alg.positions.T)
        self.labels = self._pi = None
        if isinstance(pi_images, tuple):
            labels = np.stack([np.asarray(a, dtype=np.int64).ravel()
                               for a in pi_images])
            if np.any((labels < 0) | (labels >= [[alg.dim], [n], [n]])):
                raise ValueError("pi labels are out of range")
            self.labels = which, row, col = tuple(labels)
            key = np.sort(row * n + col)
            if np.any(key[1:] == key[:-1]):
                raise ValueError("pi labels share an entry")
        else:
            self._pi = np.asarray(pi_images, dtype=complex)
            if self._pi.shape != (alg.dim, n, n):
                raise ValueError("pi images have the wrong shape")
        if check:
            self._check(tol)

    @property
    def dim(self) -> int:
        return self.unitary.dim

    @property
    def pi(self) -> np.ndarray:
        if self._pi is None:
            n, count = self.dim, self.action.algebra.dim
            if count * n * n > MAX_DENSE_ENTRIES:
                raise BudgetError(f"image stack of {count}x{n}x{n} entries")
            which, row, col = self.labels
            self._pi = np.zeros((count, n, n), dtype=complex)
            self._pi[which, row, col] = 1.0
        return self._pi

    @cached_property
    def _integration_index(self) -> np.ndarray:
        """Flat entry of E(row, col) U_g per g and label of a spatial pair."""
        _, row, col = self.labels
        inv = self.action.group.inv
        return row * self.dim + self.unitary.dest[inv[:, None], col]

    @property
    def is_spatial(self) -> bool:
        """Labelled images with a permutation unitary and action, where
        covariance and integrated forms reduce to index arithmetic."""
        return self.labels is not None and self.unitary.dest is not None \
            and self.action.is_permutation

    def apply(self, coeffs) -> np.ndarray:
        """pi of a coefficient vector, or of each row of a stack."""
        coeffs = np.asarray(coeffs, dtype=complex)
        n = self.dim
        if self.labels is not None:
            which, row, col = self.labels
            out = np.zeros(coeffs.shape[:-1] + (n, n), dtype=complex)
            out[..., row, col] = coeffs[..., which]
            return out
        out = coeffs @ self._pi.reshape(self._pi.shape[0], n * n)
        return out.reshape(coeffs.shape[:-1] + (n, n))

    def _check(self, tol):
        """Covariance, exactly on indices for a spatial pair: U_g E(r, c)
        U_g* is E(dest_g r, dest_g c), which must be an entry labelled with
        the element that alpha_g moves the label of E(r, c) to.  dest_g is a
        bijection and the entries are disjoint, so that is the whole law.
        Otherwise at one generic x = sum_i c_i e_i for every g at once: the
        law is linear in x, so a generic x shows any failing basis element."""
        action = self.action
        alg = action.algebra
        if self.is_spatial:
            which, row, col = self.labels
            n, dest = self.dim, self.unitary.dest
            key = row * n + col
            order = np.argsort(key)
            moved = dest[:, row] * n + dest[:, col]
            at = np.minimum(np.searchsorted(key[order], moved), key.size - 1)
            if not (np.array_equal(key[order][at], moved) and np.array_equal(
                    which[order][at], action.perm_maps[:, which])):
                raise ValueError("pair fails the covariance relation")
            return
        c = alg.random_element(Draws(0))
        x = self.apply(c)
        moved = self.apply(action.apply_each(
            np.broadcast_to(c, (action.group.order, alg.dim))))
        u = self.unitary.matrices
        moved -= u @ x @ u.conj().transpose(0, 2, 1)
        scale = 1.0 if self.labels is not None else \
            max(1.0, float(np.max(np.abs(self._pi), initial=0.0)))
        if np.max(np.abs(moved), initial=0.0) > 100 * tol * scale:
            raise ValueError("pair fails the covariance relation")

    def restrict(self, sub: Subgroup) -> "CovariantPair":
        """The same pair over a subgroup of the acting group, with the same
        images (labels stay labels)."""
        return CovariantPair(self.action.restrict(sub),
                             self._pi if self.labels is None else self.labels,
                             self.unitary.restrict(sub), check=False)


def spatial_pair(action: GroupAction, check: bool = True) -> CovariantPair:
    """The defining pair of a tensor permutation system: the matrix units of
    the power algebra together with the factor-permuting unitaries, both
    kept as index data."""
    if not hasattr(action, "base"):
        raise ValueError("spatial pair needs a tensor permutation action")
    tau = permutation_rep(action.power_exponent, action.base.ambient)
    return CovariantPair(action, None, tau, check=check)


def integrated_form(pair: CovariantPair, f: CrossedElement) -> np.ndarray:
    """The representation sum_g pi(f(g)) U_g / |G| of the crossed product
    determined by the pair, in one pass over the group."""
    if f.action is not pair.action:
        raise ValueError("element and pair live over different systems")
    grp, n = pair.action.group, pair.dim
    if pair.is_spatial:
        # E(r, c) U_g = E(r, dest_g^-1 c), and dest of g^-1 inverts dest_g;
        # distinct entries of one g land on distinct entries, so bincount
        # sums every entry over g in order
        flat = pair._integration_index.ravel()
        parts = f.values.view(float)  # entry i: real 2i, imaginary 2i + 1
        re, im = (np.take(parts, 2 * pair.labels[0] + j, axis=1).ravel()
                  for j in (0, 1))
        out = np.bincount(flat, re, n * n) + 1j * np.bincount(flat, im, n * n)
        return out.reshape(n, n) / grp.order
    imgs = pair.apply(f.values)
    out = imgs.transpose(1, 0, 2).reshape(n, grp.order * n) \
        @ pair.unitary.matrices.reshape(grp.order * n, n)
    return out / grp.order


def group_average_projection(pair: CovariantPair) -> np.ndarray:
    """Mean of the group unitaries; the orthogonal projection onto the
    jointly fixed subspace."""
    return pair.unitary.mean()
