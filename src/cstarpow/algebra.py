"""Finite-dimensional C*-algebras and their tensor and symmetric powers.

An algebra is a direct sum of full matrix blocks, carried by a fixed faithful
embedding into one matrix space.  The linear basis consists of matrix units,
so every basis element is a single-entry 0/1 matrix; elements are coefficient
vectors over that basis.  Products and adjoints are therefore exact: the
span is precisely the set of matrices supported on the basis positions, and
that support set is closed under multiplication.

Tensor products keep this structure, because a Kronecker product of matrix
units is again a single-entry matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import BudgetError
from .linalg import DEFAULT_TOL, Draws, orthonormal_columns

# Caps for materializing large coefficient-space objects (entries, not bytes).
MAX_DENSE_ENTRIES = 70_000_000


class FdCStarAlgebra:
    """A direct sum of matrix blocks with a fixed matrix-unit basis.

    Attributes:
        blocks: sizes of the matrix blocks.
        dim: linear dimension, the sum of the squared block sizes.
        ambient: size of the carrying matrix space.
        positions: (dim, 2) array, the (row, col) of each basis unit.
        block_of: block index of each basis unit.
        local: (dim, 2) within-block (row, col) of each basis unit.
        star_index: permutation with basis_i* = basis_{star_index[i]}.
    """

    def __init__(self, blocks, ambient, positions, block_of, local):
        self.blocks = tuple(int(k) for k in blocks)
        self.ambient = int(ambient)
        self.dim = int(positions.shape[0])
        self.positions = positions
        self.block_of = block_of
        self.local = local
        if self.dim != sum(k * k for k in self.blocks):
            raise ValueError("basis size does not match block sizes")
        keys = positions[:, 0] * self.ambient + positions[:, 1]
        order = np.argsort(keys)
        self._sorted_keys = keys[order]
        self._key_order = order
        star_keys = positions[:, 1] * self.ambient + positions[:, 0]
        self.star_index = self._lookup(star_keys)
        if np.any(self.star_index < 0):
            raise ValueError("basis positions are not closed under transpose")
        # block_units[j][r, c] -> basis index, at slot start[j] + r k + c
        sizes = np.array(self.blocks, dtype=np.int64)
        start = np.cumsum(sizes ** 2) - sizes ** 2
        slots = np.empty(self.dim, dtype=np.int64)
        slots[start[block_of] + local[:, 0] * sizes[block_of]
              + local[:, 1]] = np.arange(self.dim)
        self.block_units = [slots[a:a + k * k].reshape(k, k)
                            for a, k in zip(start, self.blocks)]
        # block_units stacked per block size: x[units] is a stack of blocks
        self._size_groups = [
            np.stack([u for u in self.block_units if len(u) == k])
            for k in sorted(set(self.blocks))]
        self._product_table = None

    def _lookup(self, keys):
        """Map position keys (row*ambient+col) to basis indices, -1 if absent."""
        pos = np.searchsorted(self._sorted_keys, keys)
        pos = np.clip(pos, 0, self.dim - 1)
        found = self._sorted_keys[pos] == keys
        out = np.where(found, self._key_order[pos], -1)
        return out

    # -- element arithmetic (elements are complex coefficient vectors) -----

    def unit(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        out[self.positions[:, 0] == self.positions[:, 1]] = 1.0
        return out

    def embed(self, coeffs) -> np.ndarray:
        """The ambient matrix of a coefficient vector, or the stack of
        matrices of a stack of coefficient rows."""
        coeffs = np.asarray(coeffs, dtype=complex)
        out = np.zeros(coeffs.shape[:-1] + (self.ambient, self.ambient),
                       dtype=complex)
        out[..., self.positions[:, 0], self.positions[:, 1]] = coeffs
        return out

    def multiply(self, x, y) -> np.ndarray:
        """The product, one batched matmul per block size; stacks broadcast."""
        x, y = np.asarray(x), np.asarray(y)
        out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
        for units in self._size_groups:
            out[..., units] = x[..., units] @ y[..., units]
        return out

    def star(self, x) -> np.ndarray:
        """The adjoint of an element, or of each row of a stack."""
        x = np.asarray(x, dtype=complex)
        out = np.empty_like(x)
        out[..., self.star_index] = np.conj(x)
        return out

    def norm(self, x):
        """The operator norm, the largest block norm, from one SVD call per
        size; a stack ``(..., dim)`` gives the norms ``(...)``."""
        x = np.asarray(x)
        out = np.max([np.linalg.svd(x[..., units], compute_uv=False)
                      .max(axis=(-2, -1)) for units in self._size_groups],
                     axis=0)
        return float(out) if x.ndim == 1 else out

    def product_table(self) -> np.ndarray:
        """(dim, dim) table with basis_i basis_j = basis_{T[i,j]}, -1 for zero."""
        if self._product_table is None:
            if self.dim ** 2 > MAX_DENSE_ENTRIES:
                raise BudgetError("product table too large")
            rows = self.positions[:, 0]
            cols = self.positions[:, 1]
            match = cols[:, None] == rows[None, :]
            keys = rows[:, None] * self.ambient + cols[None, :]
            table = self._lookup(keys.ravel()).reshape(self.dim, self.dim)
            table[~match] = -1
            self._product_table = table
        return self._product_table

    # -- random elements ----------------------------------------------------

    def random_element(self, rng) -> np.ndarray:
        return Draws.complex_normal(rng, self.dim)

    def __repr__(self):
        return f"FdCStarAlgebra(blocks={list(self.blocks)})"


def make_algebra(blocks) -> FdCStarAlgebra:
    """Direct sum of full matrix blocks with its block-diagonal embedding."""
    blocks = tuple(int(k) for k in blocks)
    if not blocks or any(k <= 0 for k in blocks):
        raise ValueError("block sizes must be a non-empty list of positive ints")
    # block by block, each block row-major
    local = np.concatenate([np.stack(np.divmod(np.arange(k * k), k), axis=1)
                            for k in blocks])
    block_of = np.repeat(np.arange(len(blocks)), [k * k for k in blocks])
    offsets = np.cumsum([0, *blocks])
    return FdCStarAlgebra(blocks, offsets[-1],
                          local + offsets[block_of][:, None], block_of, local)


def tensor_algebra(a: FdCStarAlgebra, b: FdCStarAlgebra) -> FdCStarAlgebra:
    """Tensor product, carried by the Kronecker product embedding.

    Blocks multiply pairwise and the basis consists of the pairwise Kronecker
    products of the factor bases, ordered with the first factor major.
    """
    blocks = [ka * kb for ka in a.blocks for kb in b.blocks]
    nb = len(b.blocks)
    ra, ca = a.positions[:, 0], a.positions[:, 1]
    rb, cb = b.positions[:, 0], b.positions[:, 1]
    rows = (ra[:, None] * b.ambient + rb[None, :]).ravel()
    cols = (ca[:, None] * b.ambient + cb[None, :]).ravel()
    block_of = (a.block_of[:, None] * nb + b.block_of[None, :]).ravel()
    kb_of = np.array([b.blocks[j] for j in b.block_of], dtype=np.int64)
    lr = (a.local[:, 0][:, None] * kb_of[None, :] + b.local[:, 0][None, :]).ravel()
    lc = (a.local[:, 1][:, None] * kb_of[None, :] + b.local[:, 1][None, :]).ravel()
    return FdCStarAlgebra(blocks, a.ambient * b.ambient,
                          np.stack([rows, cols], axis=1),
                          block_of, np.stack([lr, lc], axis=1))


def tensor_power(a: FdCStarAlgebra, n: int) -> FdCStarAlgebra:
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    out = a
    for _ in range(n - 1):
        out = tensor_algebra(out, a)
    return out


def radix_digits(keys, dims) -> np.ndarray:
    """``np.stack(np.unravel_index(keys, dims))`` for flat keys of a tensor
    product basis, first factor most significant, without an array of
    len(dims) axes, which numpy caps at 64."""
    digits = np.empty((len(dims), keys.size), dtype=np.int64)
    for j in range(len(dims) - 1, 0, -1):
        keys, digits[j] = np.divmod(keys, dims[j])
    digits[0] = keys
    return digits


def radix_pack(digits, dims) -> np.ndarray:
    """The keys of digit rows, row t for factor t, the inverse of
    ``radix_digits`` by Horner's rule; the identity matrix packs to the
    place value of each factor."""
    keys = np.zeros(np.shape(digits)[1:], dtype=np.int64)
    for row, k in zip(digits, dims):
        keys *= k
        keys += row
    return keys


# ---------------------------------------------------------------------------
# power maps on tensor powers

def power_map(a: FdCStarAlgebra, x, n: int) -> np.ndarray:
    """The multiplicative power map x -> x tensor ... tensor x (n factors)."""
    x = np.asarray(x, dtype=complex)
    if a.dim ** n > MAX_DENSE_ENTRIES:
        raise BudgetError("tensor power coefficient space too large")
    return reduce(lambda p, _: np.multiply.outer(p, x).ravel(),
                  range(n - 1), x)


def power_map_differential(a: FdCStarAlgebra, x, n: int) -> np.ndarray:
    """Sum over slots of unit tensor ... tensor x tensor ... tensor unit.

    This is the derivative of the power map at the unit; it is linear and
    star-preserving, and its values generate the symmetric part of the power.
    """
    x = np.asarray(x, dtype=complex)
    u = a.unit()
    out = np.zeros(a.dim ** n, dtype=complex)
    for slot in range(n):
        factors = [u] * n
        factors[slot] = x
        out += reduce(np.kron, factors)
    return out


# ---------------------------------------------------------------------------
# the symmetric power basis

@dataclass
class SymmetricPowerBasis:
    """Orbit-sum basis of the permutation-fixed part of a tensor power.

    ``index`` lists the size-n multisets of basis indices of the base algebra
    (as sorted tuples, in ``combinations_with_replacement`` order).  The orbit
    sum of ``index[i]`` is the sum of the basis monomials of the power algebra
    whose digits form that multiset, so every monomial lies in exactly one
    orbit sum, with coefficient 1; ``orbit[m]`` is the row of ``index`` that
    holds monomial m.
    """

    base: FdCStarAlgebra
    power: FdCStarAlgebra
    n: int
    index: tuple
    orbit: np.ndarray

    @property
    def size(self) -> int:
        return len(self.index)


def symmetric_power_count(d: int, n: int) -> int:
    """Multisets of size n from d symbols."""
    return math.comb(d + n - 1, n)


def symmetric_power_basis(a: FdCStarAlgebra, n: int) -> SymmetricPowerBasis:
    """The orbit labels of the n-th tensor power's basis monomials.

    The multiset of a monomial is its sorted digit row, packed into one key
    below ``total`` in radix ``a.dim``.  Key order is the lexicographic, or
    ``combinations_with_replacement``, order of ``index``, so a 1-D
    ``np.unique`` gives ``index`` and, by its inverse, the row of every
    monomial.  The guard bounds the ``total x n`` digits.
    """
    total = a.dim ** n
    if total * n > MAX_DENSE_ENTRIES:
        raise BudgetError(f"symmetric power basis needs {total}x{n} digits")
    power = tensor_power(a, n)
    dims = (a.dim,) * n
    digits = radix_digits(np.arange(total), dims)
    digits.sort(axis=0)
    keys, orbit = np.unique(radix_pack(digits, dims), return_inverse=True)
    index = radix_digits(keys, dims).T
    return SymmetricPowerBasis(a, power, n, tuple(map(tuple, index.tolist())),
                               orbit.reshape(-1))


# ---------------------------------------------------------------------------
# generated *-algebras and commutativity detection

def generated_star_algebra(seeds, ambient: int,
                           tol: float = DEFAULT_TOL) -> np.ndarray:
    """Basis of the smallest unital subspace containing the seeds that is
    closed under products and adjoints.

    Works degree by degree: multiplies the current span by the generators and
    re-orthonormalizes until the rank is stable for a round.  Returns the
    orthonormalized basis as an array of matrices.
    """
    gens = [np.asarray(s, dtype=complex) for s in seeds]
    gens = gens + [g.conj().T for g in gens]
    span = [np.eye(ambient, dtype=complex)] + [g.copy() for g in gens]
    basis = orthonormal_columns(
        np.stack([m.ravel() for m in span], axis=1), tol)
    while True:
        current = basis.shape[1]
        mats = basis.T.reshape(current, ambient, ambient)
        new = [(mats @ g).reshape(current, ambient * ambient).T for g in gens]
        basis = orthonormal_columns(np.concatenate([basis, *new], axis=1), tol)
        if basis.shape[1] == current:
            break
    return basis.T.reshape(basis.shape[1], ambient, ambient)


def square_map_multiplicativity(a: FdCStarAlgebra, trials: int = 100,
                                seed: int = 0,
                                tol: float = DEFAULT_TOL) -> bool:
    """Whether squaring respects products on random pairs.

    True exactly when the algebra is commutative (all blocks of size one): a
    single random pair in any matrix block of size >= 2 witnesses failure
    with probability one.
    """
    rng = Draws(seed)
    shape = (trials, 2, a.dim)
    pairs = rng.complex_normal(shape)
    pairs = pairs / np.maximum(a.norm(pairs), 1e-12)[..., None]
    x, y = pairs[:, 0], pairs[:, 1]
    xy = a.multiply(x, y)
    rhs = a.multiply(a.multiply(x, x), a.multiply(y, y))
    return not np.any(a.norm(a.multiply(xy, xy) - rhs) > tol)


# ---------------------------------------------------------------------------
# representations with explicit multiplicities

@dataclass
class Representation:
    """A representation of the algebra given by block multiplicities.

    The representation acts on the direct sum of ``multiplicities[j]`` copies
    of the defining space of block j; it is irreducible exactly when one
    multiplicity is 1 and the rest vanish.
    """

    algebra: FdCStarAlgebra
    multiplicities: tuple

    def __post_init__(self):
        self.multiplicities = tuple(int(m) for m in self.multiplicities)
        if len(self.multiplicities) != len(self.algebra.blocks):
            raise ValueError("need one multiplicity per block")
        if any(m < 0 for m in self.multiplicities):
            raise ValueError("multiplicities must be non-negative")

    @property
    def dim(self) -> int:
        return sum(m * k for m, k in zip(self.multiplicities,
                                         self.algebra.blocks))

    @property
    def is_irreducible(self) -> bool:
        return sorted(self.multiplicities) == [0] * (len(self.multiplicities) - 1) + [1]

    def images(self) -> np.ndarray:
        """Images of every basis element, stacked as a (dim, N, N) array."""
        a = self.algebra
        out = np.zeros((a.dim, self.dim, self.dim), dtype=complex)
        offset = 0
        for j, (m, k) in enumerate(zip(self.multiplicities, a.blocks)):
            idx = np.nonzero(a.block_of == j)[0]
            for _ in range(m):
                out[idx, offset + a.local[idx, 0], offset + a.local[idx, 1]] = 1.0
                offset += k
        return out

    def apply(self, coeffs) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=complex),
                            self.images(), axes=(0, 0))


def algebra_from_json(obj) -> FdCStarAlgebra:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ValueError('algebra spec must be {"blocks": [...]}')
    return make_algebra(obj["blocks"])
