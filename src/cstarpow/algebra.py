"""Finite-dimensional C*-algebras and their tensor and symmetric powers.

An algebra is a direct sum of full matrix blocks, carried by a fixed faithful
embedding into one matrix space.  The linear basis consists of matrix units,
so every basis element is a single-entry 0/1 matrix; elements are coefficient
vectors over that basis.  Products, adjoints and coefficient extraction are
therefore exact: the span is precisely the set of matrices supported on the
basis positions, and that support set is closed under multiplication.

Tensor products keep this structure, because a Kronecker product of matrix
units is again a single-entry matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import BudgetError
from .groups import factor_permutation_index, symmetric_group
from .linalg import DEFAULT_TOL, op_norm, orthonormal_columns

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
        # index grid of each block's units, block_units[j][r, c] -> basis index
        self.block_units = []
        for j, k in enumerate(self.blocks):
            idx = np.nonzero(self.block_of == j)[0]
            grid = np.empty((k, k), dtype=np.int64)
            grid[self.local[idx, 0], self.local[idx, 1]] = idx
            self.block_units.append(grid)
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

    def coefficients(self, mat, check: bool = True,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
        mat = np.asarray(mat, dtype=complex)
        coeffs = mat[self.positions[:, 0], self.positions[:, 1]]
        if check:
            residual = np.linalg.norm(mat) ** 2 - np.linalg.norm(coeffs) ** 2
            scale = max(1.0, float(np.linalg.norm(mat)) ** 2)
            if abs(residual) > tol * scale:
                raise ValueError("matrix does not lie in the algebra span")
        return coeffs

    def multiply(self, x, y) -> np.ndarray:
        return self.coefficients(self.embed(x) @ self.embed(y), check=False)

    def star(self, x) -> np.ndarray:
        """The adjoint of an element, or of each row of a stack."""
        x = np.asarray(x, dtype=complex)
        out = np.empty_like(x)
        out[..., self.star_index] = np.conj(x)
        return out

    def norm(self, x) -> float:
        return op_norm(self.embed(x))

    def basis_matrices(self) -> np.ndarray:
        if self.dim * self.ambient ** 2 > MAX_DENSE_ENTRIES:
            raise BudgetError("materializing the full basis is too large")
        out = np.zeros((self.dim, self.ambient, self.ambient), dtype=complex)
        out[np.arange(self.dim), self.positions[:, 0], self.positions[:, 1]] = 1.0
        return out

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

    # -- block representations ---------------------------------------------

    def block_images(self, j: int) -> np.ndarray:
        """Images of all basis elements under the defining irrep of block j."""
        k = self.blocks[j]
        out = np.zeros((self.dim, k, k), dtype=complex)
        idx = np.nonzero(self.block_of == j)[0]
        out[idx, self.local[idx, 0], self.local[idx, 1]] = 1.0
        return out

    # -- random elements ----------------------------------------------------

    def random_element(self, rng) -> np.ndarray:
        return rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)

    def random_positive(self, rng) -> np.ndarray:
        x = self.random_element(rng)
        return self.multiply(self.star(x), x)

    def random_unitary(self, rng) -> np.ndarray:
        """Haar unitary: per-block QR of a complex Gaussian matrix with
        phase-normalized R diagonal."""
        out = np.zeros(self.dim, dtype=complex)
        for j, k in enumerate(self.blocks):
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            q, r = np.linalg.qr(g)
            d = np.diagonal(r)
            q = q * (d / np.abs(d))[None, :]
            out[self.block_units[j].ravel()] = q.ravel()
        return out

    def __repr__(self):
        return f"FdCStarAlgebra(blocks={list(self.blocks)})"


def make_algebra(blocks) -> FdCStarAlgebra:
    """Direct sum of full matrix blocks with its block-diagonal embedding."""
    blocks = tuple(int(k) for k in blocks)
    if not blocks or any(k <= 0 for k in blocks):
        raise ValueError("block sizes must be a non-empty list of positive ints")
    positions, block_of, local = [], [], []
    offset = 0
    for j, k in enumerate(blocks):
        for r in range(k):
            for c in range(k):
                positions.append((offset + r, offset + c))
                block_of.append(j)
                local.append((r, c))
        offset += k
    return FdCStarAlgebra(blocks, offset,
                          np.array(positions, dtype=np.int64),
                          np.array(block_of, dtype=np.int64),
                          np.array(local, dtype=np.int64))


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


# ---------------------------------------------------------------------------
# symmetrization and power maps on tensor powers

def symmetrize(a: FdCStarAlgebra, n: int, x) -> np.ndarray:
    """Average of x over all permutations of the tensor factors.

    The result is fixed by every factor permutation; the averaging map is
    idempotent, unital, and positive.  The permutations are closed under
    inverses, so reading x through each permutation's index averages the
    same terms as moving it.
    """
    x = np.asarray(x, dtype=complex)
    dest = factor_permutation_index([a.dim] * n, symmetric_group(n).perms)
    return np.mean(x[dest], axis=0)


def power_map(a: FdCStarAlgebra, x, n: int) -> np.ndarray:
    """The multiplicative power map x -> x tensor ... tensor x (n factors)."""
    x = np.asarray(x, dtype=complex)
    if a.dim ** n > MAX_DENSE_ENTRIES:
        raise BudgetError("tensor power coefficient space too large")
    return reduce(np.kron, [x] * n)


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

    @property
    def vectors(self) -> np.ndarray:
        """The orbit sums as dense coefficient rows of the power algebra,
        built on each read."""
        total = self.orbit.shape[0]
        if self.size * total > MAX_DENSE_ENTRIES:
            raise BudgetError(
                f"symmetric power basis needs {self.size}x{total} coefficients")
        out = np.zeros((self.size, total), dtype=complex)
        out[self.orbit, np.arange(total)] = 1.0
        return out


def symmetric_power_count(d: int, n: int) -> int:
    """Multisets of size n from d symbols."""
    return math.comb(d + n - 1, n)


def symmetric_power_basis(a: FdCStarAlgebra, n: int) -> SymmetricPowerBasis:
    """The orbit labels of the n-th tensor power's basis monomials.

    The multiset of a monomial is its sorted digit row; ``np.unique`` orders
    the distinct rows lexicographically, which is the
    ``combinations_with_replacement`` order of ``index``, and its inverse
    labels every monomial with its row.  The ``count x total`` bound also
    covers the dense arrays that the readers build from the labels (a
    one-component span's basis, the realization's accumulator).
    """
    total = a.dim ** n
    count = symmetric_power_count(a.dim, n)
    if count * total > MAX_DENSE_ENTRIES or total * n > MAX_DENSE_ENTRIES:
        raise BudgetError(
            f"symmetric power basis needs {count}x{total} coefficients")
    power = tensor_power(a, n)
    digits = np.stack(np.unravel_index(np.arange(total), (a.dim,) * n), axis=1)
    index, orbit = np.unique(np.sort(digits, axis=1), axis=0,
                             return_inverse=True)
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
        new = [basis]
        for g in gens:
            prod = mats @ g
            new.append(prod.reshape(current, ambient * ambient).T)
        basis = orthonormal_columns(np.concatenate(new, axis=1), tol)
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
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = a.random_element(rng)
        y = a.random_element(rng)
        x = x / max(a.norm(x), 1e-12)
        y = y / max(a.norm(y), 1e-12)
        xy = a.multiply(x, y)
        lhs = a.multiply(xy, xy)
        rhs = a.multiply(a.multiply(x, x), a.multiply(y, y))
        if a.norm(lhs - rhs) > tol:
            return False
    return True


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


def algebra_to_json(a: FdCStarAlgebra) -> dict:
    return {"blocks": list(a.blocks)}


def algebra_from_json(obj) -> FdCStarAlgebra:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ValueError('algebra spec must be {"blocks": [...]}')
    return make_algebra(obj["blocks"])


def element_to_json(coeffs) -> dict:
    coeffs = np.asarray(coeffs, dtype=complex)
    return {"coeffs": [[float(z.real), float(z.imag)] for z in coeffs]}


def element_from_json(obj, algebra: FdCStarAlgebra | None = None) -> np.ndarray:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ValueError('element spec must be {"coeffs": [[re, im], ...]}')
    out = np.array([complex(re, im) for re, im in obj["coeffs"]])
    if algebra is not None and out.shape[0] != algebra.dim:
        raise ValueError("coefficient count does not match the algebra")
    return out
