import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarpow import algebra
from cstarpow.algebra import (FdCStarAlgebra, Representation,
                              algebra_from_json, generated_star_algebra,
                              make_algebra, power_map,
                              power_map_differential, radix_digits,
                              radix_pack, square_map_multiplicativity,
                              symmetric_power_basis, tensor_algebra,
                              tensor_power)
from cstarpow.crossed import tensor_permutation_action
from cstarpow.errors import BudgetError
from cstarpow.groups import symmetric_group
from oracles import (block_units_by_loop, embedded_multiply, embedded_norm,
                     full_symmetric_power_basis, make_algebra_arrays,
                     multiset_permutations, orbit_vectors, random_unitary,
                     sorted_block_monomials, sorted_row_orbit_labels,
                     symmetric_power_orbit_sums, symmetrize)


def test_make_algebra_shapes(c3, m2, m23):
    assert c3.blocks == (1, 1, 1) and c3.dim == 3 and c3.ambient == 3
    assert m2.blocks == (2,) and m2.dim == 4 and m2.ambient == 2
    assert m23.blocks == (2, 3) and m23.dim == 13 and m23.ambient == 5
    with pytest.raises(ValueError):
        make_algebra([])
    with pytest.raises(ValueError):
        make_algebra([0, 2])


def test_unit_and_star(m23, rng):
    unit = m23.unit()
    assert np.allclose(m23.embed(unit), np.eye(5))
    x = m23.random_element(rng)
    assert np.allclose(m23.embed(m23.star(x)), m23.embed(x).conj().T)
    assert np.allclose(m23.star(m23.star(x)), x)


def test_tensor_algebra_blocks(m2, c2, m23):
    t = tensor_algebra(m2, m2)
    assert t.blocks == (4,) and t.dim == 16
    t2 = tensor_algebra(c2, c2)
    assert t2.blocks == (1, 1, 1, 1)
    t3 = tensor_algebra(make_algebra([2, 1]), m2)
    assert t3.blocks == (4, 2) and t3.dim == 20  # 5 * 4 linear dimension


def test_tensor_power_dims(m2, c2):
    assert tensor_power(m2, 2).blocks == (4,)
    assert tensor_power(c2, 3).blocks == (1,) * 8
    assert tensor_power(make_algebra([2, 1]), 2).dim == 25


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=8),
       st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.integers(1, 3))
def test_block_units_match_the_loop(blocks, factor, n):
    # tensor powers list their basis in another order than make_algebra
    for alg in (make_algebra(blocks), tensor_power(make_algebra(factor), n),
                tensor_algebra(make_algebra(factor), make_algebra(blocks))):
        want = block_units_by_loop(alg)
        assert len(alg.block_units) == len(want)
        for got, grid in zip(alg.block_units, want):
            assert got.dtype == grid.dtype and np.array_equal(got, grid)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=6))
def test_radix_index_matches_numpy(dims):
    keys = np.arange(math.prod(dims))
    digits = radix_digits(keys, dims)
    assert np.array_equal(digits, np.unravel_index(keys, dims))
    assert np.array_equal(radix_pack(digits, dims), keys)
    # packing the identity gives the place values
    assert radix_pack(np.eye(len(dims), dtype=np.int64), dims).tolist() == [
        math.prod(dims[t + 1:]) for t in range(len(dims))]


def test_radix_index_past_numpy_s_64_axes():
    dims = (1, 2) * 40
    keys = np.array([0, 1, 2 ** 40 - 1, 12345])
    digits = radix_digits(keys, dims)
    assert digits.shape == (80, 4) and not digits[0::2].any()
    assert np.array_equal(radix_pack(digits, dims), keys)


def test_tensor_algebra_multiplication_is_kron(m2, rng):
    t = tensor_algebra(m2, m2)
    x1, x2 = m2.random_element(rng), m2.random_element(rng)
    y1, y2 = m2.random_element(rng), m2.random_element(rng)
    xy = t.multiply(np.kron(x1, y1), np.kron(x2, y2))
    assert np.allclose(xy, np.kron(m2.multiply(x1, x2), m2.multiply(y1, y2)))
    assert np.allclose(t.embed(np.kron(x1, y1)),
                       np.kron(m2.embed(x1), m2.embed(y1)))


def _swap(n):
    """Index of the permutation exchanging the first two of n points."""
    return symmetric_group(n).perms.index((1, 0) + tuple(range(2, n)))


def test_permutation_action_is_automorphism(m2, rng):
    power = tensor_power(m2, 3)
    act = tensor_permutation_action(m2, 3)
    x, y = power.random_element(rng), power.random_element(rng)
    for g in range(act.group.order):
        lhs = act.apply(g, power.multiply(x, y))
        rhs = power.multiply(act.apply(g, x), act.apply(g, y))
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        assert np.allclose(act.apply(g, power.star(x)),
                           power.star(act.apply(g, x)))


def test_permutation_action_composition(m2):
    act = tensor_permutation_action(m2, 3)
    perms = act.group.perms
    x = np.arange(64, dtype=complex)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            pq = perms.index(tuple(p[q[i]] for i in range(3)))
            assert np.allclose(act.apply(a, act.apply(b, x)),
                               act.apply(pq, x))
    act2 = tensor_permutation_action(m2, 2)
    x = np.arange(16, dtype=complex)
    assert np.allclose(act2.apply(act2.group.identity, x), x)


def test_permutation_action_swap_on_elementary_tensor(m2, rng):
    e, f = m2.random_element(rng), m2.random_element(rng)
    act = tensor_permutation_action(m2, 2)
    assert np.allclose(act.apply(_swap(2), np.kron(e, f)), np.kron(f, e))


def test_symmetrizer_properties(m2, rng):
    power = tensor_power(m2, 2)
    x = power.random_element(rng)
    ex = symmetrize(m2, 2, x)
    assert np.allclose(symmetrize(m2, 2, ex), ex)  # idempotent
    act = tensor_permutation_action(m2, 2)
    assert np.allclose(act.apply(_swap(2), ex), ex)
    assert np.allclose(symmetrize(m2, 2, power.unit()), power.unit())
    e, f = m2.random_element(rng), m2.random_element(rng)
    assert np.allclose(symmetrize(m2, 2, np.kron(e, f)),
                       (np.kron(e, f) + np.kron(f, e)) / 2)


def test_symmetrizer_positivity_order(m2, rng):
    # n! times the average dominates the element, for positive elements
    power = tensor_power(m2, 2)
    for _ in range(5):
        x = power.random_element(rng)
        x = power.multiply(power.star(x), x)
        gap = power.embed(2 * symmetrize(m2, 2, x) - x)
        eigs = np.linalg.eigvalsh(gap)
        assert eigs.min() > -1e-9 * max(1.0, abs(eigs).max())


def test_symmetrizer_trace_preserving(m2, rng):
    power = tensor_power(m2, 2)
    x = power.random_element(rng)
    assert np.isclose(np.trace(power.embed(symmetrize(m2, 2, x))),
                      np.trace(power.embed(x)))


def test_symmetrizer_image_is_symmetric_span(m2, rng):
    sym = full_symmetric_power_basis(m2, 2)
    power = tensor_power(m2, 2)
    stack = [orbit_vectors(sym)]
    for _ in range(5):
        stack.append(symmetrize(m2, 2, power.random_element(rng))[None, :])
    combined = np.concatenate(stack)
    assert np.linalg.matrix_rank(combined, tol=1e-8) == sym.size


def test_symmetric_power_basis_counts(c3, m2, m23):
    assert symmetric_power_basis(c3, 2).size == 6
    assert symmetric_power_basis(m2, 2).size == 10
    assert symmetric_power_basis(m23, 2).size == math.comb(14, 2) == 91


def test_symmetric_power_basis_vectors(m2):
    # the oracle's orbit sums on all 16 monomials of the tensor square
    sym = full_symmetric_power_basis(m2, 2)
    vectors = orbit_vectors(sym)
    assert np.linalg.matrix_rank(vectors) == sym.size
    act = tensor_permutation_action(m2, 2)
    for v in vectors:
        assert np.allclose(act.apply(_swap(2), v), v)
    for multiset, v in zip(sym.index, vectors):
        assert np.isclose(np.sum(v), len(multiset_permutations(multiset)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_symmetric_power_basis_matches_orbit_sums(data):
    a = make_algebra(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                        max_size=3)))
    # degree up to 4, with at most 4096 monomials for the dense reference
    n = data.draw(st.integers(1, max(k for k in range(1, 5)
                                     if a.dim ** k <= 4096)))
    sym = symmetric_power_basis(a, n)
    index, vectors = symmetric_power_orbit_sums(a.dim, n)
    assert sym.index == index
    # the listed monomials are those on sorted block sequences, each in the
    # one orbit sum that holds it
    listed = radix_pack(sym.digits, (a.dim,) * n)
    assert np.array_equal(np.sort(listed), sorted_block_monomials(a, n)[0])
    assert np.array_equal(vectors[:, listed], orbit_vectors(sym))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_key_orbit_labels_match_sorted_row_labels(data):
    a = make_algebra(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                        max_size=4)))
    n = data.draw(st.integers(1, max(k for k in range(1, 7)
                                     if a.dim ** k <= 50_000)))
    sym = symmetric_power_basis(a, n)
    index, orbit = sorted_row_orbit_labels(a.dim, n)
    assert sym.index == index
    assert np.array_equal(sym.orbit, orbit[radix_pack(sym.digits,
                                                      (a.dim,) * n)])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_listed_monomials_sit_at_their_places_in_the_sorted_blocks(data):
    a = make_algebra(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                        max_size=3)))
    n = data.draw(st.integers(1, max(k for k in range(1, 5)
                                     if a.dim ** k <= 4096)))
    sym = symmetric_power_basis(a, n)
    # the place in the block form of each ambient index of the tensor power
    # whose factors lie in a sorted block sequence, sequence by sequence
    offsets = np.cumsum([0, *a.blocks])
    place = {}
    for beta in itertools.combinations_with_replacement(range(len(a.blocks)),
                                                        n):
        for rows in itertools.product(*(range(a.blocks[j]) for j in beta)):
            full = 0
            for j, r in zip(beta, rows):
                full = full * a.ambient + offsets[j] + r
            place[full] = len(place)
    assert len(place) == sym.ambient
    row, col = tensor_power(a, n).positions[
        radix_pack(sym.digits, (a.dim,) * n)].T
    assert sym.entry.tolist() == [place[r] * sym.ambient + place[c]
                                  for r, c in zip(row, col)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=5))
def test_make_algebra_arrays_match_the_unit_by_unit_loop(blocks):
    a = make_algebra(blocks)
    for got, want in zip((a.positions, a.block_of, a.local),
                         make_algebra_arrays(blocks)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert a.ambient == sum(blocks)


def _agrees_with_embedded_oracles(a, x, y):
    """Block-native product and norm against the ambient-matrix ones."""
    prod = embedded_multiply(a, x, y)
    assert np.max(np.abs(a.multiply(x, y) - prod)) <= 1e-12 * max(
        1.0, np.max(np.abs(prod)))
    norm = embedded_norm(a, x)
    assert abs(a.norm(x) - norm) <= 1e-12 * norm


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_block_arithmetic_matches_the_embedded_oracles(data):
    blocks = st.lists(st.integers(1, 3), min_size=1, max_size=3)
    a = make_algebra(data.draw(blocks))
    form = data.draw(st.sampled_from(["sum", "tensor", "power"]))
    if form == "tensor":
        a = tensor_algebra(a, make_algebra(data.draw(blocks)))
    elif form == "power":
        a = tensor_power(a, 2 if a.ambient > 4 else 3)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x, y = a.random_element(rng), a.random_element(rng)
    _agrees_with_embedded_oracles(a, x, y)
    # an element of the last block alone, where every other block reads 0
    last = np.zeros(a.dim, dtype=complex)
    last[a.block_units[-1]] = x[a.block_units[-1]]
    _agrees_with_embedded_oracles(a, last, y)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stack_arithmetic_equals_the_per_row_calls(data):
    blocks = data.draw(st.lists(st.integers(1, 3), min_size=0, max_size=3))
    blocks.insert(data.draw(st.integers(0, len(blocks))), 1)
    a = make_algebra(blocks)
    shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                     max_size=2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x, y = (rng.standard_normal((2, *shape, a.dim))
            + 1j * rng.standard_normal((2, *shape, a.dim)))
    rows_x, rows_y = x.reshape(-1, a.dim), y.reshape(-1, a.dim)
    norms = a.norm(x)
    assert norms.shape == shape
    assert np.array_equal(norms.ravel(), [a.norm(r) for r in rows_x])
    assert all(type(a.norm(r)) is float for r in rows_x)
    prods = a.multiply(x, y)
    assert prods.shape == shape + (a.dim,)
    assert np.array_equal(prods.reshape(-1, a.dim),
                          [a.multiply(r, s) for r, s in zip(rows_x, rows_y)])
    # an element against a stack broadcasts
    assert np.array_equal(a.multiply(rows_x[0], y).reshape(-1, a.dim),
                          [a.multiply(rows_x[0], s) for s in rows_y])


def test_oracle_check_catches_a_norm_that_reads_one_size_group(monkeypatch):
    a = make_algebra([2, 1, 3])
    x = np.zeros(a.dim, dtype=complex)
    x[a.block_units[-1]] = np.arange(1, 10).reshape(3, 3)
    _agrees_with_embedded_oracles(a, x, x)

    def first_group_norm(self, x):
        units = self._size_groups[0]
        return float(np.linalg.svd(x[units], compute_uv=False).max())

    monkeypatch.setattr(FdCStarAlgebra, "norm", first_group_norm)
    with pytest.raises(AssertionError):
        _agrees_with_embedded_oracles(a, x, x)


def test_symmetric_power_budget_guard(m23):
    # the sum over sorted block sequences of prod k^2 is
    # (9^9 - 4^9) / 5 = 77,431,669 monomials of 8 digits each, refused
    # before any allocation
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="77431669x8 digits"):
            symmetric_power_basis(m23, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # degree 7 lists (9^8 - 4^8) / 5 of them, 60M digits under the cap
    assert 7 * (9 ** 8 - 4 ** 8) // 5 <= algebra.MAX_DENSE_ENTRIES


def test_orbit_sums_past_the_dense_bound_stay_labels():
    # 3876 orbit sums of 65536 monomials are over the dense bound: the
    # labels are built, and only the dense read is refused
    sym = symmetric_power_basis(make_algebra([4]), 4)
    assert sym.size == 3876 and sym.orbit.shape == (65536,)
    assert sym.size * sym.orbit.size > algebra.MAX_DENSE_ENTRIES
    with pytest.raises(BudgetError):
        orbit_vectors(sym)


def test_dense_orbit_sums_budget_guard(m2, monkeypatch):
    sym = symmetric_power_basis(m2, 2)
    monkeypatch.setattr(algebra, "MAX_DENSE_ENTRIES", sym.size * 16 - 1)
    with pytest.raises(BudgetError):
        orbit_vectors(sym)


def test_power_map_cases(m2, rng):
    assert np.allclose(power_map(m2, m2.unit(), 3),
                       tensor_power(m2, 3).unit())
    diag = np.array([1.0, 0.0, 0.0, 2.0], dtype=complex)  # diag(1, 2)
    power = tensor_power(m2, 2)
    assert np.allclose(np.diag(power.embed(power_map(m2, diag, 2))),
                       [1.0, 2.0, 2.0, 4.0])
    x, y = m2.random_element(rng), m2.random_element(rng)
    p3 = tensor_power(m2, 3)
    lhs = power_map(m2, m2.multiply(x, y), 3)
    rhs = p3.multiply(power_map(m2, x, 3), power_map(m2, y, 3))
    assert np.max(np.abs(lhs - rhs)) < 1e-9
    assert np.allclose(power_map(m2, m2.star(x), 3),
                       p3.star(power_map(m2, x, 3)))
    z = 0.3 - 1.1j
    assert np.allclose(power_map(m2, z * x, 3), z ** 3 * power_map(m2, x, 3))


def test_power_map_lands_in_symmetric_span(m2, rng):
    sym = full_symmetric_power_basis(m2, 2)
    x = m2.random_element(rng)
    v = power_map(m2, x, 2)
    vectors = orbit_vectors(sym).T
    coeffs, residual, *_ = np.linalg.lstsq(vectors, v, rcond=None)
    recon = vectors @ coeffs
    assert np.max(np.abs(recon - v)) < 1e-9


def test_power_map_differential(m2, rng):
    n = 3
    power = tensor_power(m2, n)
    unit = m2.unit()
    assert np.allclose(power_map_differential(m2, unit, n), n * power.unit())
    x = m2.random_element(rng)
    d2 = power_map_differential(m2, x, 2)
    assert np.allclose(d2, np.kron(x, unit) + np.kron(unit, x))
    assert np.allclose(power_map_differential(m2, m2.star(x), n),
                       power.star(power_map_differential(m2, x, n)))
    # averaging a slot insertion reproduces the differential up to factorials
    b = m2.random_element(rng)
    slot = np.kron(b, np.kron(unit, unit))
    lhs = math.factorial(n) * symmetrize(m2, n, slot)
    rhs = math.factorial(n - 1) * power_map_differential(m2, b, n)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_generated_star_algebra_cases(m2, rng):
    span = generated_star_algebra([np.eye(3, dtype=complex)], 3)
    assert span.shape[0] == 1

    # the derivative elements generate the full symmetric span
    eye = np.eye(m2.dim)
    power = tensor_power(m2, 2)
    seeds = [power.embed(power_map_differential(m2, eye[i], 2))
             for i in range(m2.dim)]
    span = generated_star_algebra(seeds, power.ambient)
    sym = full_symmetric_power_basis(m2, 2)
    assert span.shape[0] == sym.size == 10
    sym_mats = np.stack([power.embed(v) for v in orbit_vectors(sym)])
    combined = np.concatenate([span.reshape(10, -1),
                               sym_mats.reshape(10, -1)])
    assert np.linalg.matrix_rank(combined, tol=1e-8) == 10

    # one generic Hermitian generates the commutative span of its powers
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (x + x.conj().T) / 2
    span = generated_star_algebra([h], 3)
    assert span.shape[0] == 3


def test_square_map_multiplicativity(c3, m2):
    assert square_map_multiplicativity(c3, trials=50)
    assert not square_map_multiplicativity(m2, trials=100)
    assert not square_map_multiplicativity(make_algebra([2, 1]), trials=100)


def test_power_map_of_unitaries_is_unitary(m2, rng):
    power = tensor_power(m2, 3)
    for _ in range(5):
        u = random_unitary(m2, rng)
        gu = power_map(m2, u, 3)
        assert abs(power.norm(gu) - 1.0) < 1e-9
        assert np.allclose(power.multiply(power.star(gu), gu), power.unit())


def test_representation_images(m23, rng):
    rep = Representation(m23, (1, 2))
    assert rep.dim == 2 + 6
    assert not rep.is_irreducible
    assert Representation(m23, (0, 1)).is_irreducible
    images = rep.images()
    x, y = m23.random_element(rng), m23.random_element(rng)
    lhs = rep.apply(m23.multiply(x, y))
    rhs = rep.apply(x) @ rep.apply(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    assert np.allclose(rep.apply(m23.star(x)), rep.apply(x).conj().T)
    assert images.shape == (13, 8, 8)


def test_json_round_trips(m23):
    again = algebra_from_json({"blocks": list(m23.blocks)})
    assert again.blocks == m23.blocks
    with pytest.raises(ValueError):
        algebra_from_json({"rows": 3})
