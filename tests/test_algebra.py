import math

import numpy as np
import pytest

from cstarpow.algebra import (Representation, algebra_from_json,
                              algebra_to_json, element_from_json,
                              element_to_json, generated_star_algebra,
                              make_algebra, power_map,
                              power_map_differential,
                              square_map_multiplicativity,
                              symmetric_power_basis, symmetrize,
                              tensor_algebra, tensor_power)
from cstarpow.crossed import tensor_permutation_action
from cstarpow.errors import BudgetError
from cstarpow.groups import symmetric_group
from oracles import multiset_permutations


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


def test_coefficients_membership_check(m2):
    outside = np.eye(2, dtype=complex)
    assert m2.coefficients(outside).shape == (4,)
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 0] = 1.0
    with pytest.raises(ValueError):
        make_algebra([1, 2]).coefficients(np.array([[0, 1, 0], [0, 0, 0],
                                                    [0, 0, 0]], dtype=complex))


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
        x = power.random_positive(rng)
        gap = power.embed(2 * symmetrize(m2, 2, x) - x)
        eigs = np.linalg.eigvalsh(gap)
        assert eigs.min() > -1e-9 * max(1.0, abs(eigs).max())


def test_symmetrizer_trace_preserving(m2, rng):
    power = tensor_power(m2, 2)
    x = power.random_element(rng)
    assert np.isclose(np.trace(power.embed(symmetrize(m2, 2, x))),
                      np.trace(power.embed(x)))


def test_symmetrizer_image_is_symmetric_span(m2, rng):
    sym = symmetric_power_basis(m2, 2)
    power = tensor_power(m2, 2)
    stack = [sym.vectors]
    for _ in range(5):
        stack.append(symmetrize(m2, 2, power.random_element(rng))[None, :])
    combined = np.concatenate(stack)
    assert np.linalg.matrix_rank(combined, tol=1e-8) == sym.size


def test_symmetric_power_basis_counts(c3, m2, m23):
    assert symmetric_power_basis(c3, 2).size == 6
    assert symmetric_power_basis(m2, 2).size == 10
    assert symmetric_power_basis(m23, 2).size == math.comb(14, 2) == 91


def test_symmetric_power_basis_vectors(m2):
    sym = symmetric_power_basis(m2, 2)
    rank = np.linalg.matrix_rank(sym.vectors)
    assert rank == sym.size
    act = tensor_permutation_action(m2, 2)
    for v in sym.vectors:
        assert np.allclose(act.apply(_swap(2), v), v)
    for multiset, v in zip(sym.index, sym.vectors):
        assert np.isclose(np.sum(v), len(multiset_permutations(multiset)))


def test_symmetric_power_budget_guard(m23):
    with pytest.raises(BudgetError):
        symmetric_power_basis(m23, 3, max_entries=1000)


def test_power_map_cases(m2, rng):
    assert np.allclose(power_map(m2, m2.unit(), 3),
                       tensor_power(m2, 3).unit())
    diag = m2.coefficients(np.diag([1.0, 2.0]).astype(complex))
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
    sym = symmetric_power_basis(m2, 2)
    x = m2.random_element(rng)
    v = power_map(m2, x, 2)
    coeffs, residual, *_ = np.linalg.lstsq(sym.vectors.T, v, rcond=None)
    recon = sym.vectors.T @ coeffs
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
    sym = symmetric_power_basis(m2, 2)
    assert span.shape[0] == sym.size == 10
    sym_mats = np.stack([power.embed(v) for v in sym.vectors])
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
        u = m2.random_unitary(rng)
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


def test_json_round_trips(m23, rng):
    spec = algebra_to_json(m23)
    assert spec == {"blocks": [2, 3]}
    again = algebra_from_json(spec)
    assert again.blocks == m23.blocks
    x = m23.random_element(rng)
    back = element_from_json(element_to_json(x), m23)
    assert np.allclose(back, x)
    with pytest.raises(ValueError):
        algebra_from_json({"rows": 3})
    with pytest.raises(ValueError):
        element_from_json({"coeffs": [[0.0, 0.0]]}, m23)
