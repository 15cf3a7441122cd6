import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarpow.algebra import make_algebra, symmetric_power_basis
from cstarpow.crossed import (CovariantPair, CrossedElement, GroupAction,
                              action_from_json, block_permutation_action,
                              convolve, corner_embedding, corner_projection,
                              crossed_unit, fixed_point_algebra,
                              group_average_projection, integrated_form,
                              involution, spatial_pair,
                              tensor_permutation_action, trivial_action)
from cstarpow.groups import (UnitaryRep, cyclic_group, symmetric_group,
                             young_subgroup)
from cstarpow.linalg import is_projection, op_norm
from oracles import naive_convolution


def fixed_element(action, rng):
    rows = action.fixed_space()
    c = rng.standard_normal(rows.shape[0]) + 1j * rng.standard_normal(rows.shape[0])
    return rows.T @ c


def random_crossed(action, rng):
    shape = (action.group.order, action.algebra.dim)
    return CrossedElement(action, rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))


@pytest.fixture(scope="module")
def swap_m2():
    return tensor_permutation_action(make_algebra([2]), 2, check=True)


def test_action_validation_catches_bad_maps(c2):
    g = symmetric_group(2)
    # a coefficient permutation that is not multiplicative: swap unit with a
    # different block's unit in C (x) C only on one coordinate
    m2 = make_algebra([2])
    bad = np.stack([np.arange(4), np.array([1, 0, 2, 3])])
    with pytest.raises(ValueError):
        GroupAction(g, m2, perm_maps=bad)


def test_action_homomorphism_table(swap_m2):
    g = swap_m2.group
    for a in range(g.order):
        for b in range(g.order):
            lhs = swap_m2.perm_maps[a][swap_m2.perm_maps[b]]
            assert np.array_equal(lhs, swap_m2.perm_maps[g.mult[a, b]])


def test_convolution_matches_direct_sum_oracle(swap_m2, rng):
    f1, f2 = random_crossed(swap_m2, rng), random_crossed(swap_m2, rng)
    out = convolve(f1, f2)
    expected = naive_convolution(swap_m2, f1.values, f2.values)
    assert np.max(np.abs(out.values - expected)) < 1e-10


def test_convolution_associative(swap_m2, rng):
    f1 = random_crossed(swap_m2, rng)
    f2 = random_crossed(swap_m2, rng)
    f3 = random_crossed(swap_m2, rng)
    lhs = convolve(convolve(f1, f2), f3)
    rhs = convolve(f1, convolve(f2, f3))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_crossed_unit_is_neutral(swap_m2, rng):
    one = crossed_unit(swap_m2)
    f = random_crossed(swap_m2, rng)
    assert np.allclose(convolve(one, f).values, f.values)
    assert np.allclose(convolve(f, one).values, f.values)


def test_corner_projection_identities(swap_m2):
    p = corner_projection(swap_m2)
    assert np.allclose(convolve(p, p).values, p.values)
    assert np.allclose(involution(p).values, p.values)


def test_involution_properties(swap_m2, rng):
    f1, f2 = random_crossed(swap_m2, rng), random_crossed(swap_m2, rng)
    assert np.allclose(involution(involution(f1)).values, f1.values)
    lhs = involution(convolve(f1, f2))
    rhs = convolve(involution(f2), involution(f1))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_corner_embedding(swap_m2, rng):
    x = fixed_element(swap_m2, rng)
    y = fixed_element(swap_m2, rng)
    ix, iy = corner_embedding(swap_m2, x), corner_embedding(swap_m2, y)
    alg = swap_m2.algebra
    prod = corner_embedding(swap_m2, alg.multiply(x, y))
    assert np.max(np.abs(convolve(ix, iy).values - prod.values)) < 1e-10
    star = corner_embedding(swap_m2, alg.star(x))
    assert np.allclose(involution(ix).values, star.values)
    p = corner_projection(swap_m2)
    sandwiched = convolve(p, convolve(ix, p))
    assert np.max(np.abs(sandwiched.values - ix.values)) < 1e-10
    assert np.allclose(corner_embedding(swap_m2, alg.unit()).values, p.values)
    with pytest.raises(ValueError):
        corner_embedding(swap_m2, alg.random_element(rng))


def test_corner_image_convolution_closed(swap_m2, rng):
    # products of embedded fixed elements stay in the embedded image
    fixed = swap_m2.fixed_space()
    images = []
    for row in fixed:
        images.append(corner_embedding(swap_m2, row).values.ravel())
    images = np.stack(images)
    base_rank = np.linalg.matrix_rank(images, tol=1e-8)
    assert base_rank == fixed.shape[0]
    for i in range(3):
        x, y = fixed_element(swap_m2, rng), fixed_element(swap_m2, rng)
        prod = convolve(corner_embedding(swap_m2, x),
                        corner_embedding(swap_m2, y)).values.ravel()
        stacked = np.concatenate([images, prod[None, :]])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == base_rank


def test_integrated_form_multiplicative(swap_m2, rng):
    pair = spatial_pair(swap_m2)
    f1, f2 = random_crossed(swap_m2, rng), random_crossed(swap_m2, rng)
    lhs = integrated_form(pair, convolve(f1, f2))
    rhs = integrated_form(pair, f1) @ integrated_form(pair, f2)
    assert op_norm(lhs - rhs) < 1e-9
    star = integrated_form(pair, involution(f1))
    assert op_norm(star - integrated_form(pair, f1).conj().T) < 1e-9
    assert np.allclose(integrated_form(pair, crossed_unit(swap_m2)),
                       np.eye(pair.dim))


def test_integrated_form_of_corner_is_average(swap_m2):
    pair = spatial_pair(swap_m2)
    pu = integrated_form(pair, corner_projection(swap_m2))
    assert np.allclose(pu, group_average_projection(pair))
    assert is_projection(pu, tol=1e-9)


def test_compression_formula(swap_m2, rng):
    pair = spatial_pair(swap_m2)
    pu = group_average_projection(pair)
    for _ in range(10):
        x = fixed_element(swap_m2, rng)
        out = integrated_form(pair, corner_embedding(swap_m2, x))
        assert op_norm(out - pair.apply(x) @ pu) < 1e-9
        assert op_norm(out - pu @ pair.apply(x)) < 1e-9


def test_corner_compression_essential_subspace(swap_m2):
    # the essential subspace of the corner-embedded image family is exactly
    # the range of the averaging projection
    from cstarpow.structure import essential_subspace
    pair = spatial_pair(swap_m2)
    pu = group_average_projection(pair)
    fixed = swap_m2.fixed_space()
    images = np.stack([integrated_form(pair, corner_embedding(swap_m2, row))
                       for row in fixed])
    assert op_norm(essential_subspace(images) - pu) < 1e-9


def test_average_projects_onto_joint_fixed_space(swap_m2):
    pair = spatial_pair(swap_m2)
    pu = group_average_projection(pair)
    # range of pu is exactly the joint fixed subspace of the unitaries
    for g in range(swap_m2.group.order):
        assert op_norm(pair.unitary.mat(g) @ pu - pu) < 1e-10
    rank = round(float(np.real(np.trace(pu))))
    sym = symmetric_power_basis(make_algebra([2]), 2)
    assert rank == 3  # symmetric square of C^2


def test_two_character_diagonalization_of_group_algebra():
    # the crossed product of the one-point algebra by the order-two group
    # splits along the two characters
    point = make_algebra([1])
    z2 = symmetric_group(2)
    action = trivial_action(point, z2)
    plus = CovariantPair(action, np.ones((1, 1, 1), dtype=complex),
                         UnitaryRep(z2, np.ones((2, 1, 1), dtype=complex)))
    minus = CovariantPair(action, np.ones((1, 1, 1), dtype=complex),
                          UnitaryRep(z2, np.array([[[1.0]], [[-1.0]]],
                                                  dtype=complex)))
    rng = np.random.default_rng(3)
    for _ in range(5):
        f1 = random_crossed(action, rng)
        f2 = random_crossed(action, rng)
        prod = convolve(f1, f2)
        for pair in (plus, minus):
            lhs = integrated_form(pair, prod)
            rhs = integrated_form(pair, f1) * integrated_form(pair, f2)
            assert abs(lhs[0, 0] - rhs[0, 0]) < 1e-10
    # the joint evaluation is a bijection onto C^2
    basis_images = []
    for g in range(2):
        vals = np.zeros((2, 1), dtype=complex)
        vals[g, 0] = 1.0
        f = CrossedElement(action, vals)
        basis_images.append([integrated_form(plus, f)[0, 0],
                             integrated_form(minus, f)[0, 0]])
    assert abs(np.linalg.det(np.array(basis_images))) > 1e-12


def test_fixed_point_algebra_dims(c2, m2, c3):
    assert fixed_point_algebra(trivial_action(m2, symmetric_group(2))).dim == 4
    assert fixed_point_algebra(tensor_permutation_action(m2, 2)).dim == 10
    assert fixed_point_algebra(tensor_permutation_action(c2, 3)).dim == 4
    swap = block_permutation_action(c2, symmetric_group(2))
    fixed = fixed_point_algebra(swap)
    assert fixed.dim == 1 and fixed.unital


def test_covariance_validation(swap_m2):
    tau = spatial_pair(swap_m2).unitary
    bad_pi = swap_m2.algebra.basis_matrices().copy()
    bad_pi[0], bad_pi[1] = bad_pi[1].copy(), bad_pi[0].copy()
    with pytest.raises(ValueError):
        CovariantPair(swap_m2, bad_pi, tau)


def test_action_json_round_trip(tmp_path):
    action = action_from_json(
        {"tensor_permutation": {"base_blocks": [2], "n": 2}})
    assert action.algebra.dim == 16 and action.group.order == 2

    # dense maps: the coordinate swap of the two-point algebra
    spec = {
        "group": {"symmetric": 2},
        "blocks": [1, 1],
        "maps": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    }
    dense = action_from_json(spec)
    assert not dense.is_permutation
    report_dim = fixed_point_algebra(dense).dim
    assert report_dim == 1

    table_spec = {
        "group": {"table": [[0, 1], [1, 0]]},
        "blocks": [1, 1],
        "maps": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    }
    assert action_from_json(table_spec).group.order == 2
    with pytest.raises(ValueError):
        action_from_json({"nonsense": 1})


def test_cyclic_rotation_action(c3):
    rot = block_permutation_action(
        c3, cyclic_group(3), block_perms=[(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    assert fixed_point_algebra(rot).dim == 1
    with pytest.raises(ValueError):
        block_permutation_action(make_algebra([1, 2]), symmetric_group(2))


@st.composite
def _permutation_actions(draw):
    """A permutation action: the factor permutations of a small tensor power
    restricted to a Young subgroup, or a rotation of equal blocks."""
    if draw(st.booleans()):
        blocks = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
        n = draw(st.integers(1, 3))
        q, room = [], n
        while room:
            q.append(draw(st.integers(1, room)))
            room -= q[-1]
        action = tensor_permutation_action(make_algebra(blocks), n)
        return action.restrict(young_subgroup(q, action.group))
    k = draw(st.integers(1, 2))
    count = draw(st.integers(1, 4))
    rotations = [tuple((i + r) % count for i in range(count))
                 for r in range(count)]
    return block_permutation_action(make_algebra([k] * count),
                                    cyclic_group(count), block_perms=rotations)


@settings(max_examples=30, deadline=None)
@given(_permutation_actions())
def test_orbit_fixed_space_matches_dense_averaging(action):
    dense = GroupAction(action.group, action.algebra,
                        dense_maps=np.stack([action.matrix(g) for g in
                                             range(action.group.order)]),
                        check=False)
    rows, ref = action.fixed_space(), dense.fixed_space()
    assert rows.shape == ref.shape
    assert np.allclose(rows.conj().T @ rows, ref.conj().T @ ref, atol=1e-10)
