import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarpow import crossed
from cstarpow.algebra import (make_algebra, symmetric_power_basis,
                              tensor_algebra, tensor_power)
from cstarpow.crossed import (CovariantPair, CrossedElement, GroupAction,
                              action_from_json, block_permutation_action,
                              convolve, corner_embedding, corner_projection,
                              group_average_projection, integrated_form,
                              involution, spatial_pair,
                              tensor_permutation_action)
from cstarpow.groups import (UnitaryRep, cyclic_group, permutation_rep,
                             symmetric_group, trivial_subgroup, young_subgroup)
from cstarpow.induction import induce
from cstarpow.linalg import op_norm
from oracles import (coefficients, compositions, crossed_unit, is_projection,
                     is_multiplicative_by_table, naive_convolution,
                     naive_integrated_form, naive_involution,
                     position_star_index, product_table, random_unitary,
                     trivial_action)


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


def test_action_validation_catches_a_table_failure(c2):
    # each map is a *-automorphism of C (+) C, but the identity acts by the
    # swap, so the maps do not follow the group table
    g = cyclic_group(2)
    assert g.identity == 0
    maps = np.array([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        GroupAction(g, c2, perm_maps=maps)
    GroupAction(g, c2, perm_maps=maps[::-1])


@st.composite
def _small_algebras(draw):
    """make_algebra, tensor_algebra and tensor_power algebras of dimension
    at most 27."""
    factors = st.sampled_from([[1, 1], [2], [2, 1], [1, 1, 1]])
    kind = draw(st.sampled_from(["sum", "tensor", "power"]))
    if kind == "sum":
        return make_algebra(draw(st.lists(st.integers(1, 3), min_size=1,
                                          max_size=3)))
    if kind == "tensor":
        return tensor_algebra(make_algebra(draw(factors)),
                              make_algebra(draw(factors)))
    base = draw(factors)
    return tensor_power(make_algebra(base),
                        draw(st.integers(2, 4 if base == [1, 1] else 2)))


@st.composite
def _unit_permutations(draw, alg):
    """A permutation p of the units, unit j to unit p[j]: a random one, or
    an automorphism that permutes equal-size blocks and moves the indices
    of each block by one permutation s, E_rc -> E'_(s(r), s(c)), or that
    map with the rows and columns of each block moved by two permutations,
    with one block of size >= 2 transposed onto its own image (which
    respects adjoints but not products), or with the images of two units
    swapped: the (0, 1) units of two blocks of one size >= 2, or two
    off-diagonal units of one row or of one column of a block."""
    kind = draw(st.sampled_from(["random", "automorphism", "two",
                                 "transposed", "swap"]))
    if kind == "random":
        return np.array(draw(st.permutations(range(alg.dim)))), kind
    target = np.arange(len(alg.blocks))
    for k in set(alg.blocks):
        same = np.flatnonzero(np.array(alg.blocks) == k)
        target[same] = draw(st.permutations(same))
    p = np.empty(alg.dim, dtype=np.int64)
    for j, k in enumerate(alg.blocks):
        s = np.array(draw(st.permutations(range(k))))
        t = np.array(draw(st.permutations(range(k)))) if kind == "two" else s
        p[alg.block_units[j]] = alg.block_units[target[j]][s[:, None], t]
    large = [u for u in alg.block_units if len(u) > 1]
    if kind == "transposed" and large:
        units = draw(st.sampled_from(large))
        p[units] = p[units].T
    pairs = [(u[0, 1], v[0, 1]) for i, u in enumerate(large)
             for v in large[i + 1:] if len(u) == len(v)]
    pairs += [pair for u in large if len(u) > 2
              for pair in [(u[1, 0], u[2, 0]), (u[0, 1], u[0, 2])]]
    if kind == "swap" and pairs:
        pair = list(draw(st.sampled_from(pairs)))
        p[pair] = p[pair[::-1]]
    return p, kind


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_block_test_agrees_with_the_product_table(data):
    alg = data.draw(_small_algebras())
    assert np.array_equal(alg.star_index, position_star_index(alg))
    p, kind = data.draw(_unit_permutations(alg))
    expected = is_multiplicative_by_table(product_table(alg), p)
    if kind == "automorphism":
        assert expected
    # the cyclic group generated by p acts by its powers, so the action is
    # valid exactly when p respects products
    powers = [np.arange(alg.dim)]
    while len(powers) == 1 or not np.array_equal(powers[-1], powers[0]):
        powers.append(p[powers[-1]])
    group, maps = cyclic_group(len(powers) - 1), np.stack(powers[:-1])
    if expected:
        GroupAction(group, alg, perm_maps=maps)
    else:
        with pytest.raises(ValueError, match="map is not multiplicative"):
            GroupAction(group, alg, perm_maps=maps)


@pytest.mark.parametrize("n", [2, 3])
def test_factor_permutations_respect_the_product_table(n):
    action = tensor_permutation_action(make_algebra([2, 1]), n, check=True)
    table = product_table(action.algebra)
    assert all(is_multiplicative_by_table(table, p) for p in action.perm_maps)


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
    # the essential subspace of the corner-embedded image family, the span
    # of the ranges of its images, is exactly the range of the averaging
    # projection
    from cstarpow.linalg import orthonormal_columns
    pair = spatial_pair(swap_m2)
    pu = group_average_projection(pair)
    fixed = swap_m2.fixed_space()
    images = np.stack([integrated_form(pair, corner_embedding(swap_m2, row))
                       for row in fixed])
    q = orthonormal_columns(np.hstack(list(images)))
    assert op_norm(q @ q.conj().T - pu) < 1e-9


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
    trivial = trivial_action(m2, symmetric_group(2))
    assert trivial.fixed_space().shape[0] == 4
    assert tensor_permutation_action(m2, 2).fixed_space().shape[0] == 10
    assert tensor_permutation_action(c2, 3).fixed_space().shape[0] == 4
    fixed = block_permutation_action(c2, symmetric_group(2)).fixed_space()
    assert np.allclose(fixed, c2.unit() / np.sqrt(2))  # the scalars


def test_covariance_validation(swap_m2):
    tau = spatial_pair(swap_m2).unitary
    bad_pi = swap_m2.algebra.embed(np.eye(swap_m2.algebra.dim))
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
    assert dense.fixed_space().shape[0] == 1

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
    assert rot.fixed_space().shape[0] == 1
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


def test_covariance_sees_every_basis_element():
    # the spatial pair of M_2^{(x)5} (dim 1024) with the image of the
    # S_5-fixed unit E_00^{(x)5} (index 0) replaced by E_01: only that
    # element's covariance fails, for every g that moves the last factor
    action = tensor_permutation_action(make_algebra([2]), 5)
    pair = spatial_pair(action, check=False)
    assert np.all(action.perm_maps[:, 0] == 0)
    bad_pi = pair.pi.copy()
    bad_pi[0] = 0
    bad_pi[0, 0, 1] = 1
    with pytest.raises(ValueError, match="covariance"):
        CovariantPair(action, bad_pi, pair.unitary)


def test_dense_action_multiplicativity_sees_every_pair():
    # Z_2 acting on M_20 (+) M_2 (dim 404) by the transpose of the M_2 block:
    # unital, *-preserving and an involution, but not multiplicative, and
    # only products of two M_2 units (under 16 of 404^2 pairs) show it
    alg = make_algebra([20, 2])
    small = np.flatnonzero(alg.block_of == 1)
    transpose = np.eye(alg.dim, dtype=complex)
    transpose[:, small] = 0
    transpose[alg.star_index[small], small] = 1
    with pytest.raises(ValueError, match="multiplicative"):
        GroupAction(cyclic_group(2), alg,
                    dense_maps=np.stack([np.eye(alg.dim), transpose]))


def _haar_unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k))
                        + 1j * rng.standard_normal((k, k)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def _conjugated_systems(draw):
    """A tensor permutation system moved off the matrix-unit basis: the
    dense action Ad(u) beta_g Ad(u*) for a random unitary u of the algebra,
    and the spatial pair composed with Ad(u*) and conjugated by a random
    ambient unitary w."""
    blocks = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    beta = tensor_permutation_action(make_algebra(blocks), n)
    alg, group = beta.algebra, beta.group
    spatial = spatial_pair(beta, check=False)
    u = alg.embed(random_unitary(alg, rng))
    # column i holds the coefficients of u e_i u*; orthonormal columns
    ad_u = np.stack([coefficients(alg, u @ m @ u.conj().T)
                     for m in spatial.pi], axis=1)
    maps = np.stack([ad_u @ beta.matrix(g) @ ad_u.conj().T
                     for g in range(group.order)])
    w = _haar_unitary(rng, alg.ambient)
    pi = np.tensordot(ad_u.conj(), w @ spatial.pi @ w.conj().T, axes=(1, 0))
    unitaries = w @ spatial.unitary.matrices @ w.conj().T
    return group, alg, maps, pi, unitaries


@settings(max_examples=25, deadline=None)
@given(_conjugated_systems())
def test_valid_dense_systems_are_accepted(system):
    group, alg, maps, pi, unitaries = system
    action = GroupAction(group, alg, dense_maps=maps)
    CovariantPair(action, pi, UnitaryRep(group, unitaries))


def test_spatial_covariance_is_checked_on_indices():
    # the spatial pair of (C (+) M_2)^{(x)3} with two entries of one
    # unitary's index row swapped: still a permutation, so only the exact
    # index comparison of covariance can see it
    action = tensor_permutation_action(make_algebra([1, 2]), 3)
    tau = permutation_rep(3, 3)
    dest = tau.dest.copy()
    dest[1, [4, 5]] = dest[1, [5, 4]]
    bad = UnitaryRep(action.group, dest=dest, check=False)
    assert CovariantPair(action, None, bad, check=False).is_spatial
    with pytest.raises(ValueError, match="covariance"):
        CovariantPair(action, None, bad)
    assert CovariantPair(action, None, tau).is_spatial


def test_spatial_pair_keeps_index_form():
    # S_6 on (C^2)^{(x)6}: the covariance check, the integrated form and
    # the averaging projection all run on index arrays; neither the
    # (720, 64, 64) unitaries nor the (64, 64, 64) image stack is built
    action = tensor_permutation_action(make_algebra([1, 1]), 6)
    pair = spatial_pair(action)
    pu = integrated_form(pair, corner_projection(action))
    assert np.array_equal(pu, group_average_projection(pair))
    assert is_projection(pu, tol=1e-12)
    assert round(float(np.real(np.trace(pu)))) == 7  # S^6(C^2)
    assert pair._pi is None and pair.unitary._matrices is None


def _induced_pair(pair, sub):
    """The pair induced from the restriction of ``pair`` to ``sub``; its
    images and unitaries are dense."""
    base = CovariantPair(pair.action.restrict(sub), pair.pi,
                         UnitaryRep(sub.group,
                                    pair.unitary.matrices[list(sub.elements)],
                                    check=False))
    return induce(base, pair.action, sub).pair


@st.composite
def _crossed_systems(draw):
    """An action with covariant pairs of both forms: matrix-unit images with
    permutation unitaries, and dense images and unitaries.

    - the factor permutations of a tensor power of a mixed block list, with
      its spatial pair and a pair induced from a Young subgroup
    - a symmetric group permuting equal blocks of an algebra with one fixed
      block of another size, with the pair permuting the blocks' ambient
      ranges and the pair induced from the trivial subgroup
    - a tensor permutation system conjugated off the matrix-unit basis, as
      in ``_conjugated_systems``, with its dense pair
    """
    kind = draw(st.sampled_from(["tensor", "blocks", "dense"]))
    if kind == "dense":
        group, alg, maps, pi, unitaries = draw(_conjugated_systems())
        action = GroupAction(group, alg, dense_maps=maps)
        return action, [CovariantPair(action, pi, UnitaryRep(group, unitaries))]
    if kind == "tensor":
        n = draw(st.integers(1, 3))
        blocks = draw(st.lists(st.integers(1, 2), min_size=1,
                               max_size=3 if n < 3 else 2))
        action = tensor_permutation_action(make_algebra(blocks), n)
        pair = spatial_pair(action)
        fitting = [q for q in compositions(n)
                   if young_subgroup(q, action.group).index * pair.dim <= 64]
        sub = young_subgroup(draw(st.sampled_from(fitting)), action.group)
        return action, [pair, _induced_pair(pair, sub)]
    k = draw(st.integers(1, 2))
    count = draw(st.integers(1, 3))
    alg = make_algebra([k] * count + [3])
    group = symmetric_group(count)
    block_perms = [tuple(p) + (count,) for p in group.perms]
    action = block_permutation_action(alg, group, block_perms=block_perms)
    offsets = np.cumsum([0] + list(alg.blocks))
    dest = np.tile(np.arange(alg.ambient), (group.order, 1))
    for g, p in enumerate(block_perms):
        for j in range(count):
            dest[g, offsets[j]:offsets[j] + k] = offsets[p[j]] + np.arange(k)
    pair = CovariantPair(action, None, UnitaryRep(group, dest=dest))
    return action, [pair, _induced_pair(pair, trivial_subgroup(group))]


def _close(a, b, tol=1e-10):
    return np.max(np.abs(a - b), initial=0.0) <= \
        tol * max(1.0, float(np.max(np.abs(b), initial=0.0)))


@settings(max_examples=30, deadline=None)
@given(_crossed_systems(), st.integers(0, 2 ** 32 - 1))
def test_batched_crossed_arithmetic_matches_oracles(system, seed):
    action, pairs = system
    rng = np.random.default_rng(seed)
    f1, f2 = random_crossed(action, rng), random_crossed(action, rng)
    assert _close(convolve(f1, f2).values,
                  naive_convolution(action, f1.values, f2.values))
    assert _close(involution(f1).values, naive_involution(action, f1.values))
    for pair in pairs:
        assert _close(integrated_form(pair, f1),
                      naive_integrated_form(pair.pi, pair.unitary.matrices,
                                            f1.values))


@settings(max_examples=30, deadline=None)
@given(_crossed_systems(), st.integers(0, 2 ** 32 - 1))
def test_convolution_is_associative_unital_and_represented(system, seed):
    action, pairs = system
    rng = np.random.default_rng(seed)
    f1, f2, f3 = (random_crossed(action, rng) for _ in range(3))
    f12 = convolve(f1, f2)
    assert _close(convolve(f12, f3).values,
                  convolve(f1, convolve(f2, f3)).values)
    one = crossed_unit(action)
    assert _close(convolve(one, f1).values, f1.values)
    assert _close(convolve(f1, one).values, f1.values)
    for pair in pairs:
        assert _close(integrated_form(pair, f12),
                      integrated_form(pair, f1) @ integrated_form(pair, f2))


def _tiled_system(tile, dense, monkeypatch):
    # (C+C+M_2)^{(x)3} has blocks of sizes 1, 2, 4 and 8, eight of them
    # 1x1; over S_3 these caps give several tiles per size, and a partial
    # last one for sizes 1 (cap 40) and 2 and 8 (cap 200)
    monkeypatch.setattr(crossed, "_CONVOLVE_TILE", tile)
    action = tensor_permutation_action(make_algebra([1, 1, 2]), 3)
    pair = spatial_pair(action)
    if dense:
        action = GroupAction(action.group, action.algebra, dense_maps=[
            action.matrix(g) for g in range(action.group.order)])
        pair = CovariantPair(action, pair.pi, pair.unitary)
    return action, pair


@pytest.mark.parametrize("tile", [1, 40, 200])
@pytest.mark.parametrize("dense", [False, True])
def test_tiled_kernels_match_oracles(tile, dense, monkeypatch):
    action, pair = _tiled_system(tile, dense, monkeypatch)
    rng = np.random.default_rng(tile)
    f1, f2 = random_crossed(action, rng), random_crossed(action, rng)
    assert _close(convolve(f1, f2).values,
                  naive_convolution(action, f1.values, f2.values))
    assert _close(involution(f1).values, naive_involution(action, f1.values))
    assert _close(integrated_form(pair, f1),
                  naive_integrated_form(pair.pi, pair.unitary.matrices,
                                        f1.values))


@pytest.mark.parametrize("tile", [1, 40, 200])
@pytest.mark.parametrize("dense", [False, True])
def test_real_operands_convolve_like_the_oracle(tile, dense, monkeypatch):
    # real operands of a permutation action run the kernel on float views;
    # a complex operand, or a dense action, keeps the complex kernel
    action, _ = _tiled_system(tile, dense, monkeypatch)
    rng = np.random.default_rng(tile)
    p, mixed = corner_projection(action), random_crossed(action, rng)
    real = CrossedElement(action, mixed.values.imag)
    for f1, f2 in [(p, p), (p, real), (real, p), (real, mixed),
                   (mixed, real)]:
        got = convolve(f1, f2).values
        assert _close(got, naive_convolution(action, f1.values, f2.values))
        if f1 is not mixed and f2 is not mixed:
            assert not np.any(got.imag)


def test_real_convolution_makes_no_real_copy(monkeypatch):
    # S_5 on M_2^{(x)5}: the operands are 120 x 1024 coefficients, whose real
    # parts would take half an element each; the kernel reads them through
    # float views.  At one group element per tile the buffers are small, so
    # the result is the only large allocation; at the default tile the
    # float buffers of two tiles (three of values, two of indices, eight
    # bytes an entry) fit where the complex ones did not.
    action = tensor_permutation_action(make_algebra([2]), 5)
    p = corner_projection(action)
    element = action.group.order * action.algebra.dim * 16
    default = crossed._CONVOLVE_TILE
    for tile, room in [(action.algebra.dim, element // 4),
                       (default, 2 * 5 * 8 * default)]:
        monkeypatch.setattr(crossed, "_CONVOLVE_TILE", tile)
        tracemalloc.start()
        try:
            out = convolve(p, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _close(out.values, p.values)
        assert peak <= element + room


def test_convolution_holds_one_tile_of_buffers(monkeypatch):
    # S_5 on M_2^{(x)5} at the default tile: the index buffers (two, eight
    # bytes an entry) and value buffers (three) are made once and reused by
    # every tile, so the peak is the result, one tile of buffers and the
    # few small per-step arrays, here bounded by four of numpy's ufunc
    # buffers; real operands have float buffers, complex ones complex.  The
    # results agree with tiles of one group element.
    action = tensor_permutation_action(make_algebra([2]), 5)
    p = corner_projection(action)
    mixed = random_crossed(action, np.random.default_rng(0))
    element = action.group.order * action.algebra.dim * 16
    tile, small = crossed._CONVOLVE_TILE, 4 * 8 * np.getbufsize()
    for f, value_bytes in [(p, 8), (mixed, 16)]:
        tracemalloc.start()
        try:
            out = convolve(f, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= element + (2 * 8 + 3 * value_bytes) * tile + small
        with monkeypatch.context() as m:
            m.setattr(crossed, "_CONVOLVE_TILE", action.algebra.dim)
            assert _close(out.values, convolve(f, f).values)


def test_corner_kernels_hold_at_most_two_elements():
    # S_5 on M_2^{(x)5}: an element is 120 x 1024 coefficients; the check
    # of corner_embedding and the gather of involution need no tiled copy
    # of the input next to the result.  (At degree 4 the buffer of 8192
    # entries that numpy gives a broadcast subtraction is a whole element.)
    action = tensor_permutation_action(make_algebra([2]), 5)
    x = fixed_element(action, np.random.default_rng(0))
    f = corner_embedding(action, x)
    f_star = corner_embedding(action, action.algebra.star(x))
    element = action.group.order * action.algebra.dim * 16
    for run, want in [(lambda: corner_embedding(action, x), f),
                      (lambda: involution(f), f_star)]:
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out.values, want.values)
        assert peak <= 2 * element


def test_restricted_pair_indexes_its_own_labels():
    action = tensor_permutation_action(make_algebra([1, 2]), 3)
    pair = spatial_pair(action)
    full = pair._integration_index
    sub = young_subgroup((2, 1), action.group)
    part = pair.restrict(sub)
    which, row, col = part.labels
    inv = part.action.group.inv
    assert part.is_spatial and part._integration_index is not full
    assert np.array_equal(part._integration_index,
                          row * part.dim + part.unitary.dest[inv][:, col])
    f = random_crossed(part.action, np.random.default_rng(0))
    assert _close(integrated_form(part, f),
                  naive_integrated_form(part.pi, part.unitary.matrices,
                                        f.values))
