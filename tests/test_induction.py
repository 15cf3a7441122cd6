import numpy as np
import pytest

from cstarpow.algebra import make_algebra
from cstarpow.crossed import (CovariantPair, GroupAction,
                              block_permutation_action,
                              group_average_projection, spatial_pair,
                              tensor_permutation_action)
from cstarpow.groups import (UnitaryRep, symmetric_group,
                             trivial_subgroup, whole_subgroup, young_subgroup)
from cstarpow.induction import (commutant_restriction, fixed_point_unitary,
                                induce)
from cstarpow.linalg import op_norm, orthonormal_columns
from cstarpow.structure import commutant, equivalent


def pair_family(pair):
    return np.concatenate([pair.pi, pair.unitary.matrices])


def first_coordinate_character():
    """Evaluation at the first coordinate of the two-point algebra, as a
    covariant pair over the trivial subgroup of the swap action."""
    c2 = make_algebra([1, 1])
    s2 = symmetric_group(2)
    action = block_permutation_action(c2, s2)
    triv = trivial_subgroup(s2)
    pi0 = np.array([[[1.0]], [[0.0]]], dtype=complex)
    base = CovariantPair(action.restrict(triv), pi0,
                         UnitaryRep(triv.group, np.eye(1, dtype=complex)[None]))
    return base, action, triv


def test_induction_by_hand_formulas():
    base, action, triv = first_coordinate_character()
    ind = induce(base, action, triv)
    assert ind.pair.dim == 2
    swap_idx = action.group.perms.index((1, 0))
    assert np.allclose(ind.pair.unitary.mat(swap_idx),
                       np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(ind.pair.apply(np.array([1.0, 0.0])),
                       np.diag([1.0, 0.0]))
    assert np.allclose(ind.pair.apply(np.array([0.0, 1.0])),
                       np.diag([0.0, 1.0]))


def test_induced_dimension_and_block_permutation():
    m2 = make_algebra([2])
    action = tensor_permutation_action(m2, 3)
    group = action.group
    sub = young_subgroup([2, 1], group)
    full = spatial_pair(action, check=False)
    base = CovariantPair(action.restrict(sub), full.pi,
                         UnitaryRep(sub.group,
                                    full.unitary.matrices[list(sub.elements)],
                                    check=False))
    ind = induce(base, action, sub)
    assert ind.pair.dim == sub.index * base.dim == 24
    # each group element permutes the coset blocks by left translation
    m = ind.block_dim
    for g in range(group.order):
        u = ind.pair.unitary.mat(g)
        for j in range(ind.num_blocks):
            k = ind.block_target(g, j)
            block = u[k * m:(k + 1) * m, j * m:(j + 1) * m]
            assert op_norm(block @ block.conj().T - np.eye(m)) < 1e-9
            for other in range(ind.num_blocks):
                if other != k:
                    assert np.max(np.abs(
                        u[other * m:(other + 1) * m, j * m:(j + 1) * m])) < 1e-12


def test_restricted_spatial_pair_matches_the_explicit_restriction():
    action = tensor_permutation_action(make_algebra([2]), 3)
    sub = young_subgroup([2, 1], action.group)
    full = spatial_pair(action, check=False)
    explicit = CovariantPair(action.restrict(sub), full.pi,
                             UnitaryRep(sub.group,
                                        full.unitary.matrices[list(sub.elements)],
                                        check=False))
    base = full.restrict(sub)
    assert base.is_spatial
    assert base.action.group is sub.group
    assert np.array_equal(base.pi, explicit.pi)
    assert np.array_equal(base.unitary.matrices, explicit.unitary.matrices)
    base._check(1e-9)
    ind, ind_explicit = induce(base, action, sub), induce(explicit, action, sub)
    assert np.array_equal(ind.pair.pi, ind_explicit.pair.pi)
    assert np.array_equal(ind.pair.unitary.matrices,
                          ind_explicit.pair.unitary.matrices)


def test_whole_group_induction_is_equivalent_to_base():
    m2 = make_algebra([2])
    action = tensor_permutation_action(m2, 2)
    sub = whole_subgroup(action.group)
    full = spatial_pair(action, check=False)
    base = CovariantPair(action.restrict(sub), full.pi,
                         UnitaryRep(sub.group, full.unitary.matrices,
                                    check=False))
    ind = induce(base, action, sub)
    assert ind.pair.dim == base.dim
    assert equivalent(pair_family(ind.pair), pair_family(full))


def test_induction_in_stages():
    c2 = make_algebra([1, 1])
    action3 = tensor_permutation_action(c2, 3)
    s3 = action3.group
    sub12 = young_subgroup([2, 1], s3)

    # point evaluation character of the cube at (0, 1, 0)
    flat = int(np.ravel_multi_index((0, 1, 0), (2, 2, 2)))
    char = np.zeros((action3.algebra.dim, 1, 1), dtype=complex)
    char[flat, 0, 0] = 1.0

    triv3 = trivial_subgroup(s3)
    base_direct = CovariantPair(
        action3.restrict(triv3), char,
        UnitaryRep(triv3.group, np.eye(1, dtype=complex)[None]))
    direct = induce(base_direct, action3, triv3)

    # stage one: induce the character from the trivial subgroup of the
    # two-one Young subgroup, then up to the full group
    sub_action = action3.restrict(sub12)
    triv_in_sub = trivial_subgroup(sub12.group)
    base_stage = CovariantPair(
        sub_action.restrict(triv_in_sub), char,
        UnitaryRep(triv_in_sub.group, np.eye(1, dtype=complex)[None]))
    stage_one = induce(base_stage, sub_action, triv_in_sub)
    stage_base = CovariantPair(sub_action, stage_one.pair.pi,
                               stage_one.pair.unitary)
    staged = induce(stage_base, action3, sub12)

    assert staged.pair.dim == direct.pair.dim == 6
    assert equivalent(pair_family(staged.pair), pair_family(direct.pair))


def test_fixed_point_unitary_ranks(rng):
    c2 = make_algebra([1, 1])
    action = tensor_permutation_action(c2, 3)
    sub = young_subgroup([2, 1], action.group)
    full = spatial_pair(action, check=False)
    base = CovariantPair(action.restrict(sub), full.pi,
                         UnitaryRep(sub.group,
                                    full.unitary.matrices[list(sub.elements)],
                                    check=False))
    ind = induce(base, action, sub)
    iso = fixed_point_unitary(ind)
    # isometry onto the induced fixed subspace
    assert np.allclose(iso.conj().T @ iso, np.eye(iso.shape[1]))
    pu = group_average_projection(ind.pair)
    assert iso.shape[1] == round(float(np.real(np.trace(pu))))
    assert op_norm(pu @ iso - iso) < 1e-9

    # trivial base representation of the subgroup on one dimension
    triv_base = CovariantPair(
        action.restrict(sub),
        np.array([[[1.0]] if i == 0 else [[0.0]]
                  for i in range(action.algebra.dim)], dtype=complex)
        * 0 + _unit_character(action),
        UnitaryRep(sub.group,
                   np.stack([np.eye(1, dtype=complex)] * sub.order)))
    ind2 = induce(triv_base, action, sub)
    iso2 = fixed_point_unitary(ind2)
    assert iso2.shape[1] == 1


def _unit_character(action):
    """A one-dimensional representation evaluating at the (0,0,0) point."""
    char = np.zeros((action.algebra.dim, 1, 1), dtype=complex)
    char[0, 0, 0] = 1.0
    return char


def test_fixed_point_unitary_zero_case():
    # base with no fixed vectors induces to no fixed vectors: the one-point
    # algebra with the sign character of the swap group
    from cstarpow.crossed import trivial_action
    point = make_algebra([1])
    s2 = symmetric_group(2)
    action = trivial_action(point, s2)
    sub = whole_subgroup(s2)
    pi = np.ones((1, 1, 1), dtype=complex)
    sign = np.array([[[1.0]], [[-1.0]]], dtype=complex)
    base = CovariantPair(action.restrict(sub), pi,
                         UnitaryRep(sub.group, sign))
    ind = induce(base, action, sub)
    iso = fixed_point_unitary(ind)
    assert iso.shape[1] == 0
    pu = group_average_projection(ind.pair)
    assert round(float(np.real(np.trace(pu)))) == 0


def test_commutant_restriction_dims_and_apply():
    base, action, triv = first_coordinate_character()
    ind = induce(base, action, triv)
    rest = commutant_restriction(ind, 0)
    assert rest.source_dim == rest.target_dim == 1
    t = np.eye(2, dtype=complex)
    assert np.allclose(rest.apply(t), np.eye(1))
    with pytest.raises(ValueError):
        rest.apply(np.diag([1.0, 2.0]))  # commutes with blocks, not the pair
    with pytest.raises(ValueError):
        rest.apply(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_commutant_restriction_rejects_one_failing_member():
    # M_2 (x) M_2 induced from the trivial subgroup of the swap: t = 1 (+)
    # (1 + 1e-5) on the two coset blocks commutes with all 16 images and
    # both block projections, and fails only on the unitary of the swap
    action = tensor_permutation_action(make_algebra([2]), 2)
    triv = trivial_subgroup(action.group)
    ind = induce(spatial_pair(action, check=False).restrict(triv), action,
                 triv)
    rest = commutant_restriction(ind, 0)
    t = np.diag(np.repeat([1.0, 1.0 + 1e-5], ind.block_dim))
    assert sum(op_norm(t @ m - m @ t) > 1e-9
               for m in pair_family(ind.pair)) == 1
    with pytest.raises(ValueError):
        rest.apply(t)
    assert np.allclose(rest.apply(np.eye(ind.pair.dim)),
                       np.eye(ind.block_dim))


def test_commutant_restriction_full_isotropy_factor_base():
    # full matrix power: the base is a factor representation whose class is
    # fixed by the whole subgroup, so the induced commutant matches the
    # base's integrated commutant dimension
    m2 = make_algebra([2])
    action = tensor_permutation_action(m2, 2)
    sub = whole_subgroup(action.group)
    full = spatial_pair(action, check=False)
    base = CovariantPair(action.restrict(sub), full.pi,
                         UnitaryRep(sub.group, full.unitary.matrices,
                                    check=False))
    ind = induce(base, action, sub)
    rest = commutant_restriction(ind, 0)
    assert rest.source_dim == rest.target_dim
    base_comm = commutant(pair_family(base)).dim
    induced_comm = commutant(pair_family(ind.pair)).dim
    # the algebra image is the full matrix algebra, so the pair is irreducible
    assert base_comm == induced_comm == 1


def test_mixed_block_product_induction():
    # inducing the product of the two inequivalent block representations of
    # the two-block algebra from the trivial subgroup of the swap group: the
    # induced space stacks two six-dimensional blocks, the swap unitary
    # exchanges them, and compressing the integrated form by the averaging
    # projection recovers the six-dimensional product representation
    from cstarpow.algebra import symmetric_power_basis
    from cstarpow.classify import _descriptor, realize_sn_irrep
    from cstarpow.crossed import corner_embedding, integrated_form
    m23 = make_algebra([2, 3])
    action = tensor_permutation_action(m23, 2)
    triv = trivial_subgroup(action.group)
    pi1, pi2 = m23.block_images(0), m23.block_images(1)
    images = np.stack([np.kron(pi1[i], pi2[j])
                       for i in range(m23.dim) for j in range(m23.dim)])
    base = CovariantPair(action.restrict(triv), images,
                         UnitaryRep(triv.group, np.eye(6, dtype=complex)[None]),
                         check=False)
    ind = induce(base, action, triv)
    assert ind.pair.dim == 12
    swap_idx = action.group.perms.index((1, 0))
    u = ind.pair.unitary.mat(swap_idx)
    assert np.allclose(u, np.block([[np.zeros((6, 6)), np.eye(6)],
                                    [np.eye(6), np.zeros((6, 6))]]))

    pu = group_average_projection(ind.pair)
    assert round(float(np.real(np.trace(pu)))) == 6
    w = orthonormal_columns(pu)
    sym = symmetric_power_basis(m23, 2)
    compressed = np.stack(
        [w.conj().T @ integrated_form(
            ind.pair, corner_embedding(action, v)) @ w
         for v in sym.vectors])
    witness = realize_sn_irrep(
        m23, 2, _descriptor(m23, (0, 1), (1, 1), ((1,), (1,))), sym=sym)
    assert equivalent(compressed, witness.images)


def test_induce_rejects_wrong_restriction():
    m2 = make_algebra([2])
    action2 = tensor_permutation_action(m2, 2)
    action3 = tensor_permutation_action(m2, 3)
    sub3 = trivial_subgroup(action3.group)
    triv2 = trivial_subgroup(action2.group)
    full = spatial_pair(action2, check=False)
    base = CovariantPair(action2.restrict(triv2), full.pi,
                         UnitaryRep(triv2.group,
                                    np.eye(4, dtype=complex)[None]))
    with pytest.raises(ValueError):
        induce(base, action3, sub3)


def test_induce_refuses_a_base_action_off_by_the_tolerance():
    m2 = make_algebra([2])
    action = tensor_permutation_action(m2, 2)
    triv = trivial_subgroup(action.group)
    full = spatial_pair(action, check=False)
    near = GroupAction(triv.group, action.algebra,
                       dense_maps=(1 + 1e-6) * np.eye(4 * 4)[None],
                       check=False)
    base = CovariantPair(near, full.pi, UnitaryRep(
        triv.group, np.eye(4, dtype=complex)[None]), check=False)
    with pytest.raises(ValueError, match="restricted action"):
        induce(base, action, triv)
    exact = CovariantPair(action.restrict(triv), full.pi, base.unitary)
    assert induce(exact, action, triv).pair.dim == 8
