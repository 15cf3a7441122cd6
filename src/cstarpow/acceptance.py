"""Named verification suites behind the ``verify`` subcommand.

Each suite runs a batch of numerical checks with explicit tolerances and
returns a JSON-ready report with one entry per assertion.  The checks pit
independent computations against each other: combinatorial counts against
numerical ranks, enumerated dimensions against spectral block data, closed
formulas against brute-force averages.
"""

from __future__ import annotations

import numpy as np

from .algebra import (generated_star_algebra, make_algebra,
                      power_map_differential, square_map_multiplicativity,
                      symmetric_power_basis, symmetric_power_count)
from .classify import (direct_sum_of_power_maps, homogeneous_components,
                       non_schur_weyl_witness, schur_weyl_injectivity_check,
                       symmetric_power_span, wedderburn_comparison)
from .crossed import (CovariantPair, block_permutation_action,
                      corner_embedding, corner_projection, convolve,
                      group_average_projection, integrated_form, involution,
                      spatial_pair, tensor_permutation_action)
from .groups import (UnitaryRep, cyclic_group, partitions, ssyt_count,
                     symmetric_group, trivial_subgroup, young_subgroup)
from .induction import commutant_restriction, fixed_point_unitary, induce
from .linalg import (DEFAULT_TOL, Draws, largest_op_norm,
                     orthonormal_columns)
from .structure import ergodic_bound_check, minimal_central_projections

DIMENSION_CASES = [[1, 1], [1, 1, 1], [2], [2, 1], [2, 3]]
DEGREES = [1, 2, 3]


def _assertion(name, passed, **detail):
    out = {"name": name, "passed": bool(passed)}
    out.update(detail)
    return out


def _case_within_budget(blocks, n, budget):
    return sum(blocks) ** n <= budget


def suite_dimensions(tol, seed, budget):
    """Exact multiset-count law for the dimension of each symmetric power."""
    assertions = []
    for blocks in DIMENSION_CASES:
        algebra = make_algebra(blocks)
        for n in DEGREES:
            if not _case_within_budget(blocks, n, budget):
                continue
            sym = symmetric_power_basis(algebra, n)
            expected = symmetric_power_count(algebra.dim, n)
            # 0/1 orbit rows with disjoint supports: rank = nonempty rows
            rank = np.count_nonzero(np.bincount(sym.orbit, minlength=sym.size))
            assertions.append(_assertion(
                f"dim S^{n} of blocks {blocks} = C({algebra.dim}+{n}-1,{n})",
                sym.size == expected and int(rank) == expected,
                count=sym.size, rank=int(rank), expected=expected))
    return assertions


def suite_blocks(tol, seed, budget):
    """Tableau-count block structure of symmetric powers of one full block."""
    assertions = []
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        span = symmetric_power_span(make_algebra([k]), n)
        report = minimal_central_projections(span, seed=seed, tol=tol)
        expected = sorted(ssyt_count(lam, k) for lam in partitions(n, k))
        assertions.append(_assertion(
            f"blocks of S^{n}(M_{k}) equal tableau counts",
            sorted(report.block_dims) == expected,
            spectral=sorted(report.block_dims), expected=expected))
    return assertions


def suite_classification(tol, seed, budget):
    """Enumerated descriptor dimensions match the spectral block data."""
    assertions = []
    for blocks in DIMENSION_CASES:
        algebra = make_algebra(blocks)
        for n in DEGREES:
            if not _case_within_budget(blocks, n, budget):
                continue
            enumerated, spectral = wedderburn_comparison(
                algebra, n, tol=tol, seed=seed)
            total = sum(d * d for d in enumerated)
            expected = symmetric_power_count(algebra.dim, n)
            assertions.append(_assertion(
                f"classification of blocks {blocks}, degree {n}",
                enumerated == spectral and total == expected,
                enumerated=enumerated, spectral=spectral,
                sum_of_squares=total, expected=expected))
    return assertions


def suite_crossed(tol, seed, budget, samples: int = 50):
    """Corner identities of the crossed product on random fixed elements."""
    assertions = []
    rng = Draws(seed)
    for blocks, n in [([1, 1], 2), ([1, 1], 3), ([2], 2), ([2], 3)]:
        action = tensor_permutation_action(make_algebra(blocks), n)
        pair = spatial_pair(action, check=False)
        p = corner_projection(action)
        worst = max(
            float(np.max(np.abs(convolve(p, p).values - p.values))),
            float(np.max(np.abs(involution(p).values - p.values))))
        pu = group_average_projection(pair)
        residuals = [pu @ pu - pu, pu - pu.conj().T]
        fixed = action.fixed_space(tol)
        shape = (2, samples, fixed.shape[0])
        xs, ys = rng.complex_normal(shape) @ fixed
        for x, y in zip(xs, ys):
            ix, iy = corner_embedding(action, x), corner_embedding(action, y)
            alg = action.algebra
            xy = alg.multiply(x, y)
            worst = max(worst, float(np.max(np.abs(
                convolve(ix, iy).values - corner_embedding(action, xy).values))))
            worst = max(worst, float(np.max(np.abs(
                involution(ix).values
                - corner_embedding(action, alg.star(x)).values))))
            form, px = integrated_form(pair, ix), pair.apply(x)
            residuals += [form - px @ pu, form - pu @ px]
        # the averaging projection has exactly the joint fixed vectors as range
        u_fixed = orthonormal_columns(pu, tol, scale=1.0)
        res = u_fixed - np.stack([pair.unitary.mat(g) @ u_fixed
                                  for g in range(action.group.order)]).mean(axis=0)
        worst = max(worst, float(np.max(np.abs(res))))
        # operator norms last, so that the screen starts from every other
        # residual
        worst = largest_op_norm(residuals, floor=worst)
        assertions.append(_assertion(
            f"corner identities for blocks {blocks}, degree {n}",
            worst < tol, worst_residual=worst, samples=samples))
    return assertions


def _character_orbit_base(action, sub, indices, mult, rng):
    """Covariant pair of a restricted system whose algebra representation is
    a direct sum of characters of a commutative power, permuted among each
    other by the subgroup, with a random multiplicity twist on C^mult.

    ``indices`` are flat coefficient indices of the characters; the subgroup
    must permute that set.
    """
    indices = list(indices)
    k = len(indices)
    lookup = {f: i for i, f in enumerate(indices)}
    d = action.algebra.dim
    pi = np.zeros((d, k, k), dtype=complex)
    for i, f in enumerate(indices):
        pi[f, i, i] = 1.0
    vmats = np.zeros((sub.order, k, k), dtype=complex)
    for local in range(sub.order):
        for i, f in enumerate(indices):
            vmats[local, lookup[int(action.restrict(sub).perm_maps[local][f])], i] = 1.0
    gauge = np.linalg.qr(rng.complex_normal((mult, mult)))[0]
    twist = np.zeros((sub.order, mult, mult), dtype=complex)
    for local, amb in enumerate(sub.elements):
        perm = sub.ambient.perms[amb]
        sign = float(np.linalg.det(np.eye(len(perm))[list(perm)]))
        twist[local] = gauge @ np.diag([1.0] + [sign] * (mult - 1)) @ gauge.conj().T
    pi_full = np.kron(pi, np.eye(mult))
    umats = np.stack([np.kron(vmats[i], twist[i]) for i in range(sub.order)])
    return CovariantPair(action.restrict(sub), pi_full,
                         UnitaryRep(sub.group, umats, check=False))


def _induced_pair_numbers(ind, tol, blocks=(0,)):
    """The (source, target) commutant dimensions of the restriction to each
    coset block in ``blocks``, and the fixed ranks of the base pair and of
    the induced pair, the latter read off its averaging projection."""
    dims = [(r.source_dim, r.target_dim)
            for r in (commutant_restriction(ind, j, tol) for j in blocks)]
    base_fixed = int(fixed_point_unitary(ind, tol).shape[1])
    induced_fixed = int(orthonormal_columns(
        group_average_projection(ind.pair), tol, scale=1.0).shape[1])
    return dims, base_fixed, induced_fixed


def suite_induction(tol, seed, budget):
    """Commutant dimensions transfer to coset blocks; fixed ranks agree."""
    assertions = []
    rng = Draws(seed)
    group = symmetric_group(3)

    # evaluation character of the commutative cube, trivial subgroup;
    # the character images are 1x1 matrices picking the (0,1,2) coefficient
    c3 = make_algebra([1, 1, 1])
    action = tensor_permutation_action(c3, 3)
    sub = trivial_subgroup(group)
    char = np.zeros((action.algebra.dim, 1, 1), dtype=complex)
    char[np.ravel_multi_index((0, 1, 2), (3, 3, 3)), 0, 0] = 1.0
    base = CovariantPair(action.restrict(sub), char,
                         UnitaryRep(sub.group, np.eye(1, dtype=complex)[None]))
    ind = induce(base, action, sub, tol=tol)
    [(source, target)], base_fixed, induced_fixed = \
        _induced_pair_numbers(ind, tol)
    assertions.append(_assertion(
        "trivial-subgroup induction over the 3-point algebra",
        source == target == 1 and base_fixed == induced_fixed,
        source_dim=source, target_dim=target, base_fixed=base_fixed,
        induced_fixed=induced_fixed))

    # character pair swapped by the two-one Young subgroup, with and without
    # a random multiplicity twist
    c2 = make_algebra([1, 1])
    action2 = tensor_permutation_action(c2, 3)
    sub2 = young_subgroup([2, 1], group)
    orbit = [int(np.ravel_multi_index((0, 1, 0), (2, 2, 2))),
             int(np.ravel_multi_index((1, 0, 0), (2, 2, 2)))]
    for mult in (1, 2):
        base = _character_orbit_base(action2, sub2, orbit, mult, rng)
        ind = induce(base, action2, sub2, tol=tol)
        dims, base_fixed, induced_fixed = _induced_pair_numbers(
            ind, tol, range(ind.num_blocks))
        assertions.append(_assertion(
            f"character orbit over the two-one Young subgroup, "
            f"multiplicity {mult}",
            ind.pair.dim == sub2.index * base.dim
            and all(s == t for s, t in dims) and base_fixed == induced_fixed,
            commutant_dims=dims, base_fixed=base_fixed,
            induced_fixed=induced_fixed))

    # spatial pair of the full matrix power restricted to the Young subgroup:
    # the base is a factor representation with full isotropy, so the induced
    # and base integrated forms must have commutants of equal dimension
    m2 = make_algebra([2])
    action3 = tensor_permutation_action(m2, 3)
    sub3 = young_subgroup([2, 1], group)
    base = spatial_pair(action3, check=False).restrict(sub3)
    ind = induce(base, action3, sub3, tol=tol)
    [(source, target)], base_fixed, induced_fixed = \
        _induced_pair_numbers(ind, tol)
    assertions.append(_assertion(
        "matrix power spatial pair over the two-one Young subgroup",
        ind.pair.dim == 24 and source == target
        and base_fixed == induced_fixed,
        source_dim=source, target_dim=target, base_fixed=base_fixed,
        induced_fixed=induced_fixed))
    return assertions


def suite_generation(tol, seed, budget):
    """The derivative elements generate the whole fixed-point span."""
    assertions = []
    for blocks, n in [([2], 2), ([2], 3), ([1, 1, 1], 3)]:
        algebra = make_algebra(blocks)
        sym = symmetric_power_basis(algebra, n)
        span = symmetric_power_span(algebra, n, sym)
        derivatives = sym.power.embed(np.stack(
            [power_map_differential(algebra, e, n)
             for e in np.eye(algebra.dim)]))
        generated = generated_star_algebra(derivatives, span.ambient,
                                           tol=1e-8)
        combined = np.concatenate(
            [generated.reshape(generated.shape[0], -1),
             span.span_basis.reshape(span.dim, -1)])
        combined_rank = np.linalg.matrix_rank(combined, tol=1e-8)
        assertions.append(_assertion(
            f"generated algebra equals fixed span for blocks {blocks}, "
            f"degree {n}",
            generated.shape[0] == span.dim == int(combined_rank),
            generated_dim=int(generated.shape[0]), fixed_dim=span.dim,
            combined_rank=int(combined_rank)))
    return assertions


def suite_ergodic(tol, seed, budget):
    """Dimension bound for ergodic actions, with equality on the coordinate
    swap of the two-point algebra."""
    assertions = []
    swap = ergodic_bound_check(
        block_permutation_action(make_algebra([1, 1]), symmetric_group(2)))
    assertions.append(_assertion(
        "coordinate swap is ergodic and attains the bound",
        swap.is_ergodic and swap.algebra_dim == swap.group_order == 2,
        report=vars(swap)))
    c3 = make_algebra([1, 1, 1])
    full = ergodic_bound_check(
        block_permutation_action(c3, symmetric_group(3)))
    rotation = ergodic_bound_check(block_permutation_action(
        c3, cyclic_group(3), block_perms=[(0, 1, 2), (1, 2, 0), (2, 0, 1)]))
    assertions.append(_assertion(
        "three-point actions are ergodic within the bound",
        full.is_ergodic and full.algebra_dim <= full.group_order
        and rotation.is_ergodic
        and rotation.algebra_dim == rotation.group_order == 3,
        permutations=vars(full), rotation=vars(rotation)))
    tensor = ergodic_bound_check(
        tensor_permutation_action(make_algebra([2]), 2))
    assertions.append(_assertion(
        "factor permutation action is not ergodic",
        not tensor.is_ergodic and tensor.algebra_dim == 16,
        report=vars(tensor)))
    return assertions


def suite_schur_weyl(tol, seed, budget):
    """Injectivity of the tableau-labelled family and the product witness."""
    algebra = make_algebra([2, 3])
    injective = schur_weyl_injectivity_check(algebra, 3, tol)
    assertions = [_assertion("pairwise inequivalence up to degree 3",
                             injective)]
    cert = non_schur_weyl_witness(algebra, 0, 1, tol)
    assertions.append(_assertion(
        "degree-2 product witness lies outside the labelled family",
        cert.is_valid and cert.witness.dim == 6,
        witness_dim=cert.witness.dim, commutant_dim=cert.commutant_dim,
        intertwiner_dims=sorted(cert.intertwiner_dims.values())))
    return assertions


def suite_homog(tol, seed, budget, samples: int = 100):
    """Homogeneous splitting of a two-degree power map sum."""
    algebra = make_algebra([2])
    phi, target = direct_sum_of_power_maps(algebra, [1, 2])
    comps = homogeneous_components(phi, algebra, target, 2, tol=tol,
                                   seed=seed)
    rng = Draws(seed + 1)
    projs = comps(algebra.unit())
    # p_i p_j = p_i when i = j and 0 otherwise
    worst = target.norm(target.multiply(projs[:, None], projs)
                        - np.eye(len(projs))[..., None] * projs[:, None]).max()
    shape = (samples, 2, algebra.dim)
    pairs = rng.complex_normal(shape)
    for pair, z in zip(pairs, np.exp(2j * np.pi * rng.random(samples))):
        x, y = pair / np.maximum(algebra.norm(pair), 1e-12)[:, None]
        cx, cy, cxy = comps(x), comps(y), comps(algebra.multiply(x, y))
        worst = max(worst, target.norm(np.concatenate([
            [cx.sum(0) - phi(x)], cxy - target.multiply(cx, cy),
            comps(z * x) - z ** np.arange(len(cx))[:, None] * cx])).max())
    assertions = [_assertion(
        "components are multiplicative, homogeneous, and sum back",
        worst < tol, worst_residual=float(worst), samples=samples)]
    return assertions


def suite_commutativity(tol, seed, budget, trials: int = 100):
    """Squaring respects products exactly on commutative algebras."""
    cases = [([1, 1, 1], True), ([2], False), ([2, 1], False)]
    assertions = []
    for blocks, expected in cases:
        got = square_map_multiplicativity(make_algebra(blocks), trials=trials,
                                          seed=seed, tol=tol)
        assertions.append(_assertion(
            f"square map multiplicative on blocks {blocks}: {expected}",
            got == expected, observed=got, expected=expected))
    return assertions


_SUITES = {
    "dimensions": suite_dimensions,
    "blocks": suite_blocks,
    "classification": suite_classification,
    "crossed": suite_crossed,
    "induction": suite_induction,
    "generation": suite_generation,
    "ergodic": suite_ergodic,
    "schur-weyl": suite_schur_weyl,
    "homog": suite_homog,
    "commutativity": suite_commutativity,
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(name: str, tol: float = DEFAULT_TOL, seed: int = 0,
              budget: int = 2000) -> dict:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    assertions = _SUITES[name](tol, seed, budget)
    return {"suite": name, "assertions": assertions,
            "passed": all(a["passed"] for a in assertions)}
