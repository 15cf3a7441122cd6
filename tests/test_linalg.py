import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarpow import linalg
from cstarpow.algebra import make_algebra
from cstarpow.linalg import (Draws, direct_sum, eig_hermitian,
                             largest_op_norm, nullspace, op_norm,
                             orthonormal_columns)
from oracles import (is_projection, naive_kron, naive_nullspace_dim,
                     scipy_null_space)


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def test_kron_matches_four_loop_oracle(rng):
    # the oracle that young_unitaries builds on
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 3, 3)
    assert np.allclose(np.kron(a, b), naive_kron(a, b))


def test_direct_sum_cases(rng):
    assert np.allclose(direct_sum([[[1.0]], [[2.0]]]), np.diag([1.0, 2.0]))
    assert np.allclose(direct_sum([np.eye(2), np.eye(3)]), np.eye(5))
    mats = [random_complex(rng, k, k) for k in (2, 3, 4)]
    total = direct_sum(mats)
    assert np.isclose(np.trace(total), sum(np.trace(m) for m in mats))
    with pytest.raises(ValueError):
        direct_sum([random_complex(rng, 2, 3)])


def test_op_norm_cases(rng):
    assert np.isclose(op_norm(np.diag([1.0, 2.0])), 2.0)
    q = np.linalg.qr(random_complex(rng, 4, 4))[0]
    assert abs(op_norm(q) - 1.0) < 1e-9


def test_op_norm_against_eigensolver_oracle(rng):
    m = random_complex(rng, 4, 4)
    top = np.max(np.linalg.eigvalsh(m.conj().T @ m))
    assert np.isclose(op_norm(m) ** 2, top)


def _residual_stacks():
    # sparse round-off, as left by the corner checks, and dense noise at
    # mixed scales
    rng = np.random.default_rng(7)
    sparse = np.where(rng.random((60, 9, 9)) < 0.1,
                      rng.standard_normal((60, 9, 9)) * 1e-16, 0.0)
    dense = random_complex(rng, 60 * 5, 5).reshape(60, 5, 5) \
        * np.logspace(-3, 3, 60)[:, None, None]
    return [sparse, sparse + 1j * sparse[::-1], dense, dense[::-1]]


def _rank_one_stack():
    # operator and Frobenius norms coincide, and the norms grow by a few
    # ulps from one matrix to the next, so only the margin separates them
    rng = np.random.default_rng(11)
    out = []
    for j in range(40):
        u, v = random_complex(rng, 6, 1), random_complex(rng, 1, 4)
        m = u @ v
        out.append(m / np.linalg.norm(m) * (1 + j * 2.2e-16))
    return np.stack(out)


@pytest.mark.parametrize("mats", _residual_stacks() + [
    _rank_one_stack(), _rank_one_stack()[::-1], np.zeros((5, 3, 3))])
def test_largest_op_norm_is_the_maximum_bit_for_bit(mats):
    want = max(op_norm(m) for m in mats)
    assert largest_op_norm(mats) == want
    assert largest_op_norm(iter(mats)) == want
    assert largest_op_norm(mats, floor=want) == want
    assert largest_op_norm(mats, floor=want / 2) == want


def test_largest_op_norm_skips_what_cannot_raise_the_maximum(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "op_norm",
                        lambda m: calls.append(1) or op_norm(m))
    mats = _residual_stacks()[0]
    top = max(np.linalg.norm(m) for m in mats)
    assert largest_op_norm(mats, floor=2 * top) == 2 * top
    assert largest_op_norm([], floor=0.5) == 0.5
    assert not calls
    assert largest_op_norm(np.zeros((4, 2, 2))) == 0.0 and not calls
    assert largest_op_norm(mats) == max(op_norm(m) for m in mats)
    assert 0 < len(calls) < len(mats) / 2


def test_op_norm_submultiplicative(rng):
    for _ in range(20):
        a, b = random_complex(rng, 4, 4), random_complex(rng, 4, 4)
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9


def test_nullspace_cases(rng):
    v = nullspace(np.array([[1.0, 1.0]]))
    assert v.shape == (2, 1)
    direction = v[:, 0] / v[0, 0]
    assert np.allclose(direction, [1.0, -1.0])
    assert np.isclose(np.linalg.norm(v[:, 0]), 1.0)
    assert nullspace(np.eye(3)).shape == (3, 0)
    # a rounding-level matrix has full rank relative to itself, and is zero
    # against the scale of the data it came from
    noise = 1e-17 * random_complex(rng, 3, 3)
    assert nullspace(noise).shape == (3, 0)
    assert nullspace(noise, scale=1.0).shape == (3, 3)
    assert nullspace(np.eye(3), scale=1.0).shape == (3, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.lists(st.integers(0, 12),
                                                     min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_nullspace_of_row_blocks_is_that_of_their_stack(cols, rank, heights,
                                                       seed):
    # blocks are folded into a running R factor, wide or tall at each step
    rank = min(rank, cols)
    rng = np.random.default_rng(seed)
    m = random_complex(rng, sum(heights), rank) @ random_complex(rng, rank, cols)
    blocks = np.split(m, np.cumsum(heights)[:-1])
    got, want = nullspace(iter(blocks)), nullspace(m)
    assert got.shape == want.shape
    assert np.allclose(got @ got.conj().T, want @ want.conj().T, atol=1e-8)


def test_orthonormal_columns_cases(rng):
    a = random_complex(rng, 4, 2) @ random_complex(rng, 2, 3)
    q = orthonormal_columns(a)
    assert q.shape == (4, 2)
    assert np.allclose(q.conj().T @ q, np.eye(2))
    assert np.allclose(q @ (q.conj().T @ a), a)
    # as for nullspace: rounding-level columns have full rank relative to
    # themselves, and none against the scale of the data they came from
    noise = 1e-17 * random_complex(rng, 3, 3)
    assert orthonormal_columns(noise).shape == (3, 3)
    assert orthonormal_columns(noise, scale=1.0).shape == (3, 0)
    assert orthonormal_columns(np.eye(3), scale=1.0).shape == (3, 3)


def test_nullspace_of_constructed_rank_two(rng):
    left = random_complex(rng, 4, 2)
    right = random_complex(rng, 2, 4)
    m = left @ right
    v = nullspace(m)
    assert v.shape == (4, 2) == (4, naive_nullspace_dim(m))
    assert np.max(np.abs(m @ v)) < 1e-9 * op_norm(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
def test_tall_nullspace_matches_scipy(cols, rank, extra, seed):
    # a tall input goes through its R factor; the kernel must have scipy's
    # rank and span
    rank = min(rank, cols)
    rng = np.random.default_rng(seed)
    m = random_complex(rng, cols + extra, rank) @ random_complex(rng, rank, cols)
    got, want = nullspace(m), scipy_null_space(m)
    assert got.shape == want.shape == (cols, cols - rank)
    assert np.allclose(got.conj().T @ got, np.eye(cols - rank))
    assert np.allclose(got @ got.conj().T, want @ want.conj().T)


def test_eig_hermitian_cases(rng):
    w, _ = eig_hermitian(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    w, _ = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])
    x = random_complex(rng, 6, 6)
    h = (x + x.conj().T) / 2
    w, v = eig_hermitian(h)
    assert op_norm(v @ np.diag(w) @ v.conj().T - h) < 1e-10
    with pytest.raises(ValueError):
        eig_hermitian(random_complex(rng, 3, 3))


def test_eig_hermitian_refuses_an_asymmetry_of_ten_tolerances(rng):
    # an anti-Hermitian part with |m - m*| = 10 tol on a Hermitian matrix of
    # operator norm 1 fails the operator-norm test, and must fail this one;
    # a part with |m - m*| = tol / 10 passes
    tol = 1e-9
    x, y = random_complex(rng, 6, 6), random_complex(rng, 6, 6)
    h = (x + x.conj().T) / 2
    skew = (y - y.conj().T) / 2
    h, skew = h / op_norm(h), skew / op_norm(skew)
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(h + 5 * tol * skew, tol)
    eig_hermitian(h + 0.05 * tol * skew, tol)


def test_is_projection_cases(rng):
    assert is_projection(np.eye(4))
    assert is_projection(np.full((2, 2), 0.5))
    x = random_complex(rng, 3, 3)
    h = (x + x.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w = np.array([0.0, 0.5, 1.0])
    halfway = v @ np.diag(w) @ v.conj().T
    assert not is_projection(halfway)


def test_draws_are_a_function_of_the_seed():
    for method in ("random", "standard_normal"):
        first = getattr(Draws(7), method)(50)
        assert np.array_equal(first, getattr(Draws(7), method)(50))
        assert not np.array_equal(first, getattr(Draws(8), method)(50))


def test_draws_have_the_requested_shapes():
    draws = Draws(0)
    for method in (draws.random, draws.standard_normal):
        assert type(method()) is float
        assert method(4).shape == (4,)
        assert method((2, 3)).shape == (2, 3)
        assert method(0).shape == (0,)


def test_complex_normals_draw_the_real_parts_first():
    z, pair = Draws(5).complex_normal((2, 3)), Draws(5)
    assert np.array_equal(z.real, pair.standard_normal((2, 3)))
    assert np.array_equal(z.imag, pair.standard_normal((2, 3)))
    # called unbound, a numpy Generator serves as the source
    assert Draws.complex_normal(np.random.default_rng(0), 4).shape == (4,)


def test_uniform_draws_lie_in_the_unit_interval():
    u = Draws(1).random(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # 53 random bits: no draw is a multiple of a coarser grid than 2^-53
    assert np.any(u * 2.0 ** 52 % 1.0)


def test_normal_draws_have_mean_zero_and_variance_one():
    n = 200_000
    z = Draws(2).standard_normal(n)
    assert np.all(np.isfinite(z))
    # the sample variance of n normals has standard deviation sqrt(2 / n)
    assert abs(z.mean()) < 5 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / n)


def test_random_element_takes_draws_or_a_numpy_generator():
    a = make_algebra([2, 1])
    for source in (Draws(0), np.random.default_rng(0)):
        x = a.random_element(source)
        assert x.shape == (a.dim,) and x.dtype == complex
        assert np.all(x.imag != 0.0)
