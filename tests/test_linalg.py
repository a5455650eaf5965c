import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import complex_add_polar
from qmatch import linalg
from qmatch.errors import DomainError, NumericError, ShapeError

RNG = np.random.default_rng(20260814)


def random_hermitian(n, rng=RNG, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_psd(n, rng=RNG):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T / n


def reconstruct(values, vectors):
    """V diag(values) V^dagger of an eigenpair, or of each pair of a stack."""
    return (vectors * values[..., None, :]) @ np.swapaxes(vectors.conj(), -1, -2)


def test_outer_product_hand_expanded():
    v = np.array([1.0, 1j]) / math.sqrt(2.0)
    p = linalg.outer_product(v)
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    np.testing.assert_allclose(p, expected, atol=1e-15)


def test_outer_product_exactly_hermitian():
    for n in (2, 3, 7, 20):
        v = RNG.normal(size=n) + 1j * RNG.normal(size=n)
        p = linalg.outer_product(v)
        assert np.array_equal(p, p.conj().T)


def test_outer_product_rank_one_trace():
    v = RNG.normal(size=5) + 1j * RNG.normal(size=5)
    p = linalg.outer_product(v)
    assert abs(np.trace(p) - np.vdot(v, v)) < 1e-12
    assert np.linalg.matrix_rank(p) == 1


def test_outer_product_of_a_stack_equals_each_vector_to_the_bit():
    stack = RNG.normal(size=(3, 4, 5)) + 1j * RNG.normal(size=(3, 4, 5))
    p = linalg.outer_product(stack)
    assert p.shape == (3, 4, 5, 5)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(p[i, j], linalg.outer_product(stack[i, j]))


def test_outer_product_rejects_a_scalar():
    with pytest.raises(ShapeError):
        linalg.outer_product(np.complex128(1.0))


def test_eig_diagonal_real():
    values, vectors = linalg.hermitian_eig(np.diag([3.0, -1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(values, [3.0, 2.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(vectors), np.eye(3)[:, [0, 2, 1]], atol=1e-14)


def test_eig_pauli_x():
    values, _ = linalg.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(values, [1.0, -1.0], atol=1e-14)


def test_eig_pauli_y():
    # purely imaginary off-diagonal entries
    y = np.array([[0.0, -1j], [1j, 0.0]])
    values, vectors = linalg.hermitian_eig(y)
    np.testing.assert_allclose(values, [1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(reconstruct(values, vectors), y, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 50])
def test_eig_random_hermitian_against_numpy(n):
    a = random_hermitian(n)
    values, vectors = linalg.hermitian_eig(a)
    # descending order
    assert np.all(np.diff(values) <= 1e-12)
    # orthonormal columns
    np.testing.assert_allclose(
        vectors.conj().T @ vectors, np.eye(n), atol=1e-10
    )
    # reconstruction
    rebuilt = reconstruct(values, vectors)
    assert np.linalg.norm(rebuilt - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
    # eigenvalues agree with the library solver
    np.testing.assert_allclose(values, np.linalg.eigvalsh(a)[::-1], atol=1e-9)


def test_eig_scale_extremes():
    for scale in (1e-10, 1e8):
        a = random_hermitian(6, scale=scale)
        rebuilt = reconstruct(*linalg.hermitian_eig(a))
        assert np.linalg.norm(rebuilt - a) <= 1e-8 * np.linalg.norm(a)


def test_eig_rejects_non_hermitian():
    with pytest.raises(DomainError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_non_square():
    with pytest.raises(ShapeError):
        linalg.hermitian_eig(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_eig_rejects_non_finite(bad):
    # LAPACK would return NaN eigenvalues here without complaint
    a = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NumericError, match="non-finite"):
        linalg.hermitian_eig(a)


def test_eig_lapack_failure_becomes_numeric_error(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(NumericError, match="did not converge"):
        linalg.hermitian_eig(np.eye(2, dtype=complex))


def test_eig_one_by_one():
    values, vectors = linalg.hermitian_eig(np.array([[2.5]], dtype=complex))
    np.testing.assert_array_equal(values, [2.5])
    np.testing.assert_allclose(np.abs(vectors), [[1.0]])


def test_matrix_function_sqrt_diagonal():
    out = linalg.matrix_function(np.diag([4.0, 1.0]).astype(complex), np.sqrt)
    np.testing.assert_allclose(out, np.diag([2.0, 1.0]), atol=1e-12)


def test_matrix_function_log_identity_is_zero():
    out = linalg.matrix_function(np.eye(3, dtype=complex), np.log, eigen_floor=1e-12)
    np.testing.assert_allclose(out, np.zeros((3, 3)), atol=1e-12)


def test_matrix_function_sqrt_squares_back():
    a = random_psd(5)
    root = linalg.matrix_function(a, np.sqrt)
    np.testing.assert_allclose(root @ root, a, atol=1e-9 * np.linalg.norm(a))


def test_matrix_function_floor_regularises_log():
    # rank-deficient density matrix: log would blow up without the floor
    v = np.array([1.0, 0.0, 0.0], dtype=complex)
    rho = linalg.outer_product(v)
    out = linalg.matrix_function(rho, np.log, eigen_floor=1e-12)
    assert np.all(np.isfinite(out))
    assert abs(out[0, 0]) < 1e-10
    assert abs(out[1, 1] - math.log(1e-12)) < 1e-6


def test_matrix_function_rejects_indefinite():
    with pytest.raises(DomainError):
        linalg.matrix_function(np.diag([1.0, -0.5]).astype(complex), np.sqrt)


@pytest.mark.parametrize("d", [2, 3, 4, 16])
def test_stacked_calls_equal_per_matrix_calls_to_the_bit(d):
    rng = np.random.default_rng(d)
    stack = np.array([[random_psd(d, rng) for _ in range(3)] for _ in range(2)])
    values, vectors = linalg.hermitian_eig(stack)
    rebuilt = reconstruct(values, vectors)
    roots = linalg.matrix_function(stack, np.sqrt)
    logs = linalg.matrix_function(stack, np.log, eigen_floor=1e-12)
    assert values.shape == (2, 3, d) and vectors.shape == (2, 3, d, d)
    for i in np.ndindex(2, 3):
        alone = linalg.hermitian_eig(stack[i])
        np.testing.assert_array_equal(values[i], alone[0])
        np.testing.assert_array_equal(vectors[i], alone[1])
        np.testing.assert_array_equal(rebuilt[i], reconstruct(*alone))
        np.testing.assert_array_equal(
            roots[i], linalg.matrix_function(stack[i], np.sqrt)
        )
        np.testing.assert_array_equal(
            logs[i], linalg.matrix_function(stack[i], np.log, eigen_floor=1e-12)
        )
    np.testing.assert_array_equal(
        linalg.hermitize(stack)[1, 2], linalg.hermitize(stack[1, 2])
    )


def _spoil(stack, index, fault):
    if fault == "non-hermitian":
        stack[index][0, 1] += 1.0
    elif fault == "non-finite":
        stack[index][1, 1] = np.nan
    elif fault == "indefinite":
        stack[index] = np.diag([1.0, -0.5, 0.2])
    else:  # eigenvalues the function maps to infinity
        stack[index] = 100.0 * np.eye(3)


def _inf_above_fifty(x):
    return np.where(x > 50.0, np.inf, x)


@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("non-hermitian", DomainError, "{} is not Hermitian"),
        ("non-finite", NumericError, "non-finite entries in {} passed"),
        ("indefinite", DomainError, "{} is not positive semidefinite"),
        ("function", NumericError, "non-finite eigenvalues for {}$"),
    ],
)
@pytest.mark.parametrize(
    "shape, index, name",
    [((5,), (3,), "matrix 3"), ((2, 3), (1, 2), "matrix 1, 2"), ((), (), "matrix")],
)
def test_stack_errors_name_the_offending_matrix(
    fault, error, message, shape, index, name
):
    rng = np.random.default_rng(4)
    stack = np.array([random_psd(3, rng) for _ in range(int(np.prod(shape)))])
    stack = stack.reshape(shape + (3, 3))
    _spoil(stack, index, fault)
    with pytest.raises(error, match=message.format(name)):
        linalg.matrix_function(stack, _inf_above_fifty)


def test_add_polar_aligned_is_exact_real_addition():
    rng = np.random.default_rng(7)
    for _ in range(500):
        r1, r2 = rng.uniform(0.0, 3.0, size=2)
        r, theta = complex_add_polar(r1, 0.0, r2, 0.0)
        assert r == r1 + r2
        assert theta == 0.0


def test_add_polar_destructive():
    r, theta = complex_add_polar(1.0, 0.0, 1.0, math.pi)
    assert r == 0.0
    assert theta == 0.0


def test_add_polar_right_angle():
    r, theta = complex_add_polar(1.0, 0.0, 1.0, math.pi / 2.0)
    assert abs(r - math.sqrt(2.0)) < 1e-15
    assert abs(theta - math.pi / 4.0) < 1e-15


def test_add_polar_rejects_negative_magnitude():
    with pytest.raises(DomainError):
        complex_add_polar(-1.0, 0.0, 1.0, 0.0)


def test_add_polar_rejects_nan_phase():
    with pytest.raises(DomainError):
        complex_add_polar(1.0, float("nan"), 1.0, 0.0)


@given(
    r1=st.floats(0.0, 5.0),
    t1=st.floats(-math.pi, math.pi),
    r2=st.floats(0.0, 5.0),
    t2=st.floats(-math.pi, math.pi),
)
# nearly opposite equal magnitudes: the half-angle form cancelled to r = 0
@example(r1=1.0, t1=1.3769461108484481e-11, r2=1.0, t2=math.pi)
@example(r1=2.0, t1=-math.pi, r2=2.0, t2=1e-9)
@settings(max_examples=300)
def test_add_polar_matches_rectangular(r1, t1, r2, t2):
    z = r1 * complex(math.cos(t1), math.sin(t1)) + r2 * complex(
        math.cos(t2), math.sin(t2)
    )
    r, theta = complex_add_polar(r1, t1, r2, t2)
    assert abs(r - abs(z)) < 1e-12
    assert abs(complex(r * math.cos(theta), r * math.sin(theta)) - z) < 1e-12


@given(st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_eig_property_reconstruction(n):
    a = random_hermitian(n)
    rebuilt = reconstruct(*linalg.hermitian_eig(a))
    assert np.linalg.norm(rebuilt - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
