import numpy as np
import pytest

from hepp_expand.errors import DimensionMismatchError
from hepp_expand.symplectic import (
    RLinearMap,
    decompose,
    exp_antilinear,
    is_symplectomorphism,
    random_symplectomorphism,
)

from conftest import random_vector


def squeeze_1d(t):
    return RLinearMap([[np.cosh(t)]], [[np.sinh(t)]])


class TestCompose:
    def test_identity_neutral(self, rng):
        t = random_symplectomorphism(rng, 3)
        eye = RLinearMap.identity(3)
        assert eye.compose(t).distance(t) < 1e-14
        assert t.compose(eye).distance(t) < 1e-14

    def test_1d_squeeze_addition_law(self):
        # hand expansion: cosh/sinh addition formulas
        s, t = 0.4, 0.9
        got = squeeze_1d(s).compose(squeeze_1d(t))
        assert got.distance(squeeze_1d(s + t)) < 1e-14

    def test_i_squared_is_minus_identity(self):
        i_map = RLinearMap(1j * np.eye(2))
        got = i_map.compose(i_map)
        assert np.allclose(got.linear, -np.eye(2))
        assert np.allclose(got.antilinear, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            RLinearMap.identity(2).compose(RLinearMap.identity(3))

    def test_apply_matches_composition(self, rng):
        s = random_symplectomorphism(rng, 3)
        t = random_symplectomorphism(rng, 3)
        z = random_vector(rng, 3)
        assert np.allclose(s.compose(t).apply(z), s.apply(t.apply(z)), atol=1e-12)


class TestAdjoint:
    def test_real_antilinear_1d_self_adjoint(self):
        a = RLinearMap(np.zeros((1, 1)), [[0.8]])
        assert a.adjoint().distance(a) < 1e-15

    def test_antilinear_adjoint_identity(self, rng):
        anti = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = RLinearMap(np.zeros_like(anti), anti)
        for _ in range(5):
            z1 = random_vector(rng, 3)
            z2 = random_vector(rng, 3)
            lhs = np.vdot(z1, a.apply(z2))
            rhs = np.vdot(z2, a.adjoint().apply(z1))
            assert abs(lhs - rhs) < 1e-12

    def test_involution(self, rng):
        t = random_symplectomorphism(rng, 3)
        assert t.adjoint().adjoint().distance(t) < 1e-14

    def test_reverses_composition(self, rng):
        s = random_symplectomorphism(rng, 2)
        t = random_symplectomorphism(rng, 2)
        lhs = s.compose(t).adjoint()
        rhs = t.adjoint().compose(s.adjoint())
        assert lhs.distance(rhs) < 1e-12


class TestSymplectomorphismPredicate:
    def test_identity(self):
        rep = is_symplectomorphism(RLinearMap.identity(3), tol=1e-10)
        assert rep.ok and rep.gram_defect == 0.0 and rep.cross_defect == 0.0

    def test_1d_squeeze(self):
        # cosh^2 - sinh^2 = 1
        assert is_symplectomorphism(squeeze_1d(0.7), tol=1e-12).ok

    def test_doubled_identity_fails(self):
        rep = is_symplectomorphism(RLinearMap(2.0 * np.eye(2)), tol=1e-10)
        assert not rep.ok
        assert abs(rep.gram_defect - 3.0) < 1e-14

    def test_seven_way_equivalence(self, rng):
        # conditions (2), (4) and (7) hold simultaneously
        for dim in (1, 2, 3):
            t = random_symplectomorphism(rng, dim)
            ml, ma = t.linear, t.antilinear
            eye = np.eye(dim)
            inv = RLinearMap(ml.conj().T, -ma.T)
            assert inv.compose(t).distance(RLinearMap.identity(dim)) < 1e-10
            rep = is_symplectomorphism(t, tol=1e-10)
            assert rep.ok
            assert np.linalg.norm(ml @ ml.conj().T - ma @ np.conj(ma.T) - eye, 2) < 1e-10
            assert np.linalg.norm(ml @ ma.T - ma @ ml.T, 2) < 1e-10

    def test_linear_part_invertible_and_large(self, rng):
        t = random_symplectomorphism(rng, 3)
        sig = np.linalg.svd(t.linear, compute_uv=False)
        assert sig.min() >= 1.0 - 1e-12
        assert np.linalg.norm(t.linear, 2) >= 1.0 - 1e-12

    def test_inverse_composes_to_identity(self, rng):
        t = random_symplectomorphism(rng, 3)
        assert t.compose(t.inverse()).distance(RLinearMap.identity(3)) < 1e-10
        assert t.inverse().compose(t).distance(RLinearMap.identity(3)) < 1e-10


class TestDecompose:
    def test_identity(self):
        dec = decompose(RLinearMap.identity(3))
        assert np.allclose(dec.unitary, np.eye(3))
        assert np.allclose(dec.rho_eigs, 0.0)

    def test_1d_squeeze(self):
        dec = decompose(squeeze_1d(1.3))
        assert abs(dec.unitary[0, 0] - 1.0) < 1e-12
        assert abs(dec.rho_eigs[0] - 1.3) < 1e-12
        # fixed basis of the conjugation is the real axis up to phase
        e = dec.conj_basis
        c_mat = e @ e.T
        assert abs(abs(c_mat[0, 0]) - 1.0) < 1e-12

    def test_random_reconstruction(self, rng):
        for dim in (2, 3):
            for _ in range(5):
                t = random_symplectomorphism(rng, dim)
                dec = decompose(t)
                assert np.all(dec.rho_eigs >= 0.0)
                # conjugation basis is orthonormal
                e = dec.conj_basis
                assert np.linalg.norm(e.conj().T @ e - np.eye(dim), 2) < 1e-12
                assert dec.reconstruct().distance(t) < 1e-10

    def test_degenerate_rho(self, rng):
        # repeated squeezing eigenvalues exercise the grouped reduction
        e = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        t = exp_antilinear(e, [0.5, 0.5, 0.0])
        dec = decompose(t)
        assert dec.reconstruct().distance(t) < 1e-10

    def test_rejects_non_symplectomorphism(self):
        with pytest.raises(ValueError):
            decompose(RLinearMap(2.0 * np.eye(2)))


class TestExpAntilinear:
    def test_zero_is_identity(self):
        got = exp_antilinear(np.eye(3), np.zeros(3))
        assert got.distance(RLinearMap.identity(3)) < 1e-15

    def test_1d_matches_squeeze(self):
        got = exp_antilinear(np.eye(1), [0.6])
        assert got.distance(squeeze_1d(0.6)) < 1e-15

    def test_addition_in_same_basis(self, rng):
        e = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        r1 = rng.random(3)
        r2 = rng.random(3)
        lhs = exp_antilinear(e, r1).compose(exp_antilinear(e, r2))
        rhs = exp_antilinear(e, r1 + r2)
        assert lhs.distance(rhs) < 1e-12

    def test_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            exp_antilinear(np.eye(2), [-0.1, 0.0])


def test_norm_is_submultiplicative(rng):
    for _ in range(10):
        s = random_symplectomorphism(rng, 2)
        t = random_symplectomorphism(rng, 2)
        assert s.compose(t).norm_x() <= s.norm_x() * t.norm_x() + 1e-12
