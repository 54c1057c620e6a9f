"""Dicke isometries, coefficient tensors, coherent states, classicality."""

import numpy as np
import pytest

from conftest import count_row_passes
from tgmat.errors import (
    BadAngle,
    BadIndex,
    NonHermitian,
    OrderTooLarge,
    TraceNotOne,
    WeightMismatch,
)
from tgmat.spin import (
    certify_classicality,
    classical_mixture,
    coefficient_tensor,
    coherent_direction,
    coherent_state,
    dicke_isometry,
    reconstruct_state,
    s_operator,
    spin_state,
    state_from_json,
)
from tgmat.tensor import diagonal, poly_values


def random_state(rng, m):
    G = rng.standard_normal((m + 1, m + 1)) + 1j * rng.standard_normal((m + 1, m + 1))
    rho = G @ G.conj().T
    return spin_state(m, rho / np.trace(rho))


def psd_floor(coeff, samples=100_000, seed=99):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return float(np.min(poly_values(coeff, X)))


class TestDickeIsometry:
    def test_m1_identity(self):
        assert np.array_equal(dicke_isometry(1), np.eye(2, dtype=complex))

    def test_m2_triplet(self):
        V = dicke_isometry(2)
        expected = np.zeros((4, 3))
        expected[0, 0] = 1.0
        expected[1, 1] = expected[2, 1] = 1 / np.sqrt(2)
        expected[3, 2] = 1.0
        assert np.max(np.abs(V - expected)) < 1e-15

    def test_orthonormal_columns(self):
        for m in range(1, 7):
            V = dicke_isometry(m)
            err = np.max(np.abs(V.conj().T @ V - np.eye(m + 1)))
            assert err <= 1e-14

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            dicke_isometry(9)


class TestSOperator:
    def test_identity_string(self):
        assert np.max(np.abs(s_operator((0, 0, 0)) - np.eye(4))) < 1e-14

    def test_single_pauli_z(self):
        assert np.allclose(s_operator((3,)), np.diag([1.0, -1.0]))

    def test_z_string_m2(self):
        assert np.allclose(s_operator((3, 3)), np.diag([1.0, -1.0, 1.0]))

    def test_hermitian_and_permutation_invariant(self):
        rng = np.random.default_rng(51)
        for _ in range(15):
            m = int(rng.integers(2, 5))
            mus = tuple(rng.integers(0, 4, m).tolist())
            S = s_operator(mus)
            assert np.max(np.abs(S - S.conj().T)) <= 1e-13
            perm = tuple(rng.permutation(mus).tolist())
            assert np.max(np.abs(S - s_operator(perm))) <= 1e-13

    def test_bad_label(self):
        with pytest.raises(BadIndex):
            s_operator((0, 4))


class TestStateValidation:
    def test_non_hermitian(self):
        with pytest.raises(NonHermitian):
            spin_state(1, np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_trace(self):
        with pytest.raises(TraceNotOne):
            spin_state(1, np.eye(2))


class TestCoefficientTensor:
    def test_maximally_mixed_m2(self):
        # sphere-average oracle: diagonal entries are <n_mu^2> = (1, 1/3, 1/3, 1/3)
        st = spin_state(2, np.eye(3) / 3)
        A = coefficient_tensor(st)
        assert np.allclose(diagonal(A), [1.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        off = A.entries.copy()
        np.fill_diagonal(off, 0.0)
        assert np.max(np.abs(off)) <= 1e-12

    def test_coherent_state_factorizes(self):
        for theta, phi in ((0.0, 0.0), (np.pi / 2, 0.0), (1.1, 2.2)):
            st = coherent_state(2, theta, phi)
            A = coefficient_tensor(st)
            nvec = coherent_direction(theta, phi)
            assert np.max(np.abs(A.entries - np.einsum("i,j->ij", nvec, nvec))) <= 1e-10

    def test_invariants_on_random_states(self):
        rng = np.random.default_rng(52)
        for m in (2, 3, 4):
            for _ in range(10):
                st = random_state(rng, m)
                A = coefficient_tensor(st)
                assert A.order == m and A.dim == 4
                assert abs(A.entries[(0,) * m] - 1.0) <= 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(53)
        for m in (2, 3, 4):
            for _ in range(10):
                st = random_state(rng, m)
                rec = reconstruct_state(coefficient_tensor(st))
                assert np.max(np.abs(rec.rho - st.rho)) <= 1e-10

    def test_affine_in_rho(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            a = random_state(rng, 3)
            b = random_state(rng, 3)
            w = float(rng.uniform(0.1, 0.9))
            mix = spin_state(3, w * a.rho + (1 - w) * b.rho)
            A = coefficient_tensor(mix).entries
            B = w * coefficient_tensor(a).entries + (1 - w) * coefficient_tensor(b).entries
            assert np.max(np.abs(A - B)) <= 1e-12


class TestCoherentStates:
    def test_north_pole(self):
        st = coherent_state(3, 0.0, 0.0)
        e = np.zeros((4, 4))
        e[0, 0] = 1.0
        assert np.max(np.abs(st.rho - e)) < 1e-15

    def test_south_pole(self):
        st = coherent_state(3, np.pi, 0.0)
        e = np.zeros((4, 4))
        e[3, 3] = 1.0
        assert np.max(np.abs(st.rho - e)) < 1e-15

    def test_unit_norm(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            st = coherent_state(m, float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))
            assert abs(np.trace(st.rho) - 1.0) <= 1e-12

    def test_bad_angles(self):
        with pytest.raises(BadAngle):
            coherent_state(2, -0.1, 0.0)
        with pytest.raises(BadAngle):
            coherent_state(2, 0.5, 2 * np.pi)


class TestMixtures:
    def test_single_direction_is_coherent(self):
        a = classical_mixture(3, [1.0], [(0.7, 0.4)])
        b = coherent_state(3, 0.7, 0.4)
        assert np.max(np.abs(a.rho - b.rho)) < 1e-15

    def test_plus_minus_z(self):
        mix = classical_mixture(2, [0.5, 0.5], [(0.0, 0.0), (np.pi, 0.0)])
        assert np.allclose(np.diag(mix.rho.real), [0.5, 0.0, 0.5], atol=1e-12)
        A = coefficient_tensor(mix)
        n_plus = np.array([1.0, 0, 0, 1.0])
        n_minus = np.array([1.0, 0, 0, -1.0])
        expected = 0.5 * np.outer(n_plus, n_plus) + 0.5 * np.outer(n_minus, n_minus)
        assert np.max(np.abs(A.entries - expected)) <= 1e-10

    def test_mixture_coefficients_are_weighted_powers(self):
        rng = np.random.default_rng(56)
        m = 3
        k = 4
        w = rng.uniform(0.1, 1.0, k)
        w /= w.sum()
        dirs = [(float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))) for _ in range(k)]
        mix = classical_mixture(m, w, dirs)
        A = coefficient_tensor(mix).entries
        expected = np.zeros_like(A)
        for wi, (th, ph) in zip(w, dirs):
            nv = coherent_direction(th, ph)
            expected += wi * np.einsum("i,j,k->ijk", nv, nv, nv)
        assert np.max(np.abs(A - expected)) <= 1e-10

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatch):
            classical_mixture(2, [0.7, 0.4], [(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(WeightMismatch):
            classical_mixture(2, [1.0], [(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(WeightMismatch):
            classical_mixture(2, [-0.5, 1.5], [(0.0, 0.0), (1.0, 1.0)])


class TestClassicality:
    def test_odd_order_inconclusive(self):
        rng = np.random.default_rng(57)
        st = random_state(rng, 3)
        v = certify_classicality(st)
        assert v.verdict == "inconclusive" and "odd" in v.reason

    def test_maximally_mixed_m2_certified(self):
        st = spin_state(2, np.eye(3) / 3)
        v = certify_classicality(st)
        assert v.certified and v.rule == "strongly_symmetric_H"
        assert psd_floor(coefficient_tensor(st)) >= -1e-9

    def test_statistics_built_once(self, monkeypatch):
        # the cascade reads the record certify_classicality built
        calls = count_row_passes(monkeypatch)
        v = certify_classicality(spin_state(2, np.eye(3) / 3))
        assert v.certified and v.certificate.certified
        assert len(calls) == 1

    def test_maximally_mixed_m4_psd_regardless_of_verdict(self):
        # the cascade may stay inconclusive here, but the state is classical,
        # so the sampled form must be nonnegative either way
        st = spin_state(4, np.eye(5) / 5)
        certify_classicality(st)
        assert psd_floor(coefficient_tensor(st)) >= -1e-9

    def test_pure_coherent_state_is_boundary(self):
        v = certify_classicality(coherent_state(2, 0.0, 0.0))
        assert v.verdict == "inconclusive"

    def test_certified_states_pass_psd_sampling(self):
        rng = np.random.default_rng(58)
        certified = 0
        for m in (2, 4):
            for _ in range(6):
                k = int(rng.integers(6, 12))
                w = rng.uniform(0.2, 1.0, k)
                w /= w.sum()
                dirs = [(float(np.arccos(rng.uniform(-1, 1))), float(rng.uniform(0, 2 * np.pi)))
                        for _ in range(k)]
                mix = classical_mixture(m, w, dirs)
                v = certify_classicality(mix)
                if v.certified:
                    certified += 1
                    assert psd_floor(coefficient_tensor(mix), samples=20_000) >= -1e-9
        assert certified >= 3


class TestStateJson:
    def test_density_form(self):
        obj = {"m": 2, "rho_re": np.eye(3).tolist()}
        st = state_from_json({"m": 2, "rho_re": (np.eye(3) / 3).tolist()})
        assert st.m == 2
        # a null rho_im means the same as an omitted one
        assert np.array_equal(state_from_json({"m": 2, "rho_re": (np.eye(3) / 3).tolist(), "rho_im": None}).rho, st.rho)
        with pytest.raises(TraceNotOne):
            state_from_json(obj)

    def test_mixture_form(self):
        obj = {"m": 2, "components": [
            {"w": 0.5, "theta": 0.0, "phi": 0.0},
            {"w": 0.5, "theta": float(np.pi), "phi": 0.0}]}
        st = state_from_json(obj)
        assert np.allclose(np.diag(st.rho.real), [0.5, 0.0, 0.5])

    def test_complex_part(self):
        re = (np.eye(2) / 2).tolist()
        im = [[0.0, 0.1], [-0.1, 0.0]]
        st = state_from_json({"m": 1, "rho_re": re, "rho_im": im})
        assert st.rho[0, 1] == pytest.approx(0.1j)
