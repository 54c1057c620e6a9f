"""Eigenpair oracles, and the Collatz-Wielandt bracket of a nonnegative tensor's spectral radius."""

import numpy as np
import pytest

from conftest import ENTRIES_ORDER_22, random_sparse_tensor
from tgmat import oracle
from tgmat.dominance import _cw_bracket
from tgmat.errors import NonFiniteValue, WrongDimension
from tgmat.oracle import h_eigen_exact_2d, h_eigen_newton
from tgmat.tensor import DenseTensor, build_tensor, contract, unit_tensor, zero_tensor


def residual_ok(t, pair):
    res = contract(t, pair.vector) - pair.value * pair.vector ** (t.order - 1)
    return np.max(np.abs(res)) <= 1e-8 * max(1.0, abs(pair.value))


def within_relative_tolerance(t, pair):
    """The residual is within 1e-8 max(|lambda|, max|a|), the tolerance that scales with t."""
    res = contract(t, pair.vector) - pair.value * pair.vector ** (t.order - 1)
    return np.max(np.abs(res)) <= 1e-8 * max(abs(pair.value), np.max(np.abs(t.entries)))


def contract_jacobian(t, x):
    """Jacobian of ``contract`` with respect to x, an n x n matrix."""
    m, n = t.order, t.dim
    J = np.zeros((n, n))
    for k in range(1, m):
        v = t.entries
        for axis in range(m - 1, 0, -1):
            if axis == k:
                continue
            v = np.tensordot(v, x, axes=(axis, 0))
        J += v
    return J


def reference_solve(t, x0, lam0, max_iter=80, max_halvings=30):
    """Damped Newton for one start, one halving at a time."""
    m, n = t.order, t.dim
    x, lam = x0.copy(), lam0

    def system(xv, lv):
        F = np.empty(n + 1)
        F[:n] = contract(t, xv) - lv * xv ** (m - 1)
        F[n] = xv @ xv - 1.0
        return F

    F = system(x, lam)
    norm = np.max(np.abs(F))
    for _ in range(max_iter):
        if norm <= 1e-10:
            return x, lam, True
        J = np.empty((n + 1, n + 1))
        J[:n, :n] = contract_jacobian(t, x)
        if m == 2:
            J[:n, :n] -= lam * np.eye(n)
        else:
            J[:n, :n] -= lam * (m - 1) * np.diag(x ** (m - 2))
        J[:n, n] = -(x ** (m - 1))
        J[n, :n] = 2.0 * x
        J[n, n] = 0.0
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return x, lam, False
        scale = 1.0
        for _ in range(max_halvings):
            xt = x + scale * step[:n]
            lt = lam + scale * step[n]
            Ft = system(xt, lt)
            nt = np.max(np.abs(Ft))
            if nt < norm:
                x, lam, F, norm = xt, lt, Ft, nt
                break
            scale *= 0.5
        else:
            return x, lam, norm <= 1e-10
    return x, lam, norm <= 1e-10


def reference_start(t, x0):
    """The Rayleigh-like initial eigenvalue guess for one unit start."""
    denom = float(np.sum(x0 ** t.order))
    lam0 = float(x0 @ contract(t, x0) / denom) if abs(denom) > 1e-8 else 0.0
    return lam0 if np.isfinite(lam0) else 0.0


def reference_newton(t, starts, seed):
    """The multistart search with one start at a time and no polishing."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(starts):
        v = rng.standard_normal(t.dim)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        x0 = v / nv
        x, lam, ok = reference_solve(t, x0, reference_start(t, x0))
        if not ok or not np.all(np.isfinite(x)) or not np.isfinite(lam):
            continue
        pair = oracle._finish_pair(t, lam, x, float(np.max(np.abs(t.entries))))
        if pair:
            pairs.append(pair)
    return oracle._dedupe(pairs, 1e-6)


def printed(pairs):
    """The CLI's lambda column, with -0.000000 counted equal to 0.000000."""
    return [f"{p.value:.6f}".replace("-0.000000", "0.000000") for p in pairs]


def batched_solve(t, X0):
    """The batched engine on given unit starts, with the same initial guesses."""
    A, B = oracle._operators(t)
    L0 = np.array([reference_start(t, x0) for x0 in X0])
    return oracle._newton(A, B, t.order, X0.copy(), L0)


class TestExact2D:
    def test_demo_spectrum(self, t42):
        vals = sorted(p.value for p in h_eigen_exact_2d(t42))
        assert vals == pytest.approx([0.4725, 12.7389], abs=1e-3)
        for p in h_eigen_exact_2d(t42):
            assert residual_ok(t42, p)
            assert np.max(np.abs(p.vector)) == pytest.approx(1.0)

    def test_unit_tensor_degenerate(self):
        vals = [p.value for p in h_eigen_exact_2d(unit_tensor(4, 2))]
        assert vals == pytest.approx([1.0])

    def test_diagonal_tensor(self):
        t = build_tensor(4, 2, {(1, 1, 1, 1): 2.0, (2, 2, 2, 2): 5.0})
        vals = sorted(p.value for p in h_eigen_exact_2d(t))
        assert vals == pytest.approx([2.0, 5.0])

    def test_second_axis_branch(self):
        # row 1 has no response to e2, so (0, 1) is an eigenvector
        t = build_tensor(3, 2, {(1, 1, 1): 3.0, (2, 2, 2): 4.0, (2, 1, 1): 1.0})
        vals = sorted(p.value for p in h_eigen_exact_2d(t))
        assert 4.0 in [pytest.approx(v) for v in vals]

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            h_eigen_exact_2d(unit_tensor(3, 3))

    @pytest.mark.parametrize("k", [300, -300])
    def test_power_of_two_scaling_is_exact(self, t42, k):
        # every eigenvalue of the base is far from 0 and far from the others, so the
        # absolute residual and dedupe tolerances decide nothing at either scale
        base = DenseTensor(np.ldexp(t42.entries, 600))
        want = h_eigen_exact_2d(base)
        got = h_eigen_exact_2d(DenseTensor(np.ldexp(base.entries, k)))
        assert len(want) == 2
        assert [p.value for p in got] == [np.ldexp(p.value, k) for p in want]
        for p, q in zip(got, want):
            assert np.array_equal(p.vector, q.vector)

    def test_subnormal_entries_are_not_scaled_up(self):
        # 2^-e for the largest |a| below 2^-1024 is beyond the float range; such entries are used as given
        t = build_tensor(2, 2, {(1, 1): 1e-309, (2, 2): 1e-309})
        pairs = h_eigen_exact_2d(t)
        assert [p.value for p in pairs] == [1e-309]
        assert pairs[0].vector.tolist() == [1.0, 0.0]

    def test_eigenvalue_beyond_the_float_range_raises(self):
        # the eigenvalues are 0 and 2e308
        with pytest.raises(NonFiniteValue):
            h_eigen_exact_2d(DenseTensor(np.full((2, 2), 1e308)))

    def test_tiny_tensor_keeps_no_non_eigenpair(self, t42):
        # every pair returned at 1e-300 must be an eigenpair relative to the tensor's own scale
        t = DenseTensor(t42.entries * 1e-300)
        for p in h_eigen_exact_2d(t):
            assert within_relative_tolerance(t, p)

    @pytest.mark.parametrize("factor", [2.0 ** -30, 1e-20, 1e-300])
    def test_scaled_demo_keeps_both_eigenvalues(self, t42, factor):
        # the pencil test, the (0, 1) test and the dedupe are taken in the unit of max|a|
        pairs = h_eigen_exact_2d(DenseTensor(t42.entries * factor))
        assert [round(p.value / factor, 6) for p in pairs] == [0.472481, 12.738918]

    def test_nan_residual_is_not_kept(self, t42):
        assert oracle._finish_pair(t42, float("nan"), np.array([1.0, 0.5]), 1.0) is None

    def test_order_22_from_four_entries(self):
        # p(s) = 0.25 + u - 0.5 u^2 with u = s^21, and lambda = 2 + 0.5 u = 2.5 -+ sqrt(1.5) / 2
        t = build_tensor(22, 2, ENTRIES_ORDER_22)
        pairs = h_eigen_exact_2d(t)
        assert [round(p.value, 6) for p in pairs] == [1.887628, 3.112372]
        for p in pairs:
            assert within_relative_tolerance(t, p)

    def test_matrix_case_matches_dense_solver(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            M = rng.uniform(-2, 2, (2, 2))
            t = DenseTensor(M)
            ours = sorted(p.value for p in h_eigen_exact_2d(t))
            real = sorted(v.real for v in np.linalg.eigvals(M) if abs(v.imag) < 1e-12)
            assert len(ours) == len(real)
            for a, b in zip(ours, real):
                assert a == pytest.approx(b, abs=1e-8)


class TestNewton:
    def test_agrees_with_exact_on_demo(self, t42):
        exact = sorted(p.value for p in h_eigen_exact_2d(t42))
        found = sorted(p.value for p in h_eigen_newton(t42, starts=300, seed=1))
        for v in exact:
            assert min(abs(v - w) for w in found) < 1e-6

    def test_unit_tensor(self):
        pairs = h_eigen_newton(unit_tensor(3, 3), starts=100, seed=2)
        assert pairs
        for p in pairs:
            assert p.value == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_tensor_subset(self):
        t = build_tensor(4, 3, {(1, 1, 1, 1): 2.0, (2, 2, 2, 2): 5.0, (3, 3, 3, 3): 3.0})
        found = {round(p.value, 6) for p in h_eigen_newton(t, starts=200, seed=3)}
        assert found <= {2.0, 3.0, 5.0}
        assert found

    def test_residual_invariant(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            t = random_sparse_tensor(rng, order=3, dim=3)
            for p in h_eigen_newton(t, starts=60, seed=4):
                assert residual_ok(t, p)

    def test_small_tensor_keeps_no_non_eigenpair(self):
        # at 2^-30 an absolute residual below 1e-8 says nothing; the tolerance scales with the entries
        T = build_tensor(3, 3, {
            (1, 1, 1): 1.0, (2, 2, 2): 2.0, (3, 3, 3): 3.0, (1, 2, 2): 0.3, (2, 3, 1): -0.4, (3, 1, 2): 0.2,
        })
        t = DenseTensor(np.ldexp(T.entries, -30))
        for p in h_eigen_newton(t, starts=200, seed=1):
            assert within_relative_tolerance(t, p)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            t = random_sparse_tensor(rng, order=3, dim=2)
            c = float(rng.uniform(0.5, 3.0))
            a = sorted(p.value for p in h_eigen_exact_2d(t))
            b = sorted(p.value for p in h_eigen_exact_2d(DenseTensor(c * t.entries)))
            assert len(a) == len(b)
            for va, vb in zip(a, b):
                assert vb == pytest.approx(c * va, rel=1e-8, abs=1e-10)

    def test_deterministic(self, t42):
        a = [(p.value, tuple(p.vector)) for p in h_eigen_newton(t42, starts=50, seed=7)]
        b = [(p.value, tuple(p.vector)) for p in h_eigen_newton(t42, starts=50, seed=7)]
        assert a == b


class TestBatchedNewton:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_serial_reference(self, m, n):
        rng = np.random.default_rng([m, n])
        t = DenseTensor(rng.uniform(-1.0, 1.0, (n,) * m))
        for seed in (1, 2):
            assert printed(h_eigen_newton(t, starts=30, seed=seed)) == printed(reference_newton(t, 30, seed))

    def test_each_start_matches_its_serial_solve(self):
        rng = np.random.default_rng(41)
        for m, n in ((2, 4), (3, 3), (4, 4), (3, 5)):
            t = DenseTensor(rng.uniform(-1.0, 1.0, (n,) * m))
            X0 = rng.standard_normal((25, n))
            X0 /= np.linalg.norm(X0, axis=1)[:, None]
            X, L, ok = batched_solve(t, X0)
            for k, x0 in enumerate(X0):
                x, lam, conv = reference_solve(t, x0, reference_start(t, x0))
                assert ok[k] == conv, (m, n, k)
                if conv:
                    assert L[k] == pytest.approx(lam, abs=1e-8)

    def test_singular_jacobian_fails_only_its_start(self):
        # a zero component on a diagonal tensor zeroes a whole row of J
        t = build_tensor(3, 3, {(1, 1, 1): 2.0, (2, 2, 2): 5.0, (3, 3, 3): 3.0})
        X0 = np.array([[1.0, 1.0, 0.0], [1.0, 0.2, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        X0 /= np.linalg.norm(X0, axis=1)[:, None]
        assert not reference_solve(t, X0[0], reference_start(t, X0[0]))[2]
        X, L, ok = batched_solve(t, X0)
        assert ok.tolist() == [False, True, True, True]
        assert sorted(np.round(L[1:], 8)) == [2.0, 3.0, 5.0]

    def test_singular_start_leaves_the_other_steps_bitwise(self):
        # integer entries and dyadic starts keep every entry of J and F exact, so the J
        # built here is the engine's bit for bit; x_3 = 0 zeroes row 3 of the second J
        t = build_tensor(3, 3, {
            (1, 1, 1): 2.0, (1, 2, 3): 1.0, (1, 3, 3): -3.0, (2, 2, 2): 5.0, (2, 1, 3): 2.0, (3, 3, 3): 3.0,
        })
        X = np.array([[1.0, 0.5, 0.25], [0.5, -1.0, 0.0], [0.25, 0.75, -1.0], [-1.0, 0.125, 0.5]])
        L = np.array([1.5, -2.0, 0.25, 4.0])
        A, B = oracle._operators(t)
        F = oracle._system(A, 3, X, L)
        step, ok = oracle._newton_steps(A, B, 3, X, L, F)
        assert ok.tolist() == [True, False, True, True]
        for k in (0, 2, 3):
            J = np.zeros((4, 4))
            J[:3, :3] = contract_jacobian(t, X[k]) - 2.0 * L[k] * np.diag(X[k])
            J[:3, 3] = -(X[k] ** 2)
            J[3, :3] = 2.0 * X[k]
            assert np.array_equal(step[k], np.linalg.solve(J, -F[k]))

    def test_polish_lowers_or_keeps_each_residual(self, t44):
        # converged starts, and raw starts of which some reject their first full step
        rng = np.random.default_rng(43)
        X0 = rng.standard_normal((40, 4))
        X0 /= np.linalg.norm(X0, axis=1)[:, None]
        X, L, ok = batched_solve(t44, X0)
        X = np.vstack([X[ok], X0])
        L = np.concatenate([L[ok], [reference_start(t44, x0) for x0 in X0]])
        A, B = oracle._operators(t44)
        F = oracle._system(A, 4, X, L)
        before = np.max(np.abs(F), axis=1)
        step, _ = oracle._newton_steps(A, B, 4, X, L, F)
        rejects = np.max(np.abs(oracle._system(A, 4, X + step[:, :4], L + step[:, 4])), axis=1) >= before
        assert 0 < rejects.sum() < len(X)
        Xp, Lp, _ = oracle._newton(A, B, 4, X.copy(), L.copy(), halvings=(), tol=0.0, steps=oracle._POLISH_STEPS)
        assert np.all(np.max(np.abs(oracle._system(A, 4, Xp, Lp)), axis=1) <= before)
        assert np.array_equal(Xp[rejects], X[rejects]) and np.array_equal(Lp[rejects], L[rejects])

    def test_no_start_and_one_start(self, t44):
        assert h_eigen_newton(t44, starts=0, seed=1) == []
        assert h_eigen_newton(t44, starts=-5, seed=1) == []
        assert printed(h_eigen_newton(t44, starts=1, seed=3)) == printed(reference_newton(t44, 1, 3))

    def test_matrix_values_are_eigenvalues(self):
        rng = np.random.default_rng(42)
        M = rng.uniform(-1.0, 1.0, (4, 4))
        M = M + M.T
        found = [p.value for p in h_eigen_newton(DenseTensor(M), starts=40, seed=1)]
        assert found
        eig = np.linalg.eigvalsh(M)
        for v in found:
            assert np.min(np.abs(eig - v)) <= 1e-8

    def test_chunking_keeps_the_start_stream(self, t44, monkeypatch):
        whole = printed(h_eigen_newton(t44, starts=120, seed=5))
        monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", 29 * 4 ** 3 * 7)  # seven starts a chunk
        assert printed(h_eigen_newton(t44, starts=120, seed=5)) == whole

    def test_polishing_merges_near_duplicates(self):
        # e3 is an eigenvector whose Newton system is singular at the solution,
        # so the damped search stops 3e-6 short of a_333 from either side
        t = build_tensor(3, 3, {
            (1, 1, 1): 3.034594266490501, (1, 1, 2): -0.6242195784309241, (1, 2, 2): -0.9943459356267599,
            (2, 1, 1): -0.0637068181121987, (2, 1, 3): -0.1662079187337946, (2, 2, 2): 5.5195683301678,
            (2, 3, 1): -0.7862974519525201, (3, 1, 2): -0.48245782115569913, (3, 1, 3): -0.09276775629344702,
            (3, 2, 2): 0.0829323234375885, (3, 2, 3): -0.48409008247801943, (3, 3, 1): 0.8550334017446526,
            (3, 3, 3): 5.305297878993763,
        })
        assert printed(reference_newton(t, 20, 1)) == ["2.804889", "3.075190", "5.305295", "5.305301"]
        assert printed(h_eigen_newton(t, starts=20, seed=1)) == ["2.804889", "3.075190", "5.305298"]


class TestReference:
    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            t = random_sparse_tensor(rng, order=3, dim=3)
            x = rng.standard_normal(3)
            J = contract_jacobian(t, x)
            h = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (contract(t, x + e) - contract(t, x - e)) / (2 * h)
                assert np.max(np.abs(J[:, j] - fd)) < 1e-5


class TestNqz:
    """``dominance._cw_bracket``: the bracket that decides is_m_tensor's NQZ route."""

    def test_unit_tensor(self):
        B = unit_tensor(4, 2).entries
        proved, lo, hi, _ = _cw_bracket(B, 1.5)
        assert proved and lo == hi == 1.0
        proved, lo, _, _ = _cw_bracket(B, 1.0)
        assert not proved and lo == 1.0

    def test_matrix_case_matches_dense_solver(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            M = rng.uniform(0.05, 1.0, (4, 4))
            true = max(abs(v) for v in np.linalg.eigvals(M))
            assert _cw_bracket(M, true * (1 + 1e-6))[0]
            proved, lo, _, _ = _cw_bracket(M, true * (1 - 1e-6))
            assert not proved and lo >= true * (1 - 1e-6)

    def test_brackets_the_exact_2d_eigenvalue(self):
        rng = np.random.default_rng(35)
        checked = 0
        for _ in range(60):
            B = np.abs(random_sparse_tensor(rng, order=int(rng.integers(2, 6)), dim=2).entries)
            values = [p.value for p in h_eigen_exact_2d(DenseTensor(B))]
            if not values:
                continue
            rho = max(values)
            for s in (0.5 * rho, rho, 2.0 * rho):
                _, lo, hi, x = _cw_bracket(B, s)
                assert np.all(x > 0)
                assert lo <= rho + 1e-9 * rho and rho <= hi + 1e-9 * rho
            checked += 1
        assert checked >= 50

    def test_demo_shift(self, t42):
        B = 7.0 * unit_tensor(4, 2).entries - t42.entries
        assert _cw_bracket(B, 7.0)[0]

    def test_zero_tensor(self):
        proved, lo, hi, _ = _cw_bracket(zero_tensor(3, 2).entries, 1.0)
        assert proved and lo == hi == 0.0
