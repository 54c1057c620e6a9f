"""Tensor construction, row statistics, generated matrices, contractions."""

import numpy as np
import pytest

from conftest import (
    ENTRIES_42,
    GEN_44,
    brute_representation,
    brute_row_sum,
    brute_s_stat,
    random_sparse_tensor,
)
from tgmat.errors import (
    ComplexDiagonal,
    DimensionMismatch,
    DuplicateEntry,
    IndexOutOfRange,
    NonFiniteValue,
    NonPositiveScale,
    TgmatError,
)
from tgmat.tensor import (
    DenseTensor,
    build_tensor,
    classify_symmetry,
    contract,
    contract_jacobian,
    diagonal,
    generated_matrix,
    poly_value,
    poly_values,
    representation_matrix,
    row_sums,
    s_matrix,
    scale_tensor,
    tensor_from_json,
    tensor_to_json,
    unit_tensor,
    zero_tensor,
)


class TestBuild:
    def test_demo_tensor(self, t42):
        assert t42.order == 4 and t42.dim == 2
        assert t42.entries[0, 0, 0, 0] == 7
        assert t42.entries[1, 1, 1, 0] == -1

    def test_empty_entries_is_zero_matrix(self):
        t = build_tensor(2, 3, {})
        assert np.array_equal(t.entries, np.zeros((3, 3)))

    def test_out_of_range_index(self):
        with pytest.raises(IndexOutOfRange):
            build_tensor(3, 2, {(1, 1, 3): 1.0})

    def test_wrong_arity(self):
        with pytest.raises(IndexOutOfRange):
            build_tensor(3, 2, {(1, 1): 1.0})

    def test_duplicate(self):
        with pytest.raises(DuplicateEntry):
            build_tensor(2, 2, [((1, 1), 1.0), ((1, 1), 1.0)])

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            build_tensor(2, 2, {(1, 1): float("nan")})

    def test_dense_size_limit(self):
        for make in (lambda: build_tensor(30, 10, {}), lambda: unit_tensor(30, 10), lambda: zero_tensor(30, 10)):
            with pytest.raises(TgmatError, match="limit"):
                make()


class TestStats:
    def test_s_values_demo(self, t42):
        G = generated_matrix(t42)
        assert np.array_equal(G.S, np.array([[4.0, 3.0], [3.0, 2.0]]))
        assert np.array_equal(G.s_diag, np.array([4.0, 2.0]))

    def test_unit_tensor_s_is_zero(self):
        t = unit_tensor(4, 3)
        assert np.array_equal(s_matrix(t), np.zeros((3, 3)))

    def test_matrix_case_s_is_absolute_offdiag(self):
        t = build_tensor(2, 3, {(1, 2): -5.0, (2, 3): 2.0, (1, 1): -7.0})
        S = s_matrix(t)
        assert S[0, 1] == 5.0 and S[1, 2] == 2.0
        assert np.all(np.diag(S) == 0.0)

    def test_s_matrix_against_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            t = random_sparse_tensor(rng)
            S = s_matrix(t)
            for i in range(t.dim):
                for j in range(t.dim):
                    assert S[i, j] == pytest.approx(brute_s_stat(t, i, j), abs=1e-12)

    def test_row_sum_demo(self, t42):
        assert np.array_equal(generated_matrix(t42).r, np.array([7.0, 5.0]))

    def test_row_sum_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            t = random_sparse_tensor(rng)
            S = s_matrix(t)
            r = row_sums(t)
            for i in range(t.dim):
                assert abs(r[i] - brute_row_sum(t, i)) <= 1e-12 * max(1.0, r[i])
                assert abs(r[i] - S[i].sum()) <= 1e-12 * max(1.0, r[i])

    def test_row_stats_record(self, t42):
        G = generated_matrix(t42)
        assert G.diag_abs[0] == 7.0 and G.P[0] == 3.0 and G.r[0] == 7.0
        assert np.array_equal(G.diagonal, np.array([7.0, 6.0]))
        assert np.allclose(G.r, G.s_diag + G.P, rtol=1e-12, atol=0.0)


def reference_diagonal(t):
    return np.array([t.entries[(i,) * t.order] for i in range(t.dim)])


def reference_s_matrix(t):
    m, n = t.order, t.dim
    absA = np.abs(t.entries)
    S = np.zeros((n, n))
    trailing = m - 1
    for i in range(n):
        row = absA[i].copy()
        row[(i,) * trailing] = 0.0
        if trailing == 1:
            S[i] = row
            continue
        acc = np.zeros(n)
        for axis in range(trailing):
            other = tuple(a for a in range(trailing) if a != axis)
            acc += row.sum(axis=other)
        S[i] = acc / trailing
    return S


def reference_row_sums(t):
    m, n = t.order, t.dim
    absA = np.abs(t.entries)
    return np.array([absA[i].sum() - absA[(i,) * m] for i in range(n)])


def reference_tensor_edges(t):
    nonzero, trailing = t.entries != 0, range(1, t.order)
    adj = np.any([nonzero.any(axis=tuple(a for a in trailing if a != k)) for k in trailing], axis=0)
    np.fill_diagonal(adj, False)
    return adj


class TestRecordMatchesReference:
    """The one row pass gives the bits of the separate per-row reductions it replaced."""

    @staticmethod
    def draws():
        rng = np.random.default_rng(91)
        for k in range(240):
            m = 2 + k % 4
            t = random_sparse_tensor(rng, order=m, dim=int(rng.integers(1, 6 if m < 5 else 5)))
            arr = t.entries.copy()
            if k % 3 == 0:
                arr.flat[int(rng.integers(arr.size))] = 5e-324
            yield DenseTensor(arr * (1.0, 2.0 ** -1060, 1e300, 1e-300, 2.0 ** -30)[k % 5])

    @staticmethod
    def assert_bits(got, want):
        assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_arrays_bit_equal(self):
        for t in self.draws():
            G = generated_matrix(t)
            self.assert_bits(G.diagonal, reference_diagonal(t))
            self.assert_bits(G.S, reference_s_matrix(t))
            self.assert_bits(G.r, reference_row_sums(t))
            self.assert_bits(G.edges, reference_tensor_edges(t))
            self.assert_bits(diagonal(t), G.diagonal)
            assert s_matrix(t) is G.S and row_sums(t) is G.r

    def test_memory_layout_does_not_matter(self):
        for t in list(self.draws())[:40]:
            G, F = generated_matrix(t), generated_matrix(DenseTensor(np.asfortranarray(t.entries)))
            for name in ("diagonal", "S", "r", "edges"):
                self.assert_bits(getattr(F, name), getattr(G, name))

    def test_subnormal_entry_kept_in_edges(self):
        # 5e-324 / 3 underflows to 0 in S but the edge 1 -> 2 stays
        t = build_tensor(4, 2, {(1, 1, 1, 1): 1.0, (1, 1, 1, 2): 5e-324})
        G = generated_matrix(t)
        assert G.S[0, 1] == 0.0 and G.edges.tolist() == [[False, True], [False, False]]
        self.assert_bits(G.edges, reference_tensor_edges(t))

    def test_edges_read_only(self, t42):
        assert not generated_matrix(t42).edges.flags.writeable


class TestGeneratedMatrix:
    def test_demo_42(self, t42):
        G = generated_matrix(t42)
        assert np.array_equal(G.data, np.array([[3.0, 3.0], [3.0, 4.0]]))
        assert np.array_equal(G.Q, np.array([3.0, 3.0]))

    def test_demo_44(self, t44):
        G = generated_matrix(t44)
        assert np.max(np.abs(G.data - GEN_44)) <= 1e-12
        assert np.max(np.abs(G.Q - np.array([16 / 3, 17 / 3, 19 / 3, 5]))) <= 1e-12

    def test_unit_tensor_gives_identity(self):
        G = generated_matrix(unit_tensor(4, 3))
        assert np.array_equal(G.data, np.eye(3))

    def test_matrix_case_matches_absolute_matrix(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            t = random_sparse_tensor(rng, order=2)
            G = generated_matrix(t)
            assert np.array_equal(G.data, np.abs(t.entries))

    def test_record_is_built_once_and_kept(self, t44):
        assert generated_matrix(t44) is generated_matrix(t44)

    @pytest.mark.parametrize("field", ["data", "diagonal", "diag_abs", "S", "s_diag", "P", "Q", "r"])
    def test_record_arrays_are_read_only(self, t42, field):
        arr = getattr(generated_matrix(t42), field)
        with pytest.raises(ValueError):
            arr[0] = 1.0


class TestRepresentationMatrix:
    def test_demo_entry(self, t42):
        R = representation_matrix(t42)
        assert R[0, 1] == 7.0  # three entries of size 2 plus one of size 1
        assert R[0, 1] == brute_representation(t42, 0, 1)

    def test_unit_tensor(self):
        R = representation_matrix(unit_tensor(3, 4))
        assert np.array_equal(R, np.eye(4))

    def test_against_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            t = random_sparse_tensor(rng)
            R = representation_matrix(t)
            for i in range(t.dim):
                for j in range(t.dim):
                    assert R[i, j] == pytest.approx(brute_representation(t, i, j), abs=1e-12)

    def test_offdiagonal_zero_pattern_matches_s(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            t = random_sparse_tensor(rng)
            R = representation_matrix(t)
            S = s_matrix(t)
            off = ~np.eye(t.dim, dtype=bool)
            assert np.array_equal(R[off] == 0.0, S[off] == 0.0)


class TestSymmetry:
    def test_unit_tensor_strongly_symmetric(self):
        assert classify_symmetry(unit_tensor(4, 3)) == "strongly_symmetric"

    def test_symmetric_but_not_strong(self):
        t = build_tensor(3, 2, {
            (1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1,
            (1, 2, 2): 2, (2, 1, 2): 2, (2, 2, 1): 2,
        })
        assert classify_symmetry(t) == "symmetric"

    def test_demo_44_not_symmetric(self, t44):
        assert classify_symmetry(t44) == "none"

    def test_asymmetry_does_not_vanish_when_scaled_down(self):
        t = random_sparse_tensor(np.random.default_rng(0), order=3, dim=3)
        assert classify_symmetry(t) == "none"
        assert classify_symmetry(DenseTensor(1e-13 * t.entries)) == "none"

    def test_roundoff_does_not_break_symmetry_when_scaled_up(self):
        a = np.array([[0.1, 0.2], [0.2 + 1e-15, 0.3]])
        assert classify_symmetry(DenseTensor(a)) == "strongly_symmetric"
        assert classify_symmetry(DenseTensor(1e5 * a)) == "strongly_symmetric"

    def test_random_symmetrised(self):
        rng = np.random.default_rng(12)
        import itertools

        for _ in range(10):
            t = random_sparse_tensor(rng, order=3, dim=3)
            acc = np.zeros_like(t.entries)
            for perm in itertools.permutations(range(3)):
                acc += np.transpose(t.entries, perm)
            assert classify_symmetry(DenseTensor(acc)) in ("symmetric", "strongly_symmetric")


class TestContraction:
    def test_unit_tensor(self):
        for m in (2, 3, 4):
            t = unit_tensor(m, 2)
            out = contract(t, np.array([2.0, 3.0]))
            assert np.allclose(out, [2.0 ** (m - 1), 3.0 ** (m - 1)])

    def test_demo_e1(self, t42):
        assert np.array_equal(contract(t42, np.array([1.0, 0.0])), np.array([7.0, -2.0]))

    def test_zero_vector(self, t42):
        assert np.array_equal(contract(t42, np.zeros(2)), np.zeros(2))

    def test_homogeneity(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            t = random_sparse_tensor(rng)
            x = rng.standard_normal(t.dim)
            a = rng.uniform(0.2, 2.5)
            lhs = contract(t, a * x)
            rhs = a ** (t.order - 1) * contract(t, x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

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

    def test_dimension_mismatch(self, t42):
        with pytest.raises(DimensionMismatch):
            contract(t42, np.ones(3))


class TestPolyValue:
    def test_unit_ones(self):
        for m, n in ((2, 3), (4, 2)):
            assert poly_value(unit_tensor(m, n), np.ones(n)) == pytest.approx(n)

    def test_demo(self, t42):
        assert poly_value(t42, np.array([1.0, 0.0])) == 7.0

    def test_equals_dot_with_contract(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            t = random_sparse_tensor(rng)
            x = rng.standard_normal(t.dim)
            v = poly_value(t, x)
            w = float(x @ contract(t, x))
            assert abs(v - w) <= 1e-12 * max(1.0, abs(w))

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(16)
        t = random_sparse_tensor(rng, order=3, dim=4)
        X = rng.standard_normal((50, 4))
        vals = poly_values(t, X)
        for k in range(50):
            assert vals[k] == pytest.approx(poly_value(t, X[k]), rel=1e-10, abs=1e-10)


class TestScaleTensor:
    def test_identity_scale(self, t42):
        assert np.array_equal(scale_tensor(t42, np.ones(2)).entries, t42.entries)

    def test_unit_diagonal(self):
        t = scale_tensor(unit_tensor(3, 2), np.array([2.0, 3.0]))
        assert t.entries[0, 0, 0] == 4.0 and t.entries[1, 1, 1] == 9.0

    def test_demo_entry(self, t42):
        b = scale_tensor(t42, np.array([1.0, 2.0]))
        assert b.entries[0, 1, 1, 1] == -8.0

    def test_rejects_nonpositive(self, t42):
        with pytest.raises(NonPositiveScale):
            scale_tensor(t42, np.array([1.0, 0.0]))


class TestJson:
    def test_round_trip(self, t42):
        t2 = tensor_from_json(tensor_to_json(t42))
        assert np.array_equal(t2.entries, t42.entries)

    def test_symmetrize(self):
        obj = {"order": 3, "dim": 2, "symmetrize": True,
               "entries": [{"idx": [1, 1, 2], "val": 5.0}]}
        t = tensor_from_json(obj)
        assert t.entries[0, 0, 1] == 5.0
        assert t.entries[0, 1, 0] == 5.0
        assert t.entries[1, 0, 0] == 5.0

    def test_symmetrize_conflict(self):
        obj = {"order": 2, "dim": 2, "symmetrize": True,
               "entries": [{"idx": [1, 2], "val": 1.0}, {"idx": [2, 1], "val": 2.0}]}
        with pytest.raises(DuplicateEntry):
            tensor_from_json(obj)

    def test_bad_idx_length_names_entry(self):
        obj = {"order": 3, "dim": 2, "entries": [{"idx": [1, 2], "val": 1.0}]}
        with pytest.raises(IndexOutOfRange, match="#0"):
            tensor_from_json(obj)

    def test_complex_offdiagonal_takes_modulus(self):
        obj = {"order": 2, "dim": 2, "entries": [
            {"idx": [1, 2], "val": [3.0, 4.0]}, {"idx": [1, 1], "val": 2.0}]}
        t = tensor_from_json(obj)
        assert t.entries[0, 1] == 5.0

    def test_complex_diagonal_rejected(self):
        obj = {"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "val": [1.0, 1.0]}]}
        with pytest.raises(ComplexDiagonal):
            tensor_from_json(obj)

    def test_boolean_values_rejected(self):
        for val in (True, [1.0, False]):
            obj = {"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "val": val}]}
            with pytest.raises(TgmatError, match="boolean"):
                tensor_from_json(obj)

    def test_missing_keys(self):
        with pytest.raises(TgmatError):
            tensor_from_json({"order": 2})


def test_zero_tensor_stats():
    t = zero_tensor(3, 3)
    assert np.all(row_sums(t) == 0.0)
    assert np.all(diagonal(t) == 0.0)
    assert np.array_equal(generated_matrix(t).data, np.zeros((3, 3)))
