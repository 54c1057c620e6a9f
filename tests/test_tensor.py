"""Tensor construction, row statistics, generated matrices, contractions."""

import itertools

import numpy as np
import pytest

import tgmat.tensor as tz
from conftest import (
    ENTRIES_42,
    ENTRIES_44,
    GEN_44,
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
    diagonal,
    generated_matrix,
    poly_value,
    poly_values,
    scale_tensor,
    tensor_from_json,
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

    @pytest.mark.parametrize("entries,error,match", [
        (np.ones(3), TgmatError, "order must be at least 2"),
        (np.ones((2, 3)), TgmatError, "cubical"),
        (np.ones((0, 0)), TgmatError, "dimension must be at least 1"),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), NonFiniteValue, "finite"),
    ], ids=["order-1", "not-cubical", "dim-0", "infinite"])
    def test_dense_tensor_rejects(self, entries, error, match):
        with pytest.raises(error, match=match):
            DenseTensor(entries)

    def test_order_and_dim_floors(self):
        for make in (build_tensor, unit_tensor, zero_tensor):
            for order in (1, 0, -1):
                with pytest.raises(TgmatError, match="order must be at least 2"):
                    make(order, 2, {}) if make is build_tensor else make(order, 2)
            with pytest.raises(TgmatError, match="dim must be at least 1"):
                make(2, 0, {}) if make is build_tensor else make(2, -1)
        with pytest.raises(TgmatError, match="order must be at least 2"):
            tensor_from_json({"order": -1, "dim": 2, "entries": []})

    def test_dense_size_limit(self):
        for make in (lambda: build_tensor(30, 10, {}), lambda: unit_tensor(30, 10), lambda: zero_tensor(30, 10)):
            with pytest.raises(TgmatError, match="limit"):
                make()


class TestEntryList:
    """A tensor built from entries keeps them as one list, sorted by position, and its record is summed from it."""

    def test_list_is_sorted_and_keeps_zeros(self):
        t = build_tensor(3, 2, [((2, 1, 1), 4.0), ((1, 2, 2), 0.0), ((1, 1, 2), -3.0), ((2, 2, 1), -0.0), ((1, 1, 1), 1.0)])
        cols, vals, counts = t._written
        assert cols.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0]] and counts is None
        assert vals.tolist() == [1.0, -3.0, 0.0, 4.0, 0.0] and np.signbit(vals).tolist() == [False, True, False, False, True]
        for part in (cols, vals):
            with pytest.raises(ValueError):
                part[0] = 0

    def test_symmetrized_list_holds_one_row_per_class_and_first_index(self):
        t = tensor_from_json({"order": 3, "dim": 3, "symmetrize": True, "entries": [
            {"idx": [3, 1, 2], "val": 2.0}, {"idx": [1, 1, 2], "val": -1.0}, {"idx": [2, 2, 2], "val": 0.0}]})
        cols, vals, counts = t._written
        # each row is i and then the rest of its class in ascending order, sorted by position, with
        # the number of the class's tuples that start with i
        assert (cols + 1).tolist() == [[1, 1, 2], [1, 2, 3], [2, 1, 1], [2, 1, 3], [2, 2, 2], [3, 1, 2]]
        assert vals.tolist() == [-1.0, 2.0, -1.0, 2.0, 0.0, 2.0] and counts.tolist() == [2, 2, 1, 2, 1, 2]
        for part in t._written:
            with pytest.raises(ValueError):
                part[0] = 0
        # a class's counts sum to its number of distinct permutations, each holding the class's value
        for key, size in (((0, 1, 2), 6), ((0, 0, 1), 3), ((1, 1, 1), 1)):
            in_class = (np.sort(cols, axis=1) == key).all(axis=1)
            assert counts[in_class].sum() == size
            perms = np.unique(np.array(list(itertools.permutations(key))), axis=0)
            assert len(perms) == size and np.all(t.entries[tuple(perms.T)] == vals[in_class][0])
        assert np.count_nonzero(t.entries) == 6 + 3

    def test_array_made_tensors_have_no_list(self, t42):
        assert all(t._written is None for t in (DenseTensor(t42.entries), scale_tensor(t42, np.ones(2))))
        unit, zero = unit_tensor(3, 2), zero_tensor(2, 2)
        assert unit._written[0].tolist() == [[0, 0, 0], [1, 1, 1]] and unit._written[1].tolist() == [1.0, 1.0]
        assert zero._written[0].shape == (0, 2) and zero._written[1].shape == (0,)
        assert np.array_equal(unit.entries, np.einsum("ij,jk->ijk", np.eye(2), np.eye(2))) and not zero.entries.any()

    def test_overflow_on_the_dense_walk_refused(self):
        t = DenseTensor(build_tensor(3, 2, {(1, 1, 2): 1e308, (1, 2, 2): 1e308}).entries)
        with pytest.raises(NonFiniteValue, match="float range"):
            generated_matrix(t)  # a RuntimeWarning fails the test

    @pytest.mark.parametrize("source", ["list", "array"])
    def test_off_mass_at_a_vector(self, t44, source):
        t = t44 if source == "list" else DenseTensor(t44.entries)
        y = np.array([1.0, 2.0, 0.5, 3.0])
        off = np.array([sum(abs(v) * y[j - 1] * y[k - 1] * y[l - 1] for (i, j, k, l), v in ENTRIES_44.items()
                            if i == row and (i, j, k, l) != (i,) * 4) for row in range(1, 5)])
        assert np.allclose(tz._off_mass(t, y), off, rtol=1e-14, atol=0.0)


class TestStats:
    def test_s_values_demo(self, t42):
        G = generated_matrix(t42)
        assert np.array_equal(G.S, np.array([[4.0, 3.0], [3.0, 2.0]]))
        assert np.array_equal(G.s_diag, np.array([4.0, 2.0]))

    def test_unit_tensor_s_is_zero(self):
        t = unit_tensor(4, 3)
        assert np.array_equal(generated_matrix(t).S, np.zeros((3, 3)))

    def test_matrix_case_s_is_absolute_offdiag(self):
        t = build_tensor(2, 3, {(1, 2): -5.0, (2, 3): 2.0, (1, 1): -7.0})
        S = generated_matrix(t).S
        assert S[0, 1] == 5.0 and S[1, 2] == 2.0
        assert np.all(np.diag(S) == 0.0)

    def test_s_matrix_against_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            t = random_sparse_tensor(rng)
            S = generated_matrix(t).S
            for i in range(t.dim):
                for j in range(t.dim):
                    assert S[i, j] == pytest.approx(brute_s_stat(t, i, j), abs=1e-12)

    def test_row_sum_demo(self, t42):
        assert np.array_equal(generated_matrix(t42).r, np.array([7.0, 5.0]))

    def test_row_sum_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            t = random_sparse_tensor(rng)
            G = generated_matrix(t)
            S, r = G.S, G.r
            for i in range(t.dim):
                assert abs(r[i] - brute_row_sum(t, i)) <= 1e-12 * max(1.0, r[i])
                assert abs(r[i] - S[i].sum()) <= 1e-12 * max(1.0, r[i])

    def test_row_sum_does_not_cancel(self):
        # r_1 = |a_112| + |a_122| = 2, which 1e16 + 2 - 1e16 rounds to 0
        t = build_tensor(3, 2, {(1, 1, 1): 1e16, (1, 1, 2): 1.0, (1, 2, 2): 1.0, (2, 2, 2): 5.0})
        G = generated_matrix(t)
        assert G.r[0] == 2.0 == G.s_diag[0] + G.P[0]

    @pytest.mark.parametrize("order,dim,entries", [
        (3, 2, {(1, 1, 1): 1.0, (1, 1, 2): 1e308, (1, 2, 2): 1e308, (2, 2, 2): 1.0}),
        (2, 3, {(2, 1): 1e308, (3, 1): 1e308}),
    ], ids=["row-sum", "column-sum"])
    def test_statistic_beyond_float_range_refused(self, order, dim, entries):
        t = build_tensor(order, dim, entries)
        with pytest.raises(NonFiniteValue, match="float range"):
            generated_matrix(t)  # a RuntimeWarning fails the test

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
    """r_i by its definition: the sum of |a| over the tuples of row i, the diagonal tuple set to 0."""
    m, n = t.order, t.dim
    rows = np.abs(t.entries)
    rows[(np.arange(n),) * m] = 0.0
    return np.array([rows[i].sum() for i in range(n)])


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

    @pytest.mark.parametrize("order,dim", [(2, 65), (2, 70), (3, 65)])
    def test_dimension_beyond_64(self, order, dim):
        # the diagonal is constant on its own classes {i}; every other class is all zero
        arr = np.zeros((dim,) * order)
        arr[(np.arange(dim),) * order] = np.arange(1.0, dim + 1)
        assert classify_symmetry(DenseTensor(arr)) == "strongly_symmetric"

    def test_high_index_classes_kept_apart(self):
        # class {1, 66} holds 2 and class {1, 2} holds 0; a 64-bit mask of the
        # 0-based indices puts index 65 on bit 1 and gives both classes one key
        arr = np.zeros((66, 66, 66))
        arr[0, 0, 0] = 1.0
        for tup in ((0, 0, 65), (0, 65, 0), (65, 0, 0), (0, 65, 65), (65, 0, 65), (65, 65, 0)):
            arr[tup] = 2.0
        assert classify_symmetry(DenseTensor(arr)) == "strongly_symmetric"
        arr[65, 65, 0] = 4.0
        assert classify_symmetry(DenseTensor(arr)) == "none"

    def test_entries_near_the_largest_float(self):
        # the transposed pair's difference passes the float range: not within the slack, and no warning
        assert classify_symmetry(DenseTensor(np.array([[0.5, 1e308], [-1e308, 1.0]]))) == "none"
        assert classify_symmetry(DenseTensor(np.array([[0.5, 1e308], [1e308, 1.0]]))) == "strongly_symmetric"

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

    def test_dimension_mismatch(self, t42):
        with pytest.raises(DimensionMismatch):
            contract(t42, np.ones(3))


class TestPolyValue:
    def test_batch_shape(self, t42):
        for X in (np.ones(2), np.ones((3, 3)), np.ones((1, 2, 2))):
            with pytest.raises(DimensionMismatch):
                poly_values(t42, X)

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


@pytest.mark.parametrize("k", range(13))
def test_bit_weights_count_the_one_bits(k):
    assert tz._bit_weights(k).tolist() == [bin(b).count("1") for b in range(2 ** k)]


def test_zero_tensor_stats():
    t = zero_tensor(3, 3)
    assert np.all(generated_matrix(t).r == 0.0)
    assert np.all(diagonal(t) == 0.0)
    assert np.array_equal(generated_matrix(t).data, np.zeros((3, 3)))
