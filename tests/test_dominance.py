"""Dominance checks, H-matrix decisions, and the certification cascade."""

import math
import warnings

import numpy as np
import pytest

from conftest import (
    boosted_diagonal_tensor,
    brute_representation,
    count_row_passes,
    near_boundary_z_tensor,
    random_sparse_tensor,
)
from tgmat import dominance as dom
from tgmat.compare import gt
from tgmat.dominance import (
    certify_h_tensor,
    check_dominance,
    comparison_matrix,
    is_h_matrix,
    is_irreducible,
    is_m_tensor,
    is_weakly_chained_dd,
    is_weakly_irreducible,
    is_z_tensor,
    tensor_dd,
)
from tgmat.errors import GammaOutOfRange
from tgmat.tensor import (
    DenseTensor,
    build_tensor,
    contract,
    diagonal,
    generated_matrix,
    unit_tensor,
    zero_tensor,
)


class TestComparisonMatrix:
    def test_demo(self):
        C = comparison_matrix(np.array([[3.0, 3.0], [3.0, 4.0]]))
        assert np.array_equal(C, np.array([[3.0, -3.0], [-3.0, 4.0]]))

    def test_identity(self):
        assert np.array_equal(comparison_matrix(np.eye(3)), np.eye(3))

    def test_signs(self):
        C = comparison_matrix(np.array([[-2.0, 1.0], [0.0, 5.0]]))
        assert np.array_equal(C, np.array([[2.0, -1.0], [0.0, 5.0]]))


class TestCheckDominance:
    def test_demo_42_matrix(self):
        M = np.array([[3.0, 3.0], [3.0, 4.0]])
        assert check_dominance(M, "SDD").kind is None
        assert check_dominance(M, "DoublySDD").kind == "DoublySDD"

    def test_demo_44_matrix(self, t44):
        G = generated_matrix(t44).data
        assert check_dominance(G, "SDD").kind is None  # row 1: 22/3 vs 25/3
        rep = check_dominance(G, "GammaSDD", gamma=0.5)
        assert rep.kind == "GammaSDD"

    def test_dd_fails_on_a_row_below_its_off_diagonal_mass(self):
        assert check_dominance(np.array([[1.0, 2.0], [0.0, 1.0]]), "DD").kind is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown dominance kind"):
            check_dominance(np.eye(2), "RowSDD")

    def test_identity_passes_everything(self):
        M = np.eye(4)
        for kind in ("SDD", "DD", "DoublySDD"):
            assert check_dominance(M, kind).kind == kind
        assert check_dominance(M, "GammaSDD", gamma=0.3).kind == "GammaSDD"
        assert check_dominance(M, "ProductGammaSDD", gamma=0.3).kind == "ProductGammaSDD"

    def test_gamma_search_reports_feasible_value(self, t44):
        G = generated_matrix(t44).data
        rep = check_dominance(G, "GammaSDD")
        assert rep.kind == "GammaSDD" and 0.0 <= rep.gamma <= 1.0
        rep2 = check_dominance(G, "ProductGammaSDD")
        assert rep2.kind == "ProductGammaSDD" and 0.0 <= rep2.gamma <= 1.0

    def test_gamma_out_of_range(self):
        with pytest.raises(GammaOutOfRange):
            check_dominance(np.eye(2), "GammaSDD", gamma=1.5)

    def test_infeasible_search(self):
        M = np.array([[1.0, 5.0], [5.0, 1.0]])
        assert check_dominance(M, "GammaSDD").kind is None
        assert check_dominance(M, "ProductGammaSDD").kind is None

    def test_strict_rows_reported(self):
        M = np.array([[2.0, 2.0], [1.0, 3.0]])
        rep = check_dominance(M, "DD")
        assert rep.kind == "DD" and rep.strict_rows == (2,)


class TestIsHMatrix:
    def test_demo(self):
        res = is_h_matrix(np.array([[3.0, 3.0], [3.0, 4.0]]))
        assert res.is_h
        # scaling solves the comparison system, proportional to (7/3, 2)
        assert res.scaling[0] / res.scaling[1] == pytest.approx(7.0 / 6.0, rel=1e-9)

    def test_boundary_fails(self):
        res = is_h_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert not res.is_h

    def test_identity(self):
        res = is_h_matrix(np.eye(3))
        assert res.is_h and np.allclose(res.scaling, np.ones(3))

    def test_triangular_has_zero_jacobi_radius(self):
        res = is_h_matrix(np.array([[2.0, 1.0, 0.5], [0.0, 3.0, 1.0], [0.0, 0.0, 1.0]]))
        assert res.is_h and res.note == ""

    @pytest.mark.parametrize("delta,is_h", [(1e-10, True), (1e-13, False)])
    def test_near_singular_band(self, delta, is_h):
        # [[1, 1 - delta], [1, 1]] is an H-matrix for every delta > 0; at 1e-13 the
        # strict re-check cannot tell its scaled rows from equality
        M = np.array([[1.0, 1.0 - delta], [1.0, 1.0]])
        res = is_h_matrix(M)
        assert res.is_h == is_h
        if is_h:
            x = res.scaling
            assert np.all(x > 0.0) and gt(np.abs(np.diag(M)) * x, np.array([(1.0 - delta) * x[1], x[0]])).all()

    def test_zero_diagonal_rejected(self):
        res = is_h_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        assert not res.is_h and "diagonal" in res.note

    def test_scaled_matrix_strictly_dominant(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = rng.integers(2, 6)
            M = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(M, rng.uniform(1.5, 3.0, n) * n)
            res = is_h_matrix(M)
            assert res.is_h
            scaled = np.abs(M) * res.scaling[None, :]
            d = np.diag(scaled).copy()
            np.fill_diagonal(scaled, 0.0)
            assert np.all(d > scaled.sum(axis=1))


class TestIrreducibility:
    def test_full_offdiagonal(self):
        assert is_irreducible(np.array([[3.0, 3.0], [3.0, 4.0]]))

    def test_block_diagonal(self):
        assert not is_irreducible(np.eye(2))

    def test_cycle(self):
        M = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        assert is_irreducible(M)

    def test_one_by_one(self):
        assert is_irreducible(np.array([[0.0]]))

    def test_weak_irreducibility_demo(self, t42):
        assert is_weakly_irreducible(t42)

    def test_unit_tensor_weakly_reducible(self):
        assert not is_weakly_irreducible(unit_tensor(3, 3))

    def test_equivalence_with_generated_matrix(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            t = random_sparse_tensor(rng)
            assert is_weakly_irreducible(t) == is_irreducible(generated_matrix(t).data)

    def test_edges_match_representation_matrix(self):
        rng = np.random.default_rng(27)
        for _ in range(60):
            t = random_sparse_tensor(rng, order=int(rng.integers(2, 6)))
            want = np.array([[i != j and brute_representation(t, i, j) != 0 for j in range(t.dim)]
                             for i in range(t.dim)])
            assert np.array_equal(generated_matrix(t).edges, want)

    def test_subnormal_entry_keeps_its_edge(self):
        # |a_112| / (m - 1) underflows to 0, so S has no edge 1 -> 2
        t = build_tensor(3, 2, {(1, 1, 1): 1.0, (1, 1, 2): 5e-324, (2, 2, 2): 1.0, (2, 1, 1): 1.0})
        assert generated_matrix(t).S[0, 1] == 0.0
        assert brute_representation(t, 0, 1) != 0.0
        assert generated_matrix(t).edges.tolist() == [[False, True], [True, False]]
        assert is_weakly_irreducible(t)


class TestTensorDominance:
    def test_demo_dd_with_one_strict_row(self, t42):
        rep = tensor_dd(t42)
        assert rep.kind == "DD" and rep.strict_rows == (2,)

    def test_unit_tensor_sdd(self):
        assert tensor_dd(unit_tensor(3, 4)).kind == "SDD"

    def test_zero_tensor_dd_empty_strict(self):
        rep = tensor_dd(zero_tensor(3, 3))
        assert rep.kind == "DD" and rep.strict_rows == ()

    def test_weakly_chained_demo(self, t42):
        assert is_weakly_chained_dd(t42)

    def test_weakly_chained_unit(self):
        assert is_weakly_chained_dd(unit_tensor(4, 2))

    def test_weakly_chained_zero_tensor(self):
        assert not is_weakly_chained_dd(zero_tensor(3, 3))

    def test_chain_must_reach_strict_rows(self):
        # row 1 strict; rows 2 and 3 only dominate with equality and point
        # at each other, so no walk reaches J = {1}
        stranded = build_tensor(3, 3, {
            (1, 1, 1): 1.0, (2, 2, 2): 1.0, (2, 3, 3): 1.0,
            (3, 3, 3): 1.0, (3, 2, 2): 1.0,
        })
        assert tensor_dd(stranded).kind == "DD"
        assert not is_weakly_chained_dd(stranded)
        # rerouting row 2 toward row 1 creates walks 2 -> 1 and 3 -> 2 -> 1
        chained = build_tensor(3, 3, {
            (1, 1, 1): 1.0, (2, 2, 2): 1.0, (2, 1, 1): 1.0,
            (3, 3, 3): 1.0, (3, 2, 2): 1.0,
        })
        assert is_weakly_chained_dd(chained)


class TestCertifyHTensor:
    def test_demo_42_via_doubly_sdd(self, t42):
        cert = certify_h_tensor(t42)
        assert cert.certified and cert.rule == "DoublySDD"
        assert cert.scaling is not None
        assert np.all(cert.residuals > 0)

    def test_demo_44_certified(self, t44):
        cert = certify_h_tensor(t44)
        assert cert.certified and cert.rule == "DoublySDD"

    def test_unit_tensor_sdd_with_unit_residuals(self):
        cert = certify_h_tensor(unit_tensor(4, 3))
        assert cert.certified and cert.rule == "SDD"
        assert np.allclose(cert.scaling, np.ones(3))
        assert np.allclose(cert.residuals, np.ones(3))

    def test_zero_tensor_inconclusive(self):
        cert = certify_h_tensor(zero_tensor(3, 3))
        assert not cert.certified

    def test_degenerate_diagonal_blocks_matrix_rules(self):
        # |a_111| = 1 < s_11 = 1.5, so only the weak-chain rule may fire
        t = build_tensor(3, 2, {(1, 1, 1): 1.0, (1, 1, 2): 3.0, (2, 2, 2): 5.0})
        cert = certify_h_tensor(t)
        assert not cert.certified
        assert "s_ii" in cert.note

    @pytest.mark.parametrize("rule", ["SDD", "GammaSDD"])
    def test_statistics_built_once(self, monkeypatch, rule):
        if rule == "SDD":
            t = boosted_diagonal_tensor(np.random.default_rng(26), order=4, dim=20)
        else:
            t = DenseTensor(np.array([[5.0, 0.0, 0.0], [2.0, 5.0, 0.0], [4.0, 4.0, 2.0]]))
        passes = count_row_passes(monkeypatch)
        solves = []
        is_h_matrix = dom.is_h_matrix
        monkeypatch.setattr(dom, "is_h_matrix", lambda M: solves.append(1) or is_h_matrix(M))
        cert = certify_h_tensor(t)
        assert cert.rule == rule and cert.scaling is not None
        assert len(passes) == 1 and len(solves) <= 1

    @pytest.mark.parametrize("source", ["list", "array"])
    def test_overflowing_recheck_drops_the_scaling(self, source):
        # at y = (1, 1e5), row 1's off-diagonal mass 1e300 * 1e5 * 1e5 is beyond the float range
        t = build_tensor(3, 2, {(1, 1, 1): 1.0, (1, 2, 2): 1e300, (2, 2, 2): 1.0})
        if source == "array":
            t = DenseTensor(t.entries)
        cert = dom._attach_certificate(t, "GeneralizedH", None, np.array([1.0, 1e10]))  # a RuntimeWarning fails
        assert cert.certified and cert.scaling is None and cert.residuals is None
        assert cert.note == " (scaling dropped: slack not strict)"

    def test_weak_chain_reads_the_record(self, monkeypatch):
        # rows 2 and 3 dominate with equality, so the cascade ends in the walk test
        t = build_tensor(3, 3, {(1, 1, 1): 1.0, (2, 2, 2): 1.0, (2, 3, 3): 1.0,
                                (3, 3, 3): 1.0, (3, 2, 2): 1.0})
        passes = count_row_passes(monkeypatch)
        cert = certify_h_tensor(t)
        assert not cert.certified and cert.note == "no sufficient condition fired"
        assert len(passes) == 1

    def test_irreducible_dd_reads_the_tensor_digraph(self):
        # s_12 = 5e-324 / 2 underflows to 0, so the generated matrix is reducible; the
        # digraph keeps the edge 1 -> 2, and row 2 is strict while row 1 ties
        t = build_tensor(3, 2, {(1, 1, 1): 5e-324, (1, 1, 2): 5e-324, (2, 2, 2): 1.0, (2, 1, 1): 0.5})
        G = generated_matrix(t)
        assert G.data[0, 1] == 0.0 and G.edges[0, 1]
        cert = certify_h_tensor(t)
        assert cert.certified and cert.rule == "IrreducibleDD"

    def test_degenerate_row_in_an_irreducible_chain_is_weakly_chained(self):
        # row 1 is the subnormal chain's degenerate row, and row 2 points back to it, so the
        # digraph is strongly connected; a degenerate row keeps the weak-chain label and note
        t = build_tensor(8, 2, {(1,) * 8: 5e-324, (1,) * 7 + (2,): 5e-324, (2,) * 8: 1.0, (2,) + (1,) * 7: 0.5})
        assert is_irreducible(generated_matrix(t).edges)
        cert = certify_h_tensor(t)
        assert (cert.rule, cert.note) == ("WeaklyChainedDD", "rows [1] have |a_ii...i| <= s_ii; matrix rules skipped")

    def test_sdd_reads_the_tensor_form(self):
        # d_1 = |a_111| - s_11 clears P_1 by 1.5e-6, above the 1e-12 margin at d_1 = 1e6 but
        # not at |a_111| = 2e6, so row 1 is not strict against r_1 and all-ones cannot certify
        t = build_tensor(3, 2, {(1, 1, 1): 2e6 + 1.5e-6, (1, 1, 2): 1e6, (1, 2, 1): 1e6, (2, 2, 2): 1.0})
        cert = certify_h_tensor(t)
        assert cert.rule == "DoublySDD" and cert.scaling is not None and cert.note == ""

    def test_certificate_scaling_verifies_definition(self):
        rng = np.random.default_rng(23)
        seen_rules = set()
        for _ in range(60):
            t = boosted_diagonal_tensor(rng)
            cert = certify_h_tensor(t)
            assert cert.certified
            seen_rules.add(cert.rule)
            if cert.scaling is None:
                continue
            y = cert.scaling
            m = t.order
            absT = DenseTensor(np.abs(t.entries))
            total = contract(absT, y)
            lhs = np.abs(diagonal(t)) * y ** (m - 1)
            assert np.all(lhs - (total - lhs) > 0)
        assert "SDD" in seen_rules

    def test_hierarchy_sdd_implies_doubly_implies_h(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            M = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(M, 0.0)
            radii = np.abs(M).sum(axis=1)
            d = radii + rng.uniform(0.05, 1.0, n)
            for i in range(n):
                M[i, i] = d[i]
            assert check_dominance(M, "SDD").kind == "SDD"
            assert check_dominance(M, "DoublySDD").kind == "DoublySDD"
            assert is_h_matrix(M).is_h

    def test_gamma_feasible_implies_h(self):
        rng = np.random.default_rng(25)
        hits = 0
        for _ in range(60):
            n = int(rng.integers(2, 5))
            M = rng.uniform(0, 1, (n, n))
            np.fill_diagonal(M, 0.0)
            P = M.sum(axis=1)
            Q = M.sum(axis=0)
            g = rng.uniform(0, 1)
            target = g * P + (1 - g) * Q
            for i in range(n):
                M[i, i] = target[i] + rng.uniform(0.05, 0.5)
            rep = check_dominance(M, "GammaSDD")
            if rep.kind:
                hits += 1
                assert is_h_matrix(M).is_h
        assert hits >= 50


def reference_gamma_search(d, P, Q, product):
    """The row-by-row gamma search, kept as the reference for the vectorised one."""
    lo, hi = 0.0, 1.0
    for di, pi, qi in zip(d, P, Q):
        if product:
            if di <= 0:
                return None
            if pi == 0.0 or qi == 0.0:
                continue
            di, pi, qi = math.log(di), math.log(pi), math.log(qi)
        denom, rhs = pi - qi, di - qi
        if denom == 0.0:
            if not (rhs > 0 if product else dom.gt(di, qi)):
                return None
        elif denom > 0:
            hi = min(hi, rhs / denom)
        else:
            lo = max(lo, rhs / denom)
    return None if lo >= hi else 0.5 * (lo + hi)


class TestGammaSearch:
    @pytest.mark.parametrize("kind", ["GammaSDD", "ProductGammaSDD"])
    def test_matches_the_row_by_row_search(self, kind):
        # small integers make rows with P_i = Q_i and zero sums common
        rng = np.random.default_rng(27)
        # P = Q, with d above them by less than the margin of compare.gt
        cases = [np.array([[1.0 + 1e-13, 1.0], [1.0, 2.0]])]
        cases += [rng.integers(0, 4, (n, n)) * rng.choice([1.0, 0.37], (n, n)) for n in rng.integers(1, 6, 400)]
        found = 0
        for M in cases:
            n = len(M)
            d = np.diag(M).copy()
            np.fill_diagonal(M, 0.0)
            P, Q = M.sum(axis=1), M.sum(axis=0)
            M[np.diag_indices(n)] = d
            want = reference_gamma_search(d, P, Q, kind == "ProductGammaSDD")
            rep = check_dominance(M, kind)
            assert rep.gamma == want
            found += want is not None
        assert found >= 40


class TestZAndMTensors:
    def test_unit_tensor_is_m(self):
        ok, method = is_m_tensor(unit_tensor(3, 3))
        assert ok and method == "WCDD"

    def test_demo_42(self, t42):
        assert is_z_tensor(t42)
        ok, method = is_m_tensor(t42)
        assert ok and method in ("WCDD", "NQZ")
        assert dom._cw_bracket(7.0 * unit_tensor(4, 2).entries - t42.entries, 7.0)[0]

    def test_positive_offdiagonal_not_z(self):
        t = build_tensor(3, 2, {(1, 2, 2): 1.0})
        assert not is_z_tensor(t)
        assert is_m_tensor(t) == (False, None)

    def test_nqz_route(self):
        # Z-tensor with a negative diagonal entry cannot use the WCDD route
        t = build_tensor(2, 2, {(1, 1): 5.0, (1, 2): -1.0, (2, 1): -1.0, (2, 2): 5.0})
        arr = t.entries.copy()
        ok, method = is_m_tensor(DenseTensor(arr))
        assert ok and method == "WCDD"
        # forcing the chain to fail: equality rows with no walk still pass NQZ
        t2 = build_tensor(2, 2, {(1, 1): 2.0, (2, 2): 2.0})
        arr2 = t2.entries.copy()
        ok2, method2 = is_m_tensor(DenseTensor(arr2))
        assert ok2  # diagonal positive tensor: rho(sI - A) = 0 < s

    def test_negative_eigenvalue_not_certified(self):
        A = np.array([[2.216, 0.0, -1.918], [0.0, 0.137, 0.0], [-0.644, 0.0, 0.537]])
        assert min(np.linalg.eigvals(A).real) < 0.0
        assert is_m_tensor(DenseTensor(A)) == (False, None)

    def test_reducible_certified_without_warning(self):
        # rho(B) = 1.116 < 1.2; rows 1 and 4 of B are zero, so the iterate hits its floor there
        B = np.zeros((4, 4))
        B[1, 0], B[2, 0], B[2, 2], B[2, 3] = 2.307, 1.359, 1.116, 2.455
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_m_tensor(DenseTensor(1.2 * np.eye(4) - B)) == (True, "NQZ")

    def test_tiny_diagonal_ends_without_warning(self):
        # B = sI - A is zero, but s = 1e-13 is inside the absolute margin of compare.gt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_m_tensor(DenseTensor(1e-13 * np.eye(2))) == (False, None)

    def test_zero_diagonal_z_tensor_not_certified(self):
        # s = max diagonal = 0 leaves no shift s I - A to test
        for A in (np.zeros((2, 2)), np.array([[0.0, -1.0], [-1.0, 0.0]])):
            t = DenseTensor(A)
            assert is_z_tensor(t) and not is_weakly_chained_dd(t)
            assert is_m_tensor(t) == (False, None)

    def test_negative_diagonal_refused_before_the_shift(self):
        # s - a_22 = 1e308 + 1e308 would overflow; a negative diagonal entry rules out an M-tensor first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_m_tensor(DenseTensor(np.diag([1e308, -1e308]))) == (False, None)
            assert is_m_tensor(DenseTensor(np.array([[2.0, -1.0], [0.0, -0.5]]))) == (False, None)

    def test_near_boundary_certificates_hold(self):
        rng = np.random.default_rng(2024)
        nqz = 0
        for _ in range(600):
            t = near_boundary_z_tensor(rng)
            ok, method = is_m_tensor(t)
            if method == "NQZ":
                nqz += 1
                s = float(np.max(diagonal(t)))
                B = s * unit_tensor(t.order, t.dim).entries - t.entries
                proved, _, _, x = dom._cw_bracket(B, s)
                assert proved and dom.gt(s * x ** (t.order - 1), contract(DenseTensor(B), x)).all()
            if ok and t.order == 2:
                assert np.all(np.linalg.eigvals(t.entries).real > 0.0)
        assert nqz >= 10
