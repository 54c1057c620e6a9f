"""Dominance checks, H-matrix decisions, and the certification cascade."""

import math

import numpy as np
import pytest

from conftest import boosted_diagonal_tensor, count_row_passes, random_sparse_tensor
from tgmat import dominance as dom
from tgmat import tensor as tz
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
from tgmat.oracle import nqz_spectral_radius
from tgmat.tensor import (
    DenseTensor,
    build_tensor,
    contract,
    diagonal,
    generated_matrix,
    representation_matrix,
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
        assert res.jacobi_radius == pytest.approx(np.sqrt(3.0 / 4.0), abs=1e-9)
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
        assert res.jacobi_radius == pytest.approx(0.0, abs=1e-12)

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
            want = representation_matrix(t) != 0
            np.fill_diagonal(want, False)
            assert np.array_equal(generated_matrix(t).edges, want)

    def test_subnormal_entry_keeps_its_edge(self):
        # |a_112| / (m - 1) underflows to 0, so S has no edge 1 -> 2
        t = build_tensor(3, 2, {(1, 1, 1): 1.0, (1, 1, 2): 5e-324, (2, 2, 2): 1.0, (2, 1, 1): 1.0})
        assert generated_matrix(t).S[0, 1] == 0.0
        assert representation_matrix(t)[0, 1] != 0.0
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

    def test_weak_chain_reads_the_record(self, monkeypatch):
        # rows 2 and 3 dominate with equality, so the cascade ends in the walk test
        t = build_tensor(3, 3, {(1, 1, 1): 1.0, (2, 2, 2): 1.0, (2, 3, 3): 1.0,
                                (3, 3, 3): 1.0, (3, 2, 2): 1.0})
        passes = count_row_passes(monkeypatch)
        monkeypatch.setattr(tz, "representation_matrix", lambda t: pytest.fail("edges re-read from the tensor"))
        cert = certify_h_tensor(t)
        assert not cert.certified and cert.note == "no sufficient condition fired"
        assert len(passes) == 1

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
        B = DenseTensor(7.0 * unit_tensor(4, 2).entries - t42.entries)
        assert nqz_spectral_radius(B) < 7.0

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
