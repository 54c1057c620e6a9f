"""Inclusion regions: membership predicates, real bounds, grid sampling."""

import math

import numpy as np
import pytest

from conftest import GEN_44, random_sparse_tensor
from tgmat.errors import BadGrid, BadSubset, EmptyRegion, GammaOutOfRange, WrongDimension
from tgmat.oracle import h_eigen_exact_2d
from tgmat.regions import KINDS, build_region, grid_sample, membership, real_bounds
from tgmat.tensor import diagonal, generated_matrix, row_sums, unit_tensor


class TestBuildRegion:
    def test_caches_match_generated_matrix(self, t44):
        stats = build_region(t44, "gershgorin").stats
        G = generated_matrix(t44)
        assert np.max(np.abs(stats.Q - G.Q)) <= 1e-12
        assert np.max(np.abs(stats.Q - np.array([16 / 3, 17 / 3, 19 / 3, 5]))) <= 1e-12
        assert np.max(np.abs(np.diag(stats.S) + stats.P - row_sums(t44))) <= 1e-12

    def test_demo_radii(self, t44):
        stats = build_region(t44, "gershgorin").stats
        radii = stats.s_diag + stats.P
        assert np.max(np.abs(radii - np.array([11.0, 7.0, 5.0, 4.0]))) <= 1e-12

    def test_full_subset_rejected(self, t44):
        with pytest.raises(BadSubset):
            build_region(t44, "stype", subset=(1, 2, 3, 4))

    def test_empty_subset_rejected(self, t44):
        with pytest.raises(BadSubset):
            build_region(t44, "stype", subset=())

    def test_gamma_required(self, t44):
        with pytest.raises(GammaOutOfRange):
            build_region(t44, "ostrowski")
        with pytest.raises(GammaOutOfRange):
            build_region(t44, "gammamix", gamma=1.2)

    def test_pair_kinds_need_two_rows(self):
        t = unit_tensor(3, 1)
        with pytest.raises(WrongDimension):
            build_region(t, "cassini")


class TestMembership:
    def test_demo_cassini(self, t42):
        reg = build_region(t42, "cassini")
        assert membership(reg, 12.7389)
        assert not membership(reg, 13.0)

    def test_unit_gershgorin_point_disc(self):
        reg = build_region(unit_tensor(4, 3), "gershgorin")
        assert membership(reg, 1.0)
        assert not membership(reg, 1.1)

    def test_demo_gammamix_boundary(self, t44):
        reg = build_region(t44, "gammamix", gamma=0.5)
        assert membership(reg, 19.5)
        assert not membership(reg, 19.6)

    def test_array_input(self, t42):
        reg = build_region(t42, "cassini")
        out = membership(reg, np.array([12.7389, 13.0, 0.0]))
        assert out.tolist() == [True, False, False]

    def test_complex_points(self, t42):
        reg = build_region(t42, "gershgorin")
        assert membership(reg, 7 + 1j)
        assert not membership(reg, 7 + 20j)


class TestRealBounds:
    def test_demo_cassini_closed_form(self, t42):
        reg = build_region(t42, "cassini")
        rb = real_bounds(reg)
        assert rb.lower == pytest.approx((7 - math.sqrt(37)) / 2, abs=1e-9)
        assert rb.upper == pytest.approx((19 + math.sqrt(45)) / 2, abs=1e-9)

    def test_demo_ostrowski(self, t44):
        rb = real_bounds(build_region(t44, "ostrowski", gamma=0.5))
        assert rb.lower == pytest.approx(0.3849, abs=1e-3)
        assert rb.upper == pytest.approx(19.3333, abs=1e-3)

    def test_unit_gershgorin(self):
        rb = real_bounds(build_region(unit_tensor(4, 3), "gershgorin"))
        assert rb.lower == pytest.approx(1.0, abs=1e-9)
        assert rb.upper == pytest.approx(1.0, abs=1e-9)

    def test_gershgorin_matches_radius_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            t = random_sparse_tensor(rng)
            reg = build_region(t, "gershgorin")
            rb = real_bounds(reg)
            c = diagonal(t)
            r = row_sums(t)
            assert rb.lower == pytest.approx(np.min(c - r), abs=1e-9)
            assert rb.upper == pytest.approx(np.max(c + r), abs=1e-9)

    def test_boundary_points_are_members(self, t44):
        for kind, gamma, subset in (("gershgorin", None, None), ("cassini", None, None),
                                    ("ostrowski", 0.5, None), ("stype", None, (1, 2))):
            reg = build_region(t44, kind, gamma=gamma, subset=subset)
            rb = real_bounds(reg)
            assert membership(reg, rb.lower)
            assert membership(reg, rb.upper)
            assert not membership(reg, rb.lower - 1e-5)
            assert not membership(reg, rb.upper + 1e-5)


class TestRegionRelations:
    def test_ostrowski_inside_gammamix(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            t = random_sparse_tensor(rng)
            g = float(rng.uniform(0, 1))
            ro = build_region(t, "ostrowski", gamma=g)
            rw = build_region(t, "gammamix", gamma=g)
            z = rng.uniform(-10, 10, 40) + 1j * rng.uniform(-5, 5, 40)
            mo = membership(ro, z)
            mw = membership(rw, z)
            assert not np.any(mo & ~mw)

    def test_ostrowski_gamma_one_is_gershgorin(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            t = random_sparse_tensor(rng)
            ro = build_region(t, "ostrowski", gamma=1.0)
            rg = build_region(t, "gershgorin")
            z = rng.uniform(-10, 10, 60) + 1j * rng.uniform(-5, 5, 60)
            assert np.array_equal(membership(ro, z), membership(rg, z))

    def test_cassini_inside_gershgorin(self):
        # a matrix-style refinement that carries over empirically
        rng = np.random.default_rng(44)
        for _ in range(30):
            t = random_sparse_tensor(rng)
            if t.dim < 2:
                continue
            rc = build_region(t, "cassini")
            rg = build_region(t, "gershgorin")
            z = rng.uniform(-10, 10, 40) + 1j * rng.uniform(-5, 5, 40)
            mc = membership(rc, z)
            mg = membership(rg, z)
            assert not np.any(mc & ~mg)

    def test_split_sum_exclusion_needs_positive_brackets(self):
        # (0, 1) is an exact eigenpair with value 0.13; the second row has
        # f_2 < 0 there, so no split-sum pair may exclude the eigenvalue even
        # though |f_2| is large
        from tgmat.tensor import build_tensor

        t = build_tensor(3, 2, {(2, 1, 2): 0.9, (2, 2, 2): 0.13})
        lam = 0.13
        for reg in (build_region(t, "stype", subset=(1,)),
                    build_region(t, "stype", subset=(2,)),
                    build_region(t, "ssingleton")):
            assert membership(reg, lam)

    def test_exact_eigenvalues_in_every_region(self, t42):
        regions = [build_region(t42, "gershgorin"), build_region(t42, "cassini"),
                   build_region(t42, "ostrowski", gamma=0.5),
                   build_region(t42, "gammamix", gamma=0.04),
                   build_region(t42, "stype", subset=(1,)),
                   build_region(t42, "ssingleton")]
        for p in h_eigen_exact_2d(t42):
            for reg in regions:
                assert membership(reg, p.value)


class TestGridSample:
    def test_node_on_disc(self):
        reg = build_region(unit_tensor(4, 3), "gershgorin")
        rows = grid_sample(reg, (0.0, 2.0), (-1.0, 1.0), 3, 3)
        members = [(r, i) for r, i, m in rows if m]
        assert members == [(1.0, 0.0)]

    def test_demo_grid_self_consistent(self, t42):
        reg = build_region(t42, "cassini")
        rows = grid_sample(reg, (-1.0, 14.0), (-3.0, 3.0), 16, 7)
        count = 0
        for r, i, m in rows:
            assert m == int(bool(membership(reg, complex(r, i))))
            count += m
        assert count > 0

    def test_row_major_order(self, t42):
        reg = build_region(t42, "gershgorin")
        rows = grid_sample(reg, (0.0, 1.0), (0.0, 1.0), 2, 3)
        assert [(r, i) for r, i, _ in rows] == [
            (0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]

    def test_bad_grid(self, t42):
        reg = build_region(t42, "gershgorin")
        with pytest.raises(BadGrid):
            grid_sample(reg, (0.0, 1.0), (0.0, 1.0), 1, 3)
        with pytest.raises(BadGrid):
            grid_sample(reg, (1.0, 0.0), (0.0, 1.0), 3, 3)
        with pytest.raises(BadGrid):
            grid_sample(reg, (0.0, float("inf")), (0.0, 1.0), 3, 3)


def test_all_kinds_have_real_members(t44):
    for kind in KINDS:
        gamma = 0.5 if kind in ("ostrowski", "gammamix") else None
        subset = (1, 2) if kind == "stype" else None
        reg = build_region(t44, kind, gamma=gamma, subset=subset)
        rb = real_bounds(reg)
        assert rb.lower <= rb.upper
