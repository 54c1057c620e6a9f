"""Inclusion regions: membership predicates, real bounds, grid sampling."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import ENTRIES_STYPE_CANCEL, random_sparse_tensor
from tgmat import regions
from tgmat.compare import gt, leq
from tgmat.errors import BadGrid, BadSubset, GammaOutOfRange, WrongDimension
from tgmat.oracle import h_eigen_exact_2d
from tgmat.regions import KINDS, RealBounds, build_region, grid_sample, membership, real_bounds
from tgmat.tensor import DenseTensor, build_tensor, diagonal, generated_matrix, unit_tensor


def reference_membership(region, z):
    """Membership with one loop iteration per index pair, z of any shape; a NaN point is no member."""
    z = np.asarray(z, dtype=complex)
    G = region.stats
    P, S, n = G.P, G.S, G.dim
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.abs(z[..., None] - G.diagonal) - G.s_diag
        member = np.zeros(z.shape, dtype=bool)
        if region.kind in ("gershgorin", "ostrowski", "gammamix"):
            member = leq(f, region.radius).any(axis=-1)
        elif region.kind == "cassini":
            for i in range(n):
                for j in range(i + 1, n):
                    fi, fj = f[..., i], f[..., j]
                    member |= ~(gt(fi, 0.0) & gt(fj, 0.0) & gt(fi * fj, P[i] * P[j]))
        elif region.kind == "stype":
            sub0 = [i - 1 for i in region.subset]
            comp0 = [j for j in range(n) if j + 1 not in region.subset]
            rS = np.array([sum(S[i, j] for j in sub0 if j != i) for i in range(n)])
            rC = P - rS
            for i in sub0:
                for j in comp0:
                    bi = f[..., i] - rS[i]
                    bj = f[..., j] - rC[j]
                    member |= ~(gt(bi, 0.0) & gt(bj, 0.0) & gt(bi * bj, rC[i] * rS[j]))
        else:
            for i in range(n):
                for j in range(n):
                    if i != j:
                        bi = f[..., i]
                        bj = f[..., j] - (P[j] - S[j, i])
                        member |= ~(gt(bi, 0.0) & gt(bj, 0.0) & gt(bi * bj, P[i] * S[j, i]))
    return member & ~np.isnan(z)


def exact_real_extent(region):
    """Smallest and largest real member in 50-digit decimal arithmetic.

    Starts from the region's stored float values.  A disc reaches
    a_i -+ (s_ii + radius_i); a pair with c = s + off reaches the smaller
    root of (a_i - c_i - x)(a_j - c_j - x) = rhs on the left and the larger
    root of (x - a_i - c_i)(x - a_j - c_j) = rhs on the right.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        G = region.stats
        a = [Decimal(float(x)) for x in G.diagonal]
        s = [Decimal(float(x)) for x in G.s_diag]
        ends = []
        if region.radius is not None:
            discs = enumerate(region.radius)
        elif region.kind == "stype":
            # the S-discs |f_i| <= rS_i, rS_i = s_ij summed over j in S, j != i
            sub0 = [i - 1 for i in region.subset]
            discs = ((i, sum(G.S[i, j] for j in sub0 if j != i)) for i in sub0)
        else:
            discs = ()
        for i, r in discs:
            reach = s[i] + Decimal(float(r))
            ends.append((a[i] - reach, a[i] + reach))
        if region.pairs is not None:
            for i, j, off_i, off_j, rhs in zip(*region.pairs):
                ci, cj = s[i] + Decimal(float(off_i)), s[j] + Decimal(float(off_j))
                q = 4 * max(Decimal(float(rhs)), Decimal(0))
                u, v = a[i] - ci, a[j] - cj
                lower = (u + v - ((u - v) ** 2 + q).sqrt()) / 2
                u, v = a[i] + ci, a[j] + cj
                upper = (u + v + ((u - v) ** 2 + q).sqrt()) / 2
                ends.append((lower, upper))
        return min(lo for lo, _ in ends), max(hi for _, hi in ends)


def every_region(t, rng):
    """One region of each kind, with a random gamma and a random stype subset."""
    n = t.dim
    subset = tuple(int(i) + 1 for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    for kind in KINDS:
        gamma = float(rng.uniform(0, 1)) if kind in ("ostrowski", "gammamix") else None
        yield build_region(t, kind, gamma=gamma, subset=subset if kind == "stype" else None)


class TestBuildRegion:
    def test_caches_match_generated_matrix(self, t44):
        stats = build_region(t44, "gershgorin").stats
        G = generated_matrix(t44)
        assert np.max(np.abs(stats.Q - G.Q)) <= 1e-12
        assert np.max(np.abs(stats.Q - np.array([16 / 3, 17 / 3, 19 / 3, 5]))) <= 1e-12
        assert np.max(np.abs(np.diag(stats.S) + stats.P - G.r)) <= 1e-12

    def test_demo_radii(self, t44):
        stats = build_region(t44, "gershgorin").stats
        radii = stats.s_diag + stats.P
        assert np.max(np.abs(radii - np.array([11.0, 7.0, 5.0, 4.0]))) <= 1e-12

    def test_unknown_kind(self, t44):
        with pytest.raises(ValueError, match="unknown region kind"):
            build_region(t44, "brauer")

    def test_stype_needs_a_subset(self, t44):
        with pytest.raises(BadSubset, match="needs a subset"):
            build_region(t44, "stype")

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


    def test_pair_kinds_match_loop_reference(self):
        rng = np.random.default_rng(45)
        for _ in range(40):
            t = random_sparse_tensor(rng)
            if t.dim < 2:
                continue
            for reg in every_region(t, rng):
                for z in rng.uniform(-10, 10, 5) + 1j * rng.uniform(-2, 2, 5):
                    assert membership(reg, complex(z)) == reference_membership(reg, complex(z))
                Z = np.linspace(-12, 12, 31)[:, None] + 1j * np.linspace(-6, 6, 17)[None, :]
                assert np.array_equal(membership(reg, Z), reference_membership(reg, Z))
                # longer than one chunk even for a single pair
                xs = np.linspace(-15, 15, 9001)
                assert np.array_equal(membership(reg, xs), reference_membership(reg, xs))


# points with a NaN part, and far, huge and subnormal ones; each infinite or NaN part is
# built directly (1j * inf would give a NaN real part)
NAN_POINTS = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(1.0, math.nan),
              complex(math.inf, math.nan), complex(math.nan, math.nan)]
EXTREME_POINTS = NAN_POINTS + [
    complex(math.inf, 0.0), complex(-math.inf, 0.0), complex(0.0, math.inf), complex(2.0, -math.inf),
    complex(math.inf, math.inf), 1e308, -1e308, complex(1e308, 1e308), complex(-1.5e308, 1.7e308),
    5e-324, complex(0.0, 5e-324), complex(-2.2e-308, 1e-310),
]


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_membership_matches_the_reference_in_any_chunk(monkeypatch, t44, chunk):
    if chunk is not None:
        monkeypatch.setattr(regions, "_CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(31)
    tensors = [t44] + [random_sparse_tensor(rng, dim=int(rng.integers(3, 6))) for _ in range(3)]
    for t in tensors:
        for reg in every_region(t, rng):
            near = rng.uniform(-12, 12, 23) + 1j * rng.uniform(-4, 4, 23)
            z = np.concatenate([near, EXTREME_POINTS])
            rng.shuffle(z)
            for point in z:
                got = membership(reg, point)
                assert type(got) is bool and got == reference_membership(reg, point), (reg.kind, point)
            for shaped in (z, z.reshape(8, 5)):
                got = membership(reg, shaped)
                assert got.dtype == bool and np.array_equal(got, reference_membership(reg, shaped)), reg.kind
            assert not membership(reg, np.array(NAN_POINTS)).any()


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
            r = generated_matrix(t).r
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


    def test_closed_form_is_outward_and_tight(self, t42, t44):
        rng = np.random.default_rng(46)
        tensors = [t42, t44] + [random_sparse_tensor(rng) for _ in range(40)]
        for t in tensors:
            for reg in every_region(t, rng):
                rb = real_bounds(reg)
                lo, hi = exact_real_extent(reg)
                lower, upper = Decimal(rb.lower), Decimal(rb.upper)
                assert lower <= lo and lo - lower <= Decimal(1e-12) * max(1, abs(lo))
                assert upper >= hi and upper - hi <= Decimal(1e-12) * max(1, abs(hi))
                assert membership(reg, rb.lower) and membership(reg, rb.upper)

    def test_subnormal_scale_stays_outward(self, t42, t44):
        rng = np.random.default_rng(48)
        for t in [t42, t44] + [random_sparse_tensor(rng) for _ in range(20)]:
            for reg in every_region(DenseTensor(t.entries * 2.0 ** -1060), rng):
                rb = real_bounds(reg)
                lo, hi = exact_real_extent(reg)
                assert Decimal(rb.lower) <= lo and Decimal(rb.upper) >= hi

    def test_membership_never_called(self, t44, monkeypatch):
        import tgmat.regions as regions

        def fail(*args):
            raise AssertionError("real_bounds must not probe membership")

        monkeypatch.setattr(regions, "membership", fail)
        for test in ("_disc_test", "_pair_test"):
            monkeypatch.setattr(regions, test, fail)
        rng = np.random.default_rng(47)
        for reg in every_region(t44, rng):
            real_bounds(reg)


class TestBatchedRealBounds:
    def test_list_of_every_kind_matches_single_calls(self, t42, t44):
        rng = np.random.default_rng(49)
        regions = [r for t in (t44, t42, t44) for r in every_region(t, rng)]
        assert real_bounds(regions) == [real_bounds(r) for r in regions]

    def test_empty_list(self):
        assert real_bounds([]) == []

    def test_single_region_gives_one_record(self, t44):
        reg = build_region(t44, "cassini")
        assert isinstance(real_bounds(reg), RealBounds)
        assert real_bounds((reg,)) == [real_bounds(reg)]


def test_stype_split_sums_do_not_cancel():
    # rS = (1, 1, 0): the pairs (1, 2) and (3, 2) hold rS_1 and rS_3 as off_i, P_2 - rS_2 as off_j
    reg = build_region(build_tensor(3, 3, ENTRIES_STYPE_CANCEL), "stype", subset=(1, 3))
    assert reg.pairs.off_i.tolist() == [1.0, 0.0]
    assert reg.pairs.off_j.tolist() == [reg.stats.P[1] - 1.0] * 2
    # the loop definition: s_ij over j in S, j != i, added in index order, as
    # numpy adds a row of fewer than eight terms; off_j is P_j less it, rounded once
    rng = np.random.default_rng(50)
    for _ in range(40):
        t = random_sparse_tensor(rng)
        subset = tuple(int(i) + 1 for i in rng.choice(t.dim, size=int(rng.integers(1, t.dim)), replace=False))
        G = generated_matrix(t)
        want = [sum(G.S[i, j - 1] for j in sorted(subset) if j - 1 != i) for i in range(t.dim)]
        reg = build_region(t, "stype", subset=subset)
        I, J, off_i, off_j, _ = reg.pairs
        assert off_i.tolist() == [want[i] for i in I.tolist()]
        assert off_j.tolist() == [G.P[j] - want[j] for j in J.tolist()]


class TestOverflowingStatistics:
    """Statistics near 1e160, whose pair products pass the largest float."""

    def test_pair_products_are_infinite_and_exclude_nothing(self):
        t = DenseTensor(np.array([[1.0, 1e160], [1e160, 1.0]]))
        z = np.array([0.0, 1e160, -3e160, 1e300j])
        for kind, subset in (("cassini", None), ("stype", (1,)), ("ssingleton", None)):
            reg = build_region(t, kind, subset=subset)
            assert np.isinf(reg.pairs.rhs).all()
            assert real_bounds(reg) == RealBounds(-math.inf, math.inf)
            assert membership(reg, z).all()

    def test_disc_ends_hold_the_eigenvalues(self):
        t = DenseTensor(np.array([[1.0, 1e160], [1e160, 1.0]]))
        for kind, gamma in (("gershgorin", None), ("ostrowski", 0.5), ("gammamix", 0.04)):
            rb = real_bounds(build_region(t, kind, gamma=gamma))
            assert rb.lower <= 1.0 - 1e160 and rb.upper >= 1.0 + 1e160

    def test_overflowing_root_widens_to_the_axis(self):
        # the pair products, 1e320, overflow: an infinite rhs excludes nothing
        t = DenseTensor(np.array([[1e308, 1e160], [1e160, 1e308]]))
        for kind in ("cassini", "ssingleton"):
            assert real_bounds(build_region(t, kind)) == RealBounds(-math.inf, math.inf)

    def test_distances_beyond_the_float_range_warn_nothing(self):
        # |z - a| overflows to inf, beyond every radius; the infinite rhs of the pairs excludes nothing
        t = DenseTensor(np.array([[1e308, 1e160], [1e160, 1e308]]))
        z = np.array([-1e308, complex(-1e308, 1e308), 1e308])
        assert membership(build_region(t, "gershgorin"), z).tolist() == [False, False, True]
        assert membership(build_region(t, "cassini"), z).all()

    def test_disc_ends_near_the_largest_float_are_finite(self):
        # u + v and M + h would overflow; their halves do not
        t = DenseTensor(np.array([[1e308, 1e160], [1e160, 1e308]]))
        rb = real_bounds(build_region(t, "gershgorin"))
        assert math.isfinite(rb.lower) and math.isfinite(rb.upper)
        assert rb.lower <= 1e308 - 1e160 and rb.upper >= 1e308 + 1e160
        assert rb.lower > 0.9999999e308 and rb.upper < 1.0000001e308


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
    def test_row_major_order(self, t42):
        # member[k, l] is the point res[k] + i ims[l]
        reg = build_region(t42, "gershgorin")
        res, ims, member = grid_sample(reg, (-1.0, 14.0), (-3.0, 3.0), 16, 7)
        assert np.array_equal(res, np.linspace(-1.0, 14.0, 16))
        assert np.array_equal(ims, np.linspace(-3.0, 3.0, 7))
        assert member.dtype == bool and member.shape == (16, 7)

    def test_node_on_disc(self):
        reg = build_region(unit_tensor(4, 3), "gershgorin")
        res, ims, member = grid_sample(reg, (0.0, 2.0), (-1.0, 1.0), 3, 3)
        assert [(res[k], ims[l]) for k, l in zip(*np.nonzero(member))] == [(1.0, 0.0)]

    def test_demo_grid_self_consistent(self, t42):
        reg = build_region(t42, "cassini")
        res, ims, member = grid_sample(reg, (-1.0, 14.0), (-3.0, 3.0), 16, 7)
        for k, r in enumerate(res):
            for l, i in enumerate(ims):
                assert member[k, l] == membership(reg, complex(r, i))
        assert member.any()

    def test_bad_grid(self, t42):
        reg = build_region(t42, "gershgorin")
        with pytest.raises(BadGrid):
            grid_sample(reg, (0.0, 1.0), (0.0, 1.0), 1, 3)
        with pytest.raises(BadGrid):
            grid_sample(reg, (1.0, 0.0), (0.0, 1.0), 3, 3)
        with pytest.raises(BadGrid):
            grid_sample(reg, (0.0, float("inf")), (0.0, 1.0), 3, 3)
        with pytest.raises(BadGrid, match="finite width"):
            grid_sample(reg, (0.0, 1.0), (-1e308, 1e308), 3, 3)
        for re_range, im_range in (((0.0, 1.0, 2.0), (0.0, 1.0)), ((0.0, 1.0), 1.0), (("a", 1.0), (0.0, 1.0))):
            with pytest.raises(BadGrid, match="pairs"):
                grid_sample(reg, re_range, im_range, 3, 3)

    def test_counts_must_be_integers(self, t42):
        reg = build_region(t42, "gershgorin")
        for nx, ny in ((2.0, 2), (3, np.float64(3.0))):
            with pytest.raises(BadGrid, match="integers"):
                grid_sample(reg, (0.0, 1.0), (0.0, 1.0), nx, ny)
        res, ims, member = grid_sample(reg, (0.0, 1.0), (0.0, 1.0), np.int64(3), np.int64(2))
        assert member.shape == (3, 2) and np.array_equal(res, np.linspace(0.0, 1.0, 3))


class TestFarPoints:
    @pytest.mark.parametrize("kind", KINDS)
    def test_far_points_are_not_members(self, t44, kind):
        # their brackets, or the products of two brackets, overflow to +inf
        gamma = 0.5 if kind in ("ostrowski", "gammamix") else None
        reg = build_region(t44, kind, gamma=gamma, subset=(1, 2) if kind == "stype" else None)
        far = [1e160, 1e200j, 1.5e308 * (1 + 1j)]
        assert not any(membership(reg, z) for z in far)
        assert not membership(reg, np.array(far)).any()

    def test_infinity_exceeds_every_finite_value(self):
        big = np.finfo(float).max
        assert gt(np.inf, big) and gt(np.inf, -big) and gt(np.inf, 0.0)
        assert not leq(np.inf, big) and leq(big, np.inf)
        assert not gt(big, np.inf) and not gt(np.inf, np.inf)

    def test_finite_comparisons_unchanged(self):
        # the uncapped margin on finite values, huge ones included
        rng = np.random.default_rng(5)
        a = rng.standard_normal(4000) * 10.0 ** rng.integers(-300, 308, 4000)
        b = a + rng.standard_normal(4000) * np.abs(a) * 10.0 ** rng.integers(-16, 1, 4000)
        a, b = np.append(a, [1e308, -1e308]), np.append(b, [-1e308, 1e308])  # a - b overflows
        with np.errstate(over="ignore"):
            margin = 1e-12 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            assert np.array_equal(gt(a, b), a - b > margin)
            assert np.array_equal(leq(a, b), a - b <= margin)


@pytest.mark.parametrize("kind", KINDS)
def test_membership_memory_does_not_grow_with_points(t44, kind):
    gamma = 0.5 if kind in ("ostrowski", "gammamix") else None
    reg = build_region(t44, kind, gamma=gamma, subset=(1, 2) if kind == "stype" else None)
    z = np.linspace(-20, 20, 200_000) + 1j * np.linspace(-5, 5, 200_000)
    membership(reg, z[:10])  # first-call allocations are not per point
    tracemalloc.start()
    try:
        member = membership(reg, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert member.any() and not member.all()
    assert peak < 8 * len(z)


def test_all_kinds_have_real_members(t44):
    for kind in KINDS:
        gamma = 0.5 if kind in ("ostrowski", "gammamix") else None
        subset = (1, 2) if kind == "stype" else None
        reg = build_region(t44, kind, gamma=gamma, subset=subset)
        rb = real_bounds(reg)
        assert rb.lower <= rb.upper
