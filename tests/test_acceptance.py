"""Acceptance suite: every numbered criterion at its stated tolerance.

Each check prints one `[criterion N] PASS/FAIL ...` line (visible with
``pytest -s`` and in failure reports) and asserts the same condition, so
the pytest verdict per test mirrors the printed line.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    GEN_44,
    boosted_diagonal_tensor,
    random_sparse_tensor,
    random_strongly_symmetric_tensor,
)
from tgmat.dominance import certify_h_tensor, check_dominance, is_irreducible, is_weakly_irreducible, tensor_dd
from tgmat.oracle import h_eigen_exact_2d, h_eigen_newton
from tgmat.regions import build_region, membership, real_bounds
from tgmat.spin import (
    certify_classicality,
    classical_mixture,
    coefficient_tensor,
    coherent_direction,
    coherent_state,
    dicke_isometry,
    reconstruct_state,
    spin_state,
)
from tgmat.tensor import (
    DenseTensor,
    contract,
    diagonal,
    generated_matrix,
    poly_values,
)


def check(criterion, label, ok):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {label}")
    assert ok, f"criterion {criterion}: {label}"


def best_time(fn, repeats=5):
    fn()  # warm caches before timing
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_generated_matrix_dim2_exact(t42):
    G = generated_matrix(t42)
    exact = np.array_equal(G.data, np.array([[3.0, 3.0], [3.0, 4.0]]))
    elapsed = best_time(lambda: generated_matrix(t42))
    check(1, f"generated matrix [[3,3],[3,4]] exact, {elapsed * 1e6:.0f} us",
          exact and elapsed < 1e-3)


def test_criterion_2_cassini_bounds_dim2(t42):
    reg = build_region(t42, "cassini")
    t0 = time.perf_counter()
    rb = real_bounds(reg)
    elapsed = time.perf_counter() - t0
    lo_exact = (7 - math.sqrt(37)) / 2
    hi_exact = (19 + math.sqrt(45)) / 2
    ok = (abs(rb.lower - 0.4586) <= 1e-3 and abs(rb.upper - 12.8541) <= 1e-3
          and abs(rb.lower - lo_exact) <= 1e-9 and abs(rb.upper - hi_exact) <= 1e-9
          and elapsed < 0.1)
    check(2, f"cassini bounds ({rb.lower:.6f}, {rb.upper:.6f}) vs roots, {elapsed * 1e3:.1f} ms", ok)


def _regions_dim2(t):
    regs = [build_region(t, "gershgorin"), build_region(t, "cassini"),
            build_region(t, "ssingleton")]
    for g in (0.0, 0.04, 0.5, 1.0):
        regs.append(build_region(t, "ostrowski", gamma=g))
        regs.append(build_region(t, "gammamix", gamma=g))
    for s in ((1,), (2,)):
        regs.append(build_region(t, "stype", subset=s))
    return regs


def test_criterion_3_exact_oracle_dim2_and_containment(t42):
    pairs = h_eigen_exact_2d(t42)
    vals = sorted(p.value for p in pairs)
    spectrum_ok = (len(vals) == 2 and abs(vals[0] - 0.4725) <= 1e-3
                   and abs(vals[1] - 12.7389) <= 1e-3)
    contained = all(membership(reg, p.value) for p in pairs for reg in _regions_dim2(t42))
    check(3, f"spectrum {vals} in every region", spectrum_ok and contained)


def test_criterion_4_generated_matrix_dim4(t44):
    err = float(np.max(np.abs(generated_matrix(t44).data - GEN_44)))
    check(4, f"dim-4 generated matrix entrywise error {err:.2e}", err <= 1e-12)


TABLE_ROWS = [
    ("gershgorin", None, None, -1.0, 21.0),
    ("cassini", None, None, 0.0936, 18.1382),
    ("ostrowski", 0.5, None, 0.3849, 19.3333),
    ("ostrowski", 0.04, None, -0.2717, 18.0961),
    ("gammamix", 0.5, None, 0.3333, 19.5000),
    ("gammamix", 0.04, None, -0.2800, 18.1200),
    ("stype", None, (1, 2), 0.5811, 17.5803),
    ("ssingleton", None, None, -0.4741, 19.8130),
]


@pytest.mark.parametrize("kind,gamma,subset,lo,hi", TABLE_ROWS,
                         ids=[f"{k}-{g}-{s}" for k, g, s, _, _ in TABLE_ROWS])
def test_criterion_5_bounds_table_dim4(t44, kind, gamma, subset, lo, hi):
    rb = real_bounds(build_region(t44, kind, gamma=gamma, subset=subset))
    ok = abs(rb.lower - lo) <= 1e-3 and abs(rb.upper - hi) <= 1e-3
    check(5, f"{kind} gamma={gamma} S={subset}: ({rb.lower:.4f}, {rb.upper:.4f}) "
             f"vs ({lo}, {hi})", ok)


def test_criterion_5_bounds_table_runtime(t44):
    def run_all():
        for kind, gamma, subset, _, _ in TABLE_ROWS:
            real_bounds(build_region(t44, kind, gamma=gamma, subset=subset))

    t0 = time.perf_counter()
    run_all()
    elapsed = time.perf_counter() - t0
    check(5, f"all eight bound rows in {elapsed:.3f} s", elapsed < 1.0)


def _regions_dim4(t):
    regs = []
    for kind, gamma, subset, _, _ in TABLE_ROWS:
        regs.append(build_region(t, kind, gamma=gamma, subset=subset))
    return regs


def test_criterion_6_newton_oracle_dim4(t44):
    t0 = time.perf_counter()
    pairs = h_eigen_newton(t44, starts=2000, seed=1)
    elapsed = time.perf_counter() - t0
    published = (4.4858, 7.3107, 9.7718, 15.2641)
    found = []
    for target in published:
        close = [p for p in pairs if abs(p.value - target) <= 1e-3]
        found.append(bool(close) and all(p.residual <= 1e-8 for p in close))
    regions = _regions_dim4(t44)
    contained = all(membership(reg, p.value) for p in pairs for reg in regions)
    check(6, f"found {[round(p.value, 4) for p in pairs]} in {elapsed:.1f} s, "
             f"all four published values with small residuals, all contained",
          all(found) and contained and elapsed < 30.0)


# ---------------------------------------------------------------------------
# criterion 7: nine property suites, >= 200 seeded random cases each


def test_criterion_7_row_sum_identity():
    rng = np.random.default_rng(101)
    failures = 0
    for _ in range(220):
        t = random_sparse_tensor(rng)
        G = generated_matrix(t)
        for i in range(t.dim):
            if abs(G.r[i] - G.S[i].sum()) > 1e-12 * max(1.0, G.r[i]):
                failures += 1
    check(7, "row sum identity r_i = s_ii + P_i (220 tensors)", failures == 0)


def test_criterion_7_weak_irreducibility_equivalence():
    rng = np.random.default_rng(102)
    failures = 0
    for _ in range(220):
        t = random_sparse_tensor(rng)
        if is_weakly_irreducible(t) != is_irreducible(generated_matrix(t).data):
            failures += 1
    check(7, "weak irreducibility equals generated-matrix irreducibility (220 tensors)",
          failures == 0)


def test_criterion_7_strong_symmetry_symmetric_matrix():
    rng = np.random.default_rng(103)
    failures = 0
    for k in range(220):
        t = random_strongly_symmetric_tensor(rng, integer=(k % 2 == 0))
        G = generated_matrix(t).data
        if k % 2 == 0:
            ok = np.array_equal(G, G.T)
        else:
            ok = np.max(np.abs(G - G.T)) <= 1e-12
        if not ok:
            failures += 1
    check(7, "strongly symmetric tensor gives symmetric generated matrix (220 tensors)",
          failures == 0)


def test_criterion_7_transfer_theorem():
    rng = np.random.default_rng(104)
    failures = 0
    for _ in range(220):
        t = boosted_diagonal_tensor(rng)
        rep = check_dominance(generated_matrix(t).data, "SDD")
        if rep.kind != "SDD" or tensor_dd(t).kind != "SDD":
            failures += 1
    check(7, "matrix SDD transfers to tensor SDD (220 tensors)", failures == 0)


def test_criterion_7_certificate_soundness():
    rng = np.random.default_rng(105)
    failures = 0
    with_scaling = 0
    for _ in range(220):
        t = boosted_diagonal_tensor(rng)
        cert = certify_h_tensor(t)
        if not cert.certified:
            failures += 1
            continue
        if cert.scaling is None:
            continue
        with_scaling += 1
        y = cert.scaling
        absT = DenseTensor(np.abs(t.entries))
        total = contract(absT, y)
        lhs = np.abs(diagonal(t)) * y ** (t.order - 1)
        if not np.all(lhs - (total - lhs) > 0):
            failures += 1
    check(7, f"certificate scalings verify strictly ({with_scaling} scalings)",
          failures == 0 and with_scaling >= 200)


def test_criterion_7_ostrowski_subset_of_gammamix():
    rng = np.random.default_rng(106)
    failures = 0
    for _ in range(220):
        t = random_sparse_tensor(rng)
        g = float(rng.uniform(0, 1))
        ro = build_region(t, "ostrowski", gamma=g)
        rw = build_region(t, "gammamix", gamma=g)
        z = rng.uniform(-12, 12, 25) + 1j * rng.uniform(-6, 6, 25)
        if np.any(membership(ro, z) & ~membership(rw, z)):
            failures += 1
    check(7, "ostrowski(gamma) membership implies gammamix(gamma) (220 tensors)",
          failures == 0)


def test_criterion_7_ostrowski_one_equals_gershgorin():
    rng = np.random.default_rng(107)
    failures = 0
    for _ in range(220):
        t = random_sparse_tensor(rng)
        ro = build_region(t, "ostrowski", gamma=1.0)
        rg = build_region(t, "gershgorin")
        z = rng.uniform(-12, 12, 25) + 1j * rng.uniform(-6, 6, 25)
        if not np.array_equal(membership(ro, z), membership(rg, z)):
            failures += 1
    check(7, "ostrowski(1) membership coincides with gershgorin (220 tensors)",
          failures == 0)


def test_criterion_7_containment_dim2():
    rng = np.random.default_rng(108)
    failures = 0
    checked = 0
    for _ in range(220):
        t = random_sparse_tensor(rng, dim=2)
        pairs = h_eigen_exact_2d(t)
        regs = _regions_dim2(t)
        for p in pairs:
            checked += 1
            if not all(membership(reg, p.value) for reg in regs):
                failures += 1
    check(7, f"every exact dim-2 eigenvalue inside every region ({checked} eigenpairs)",
          failures == 0 and checked >= 200)


def test_criterion_7_certified_tensors_avoid_zero():
    rng = np.random.default_rng(109)
    failures = 0
    certified = 0
    for _ in range(220):
        t = boosted_diagonal_tensor(rng, dim=2)
        if not certify_h_tensor(t).certified:
            continue
        certified += 1
        for p in h_eigen_exact_2d(t):
            if abs(p.value) <= 1e-6:
                failures += 1
    check(7, f"no H-certified dim-2 tensor has an eigenvalue near zero ({certified} certified)",
          failures == 0 and certified >= 200)


# ---------------------------------------------------------------------------
# criterion 8: spin suite


def test_criterion_8_spin_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)

    ortho_err = 0.0
    for m in range(1, 7):
        V = dicke_isometry(m)
        ortho_err = max(ortho_err, float(np.max(np.abs(V.conj().T @ V - np.eye(m + 1)))))
    ortho_ok = ortho_err <= 1e-14

    recon_err = 0.0
    for m in (2, 4):
        for _ in range(50):
            G = rng.standard_normal((m + 1, m + 1)) + 1j * rng.standard_normal((m + 1, m + 1))
            rho = G @ G.conj().T
            st = spin_state(m, rho / np.trace(rho))
            rec = reconstruct_state(coefficient_tensor(st))
            recon_err = max(recon_err, float(np.max(np.abs(rec.rho - st.rho))))
    recon_ok = recon_err <= 1e-10

    factor_err = 0.0
    thetas = np.linspace(0.0, np.pi, 8)
    phis = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    for m in (2, 3):
        for th in thetas:
            for ph in phis:
                A = coefficient_tensor(coherent_state(m, float(th), float(ph))).entries
                nv = coherent_direction(float(th), float(ph))
                outer = nv
                for _ in range(m - 1):
                    outer = np.multiply.outer(outer, nv)
                factor_err = max(factor_err, float(np.max(np.abs(A - outer))))
    factor_ok = factor_err <= 1e-10

    sample_rng = np.random.default_rng(111)
    X = sample_rng.standard_normal((100_000, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    certified = 0
    psd_ok = True
    states = [spin_state(2, np.eye(3) / 3)]
    for _ in range(8):
        k = int(rng.integers(6, 12))
        w = rng.uniform(0.2, 1.0, k)
        w /= w.sum()
        dirs = [(float(np.arccos(rng.uniform(-1, 1))), float(rng.uniform(0, 2 * np.pi)))
                for _ in range(k)]
        states.append(classical_mixture(2, w, dirs))
        states.append(classical_mixture(4, w, dirs))
    for st in states:
        verdict = certify_classicality(st)
        if verdict.certified:
            certified += 1
            floor = float(np.min(poly_values(coefficient_tensor(st), X)))
            psd_ok = psd_ok and floor >= -1e-9
    elapsed = time.perf_counter() - t0
    check(8, f"orthonormality {ortho_err:.1e}, reconstruction {recon_err:.1e}, "
             f"factorization {factor_err:.1e}, {certified} certified states PSD-checked, "
             f"{elapsed:.1f} s",
          ortho_ok and recon_ok and factor_ok and psd_ok and certified >= 1
          and elapsed < 60.0)
