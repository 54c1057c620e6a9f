"""Quick tests of the benchmark's own checks and input generation.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Every checker must accept a right output and reject a deliberately wrong
one; inputs must repeat exactly for a seed.  Nothing here imports tgmat.
"""

import filecmp
import itertools
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _fmt(v):
    return f"{v:.6f}"


def _bounds_text(rows):
    return "\n".join(["kind,gamma,subset,lower,upper"] + [f"{k},{g},{s},{_fmt(lo)},{_fmt(hi)}"
                                                          for (k, g, s), (lo, hi) in rows.items()]) + "\n"


def _default_rows(lo, hi, n):
    keys = [("gershgorin", "", ""), ("cassini", "", ""), ("ostrowski", "0.500000", ""), ("ostrowski", "0.040000", ""),
            ("gammamix", "0.500000", ""), ("gammamix", "0.040000", ""), ("ssingleton", "", "")]
    if n > 2:
        keys.append(("stype", "", "1+2"))
    return {k: (lo, hi) for k in keys}


def test_planted_eigenpairs_have_small_residuals():
    rng = np.random.default_rng(7)
    for m, n in ((3, 4), (5, 3), (6, 3)):
        entries, eig = workloads.planted_tensor(rng, m, n)
        A = checks.dense(m, n, entries)
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            assert checks.eig_residual(A, eig[k], e) == 0.0
        assert len(eig) == n + 1


def test_bounds_check_rejects_interval_excluding_an_eigenvalue():
    rng = np.random.default_rng(3)
    entries, eig = workloads.planted_tensor(rng, 4, 4)
    spec = {"m": 4, "n": 4, "entries": entries, "eigenvalues": eig}
    lo, hi = min(eig) - 1.0, max(eig) + 1.0
    assert checks.check_bounds(_bounds_text(_default_rows(lo, hi, 4)), 0, spec) is None
    rows = _default_rows(lo, hi, 4)
    rows[("cassini", "", "")] = (lo, max(eig) - 0.01)
    assert "excludes" in checks.check_bounds(_bounds_text(rows), 0, spec)


def test_dim2_references_match_the_published_demo_values():
    lo, hi = checks.cassini_dim2(4, workloads.DEMO_42)
    assert abs(lo - 0.4586) < 1e-4 and abs(hi - 12.8541) < 1e-4
    certain, _ = checks.dim2_eigenvalues(4, workloads.DEMO_42)
    assert np.allclose(sorted(certain), [0.4725, 12.7389], atol=1e-4)
    spec = {"m": 4, "n": 2, "entries": workloads.DEMO_42, "eigenvalues": certain}
    rows = _default_rows(0.0, 13.0, 2)
    rows[("cassini", "", "")] = (lo, hi)
    assert checks.check_bounds(_bounds_text(rows), 0, spec) is None
    rows[("cassini", "", "")] = (lo - 0.01, hi)
    assert "quadratic roots" in checks.check_bounds(_bounds_text(rows), 0, spec)


def test_scaled_bounds_check_rejects_bounds_that_do_not_scale():
    ref = _bounds_text(_default_rows(0.094, 18.14, 4))
    spec = {"factor": 1e-8}
    assert checks.check_bounds_scaled(_bounds_text(_default_rows(0.094e-8, 18.14e-8, 4)), 0, spec, ref) is None
    wrong = _default_rows(0.094e-8, 18.14e-8, 4)
    wrong[("cassini", "", "")] = (-94.6e-8, 111.1e-8)  # the floor-of-1 margin result
    assert "do not scale" in checks.check_bounds_scaled(_bounds_text(wrong), 0, spec, ref)


def test_certify_check_rejects_a_scaling_that_breaks_the_inequality():
    rng = np.random.default_rng(11)
    m, n = 4, 6
    entries = workloads.design_tensor(rng, m, n, "SDD")
    spec = {"m": m, "n": n, "entries": entries, "design": "SDD", "expect": "certified"}
    good = "verdict,certified_H\nrule,SDD\nscaling," + ",".join(["1.000000"] * n) + "\n"
    assert checks.check_certify(good, 0, spec) is None
    bad = "verdict,certified_H\nrule,SDD\nscaling,0.001000," + ",".join(["1.000000"] * (n - 1)) + "\n"
    assert "violates" in checks.check_certify(bad, 0, spec)
    assert "not certified" in checks.check_certify("verdict,not_certified\n", 2, spec)
    zero = dict(spec, expect="not_H")
    assert "zero diagonal" in checks.check_certify(good, 0, zero)


def brute_s(m, n, entries):
    """s_ij by enumerating every tuple of the dense array."""
    A = checks.dense(m, n, entries)
    S = np.zeros((n, n))
    for tup in itertools.product(range(n), repeat=m):
        if len(set(tup)) == 1:
            continue
        for k in tup[1:]:
            S[tup[0], k] += abs(A[tup]) / (m - 1)
    return S


def test_gen_matrix_reference_matches_brute_force_and_the_demo():
    rng = np.random.default_rng(5)
    for m, n in ((3, 4), (4, 3), (5, 3)):
        entries = workloads.design_tensor(rng, m, n, "GammaSDD") if n >= 4 else workloads._random_sparse(rng, m, n, 0.5)
        assert np.allclose(checks.s_from_entries(m, n, entries), brute_s(m, n, entries))
    S = checks.s_from_entries(4, 4, workloads.DEMO_44)
    assert np.isclose(S[0, 0], 8 / 3) and np.isclose(S[0, 2], 3.0) and np.isclose(S[3, 3], 1 / 3)


def _grid_spec():
    entries = workloads.DEMO_44
    return {"m": 4, "n": 4, "entries": entries, "kind": "gershgorin",
            "re": (-5.0, 20.0), "im": (-6.0, 6.0), "nx": 41, "ny": 21}


def _grid_text(spec, member):
    (re0, re1), (im0, im1) = spec["re"], spec["im"]
    zr = np.repeat(np.linspace(re0, re1, spec["nx"]), spec["ny"])
    zi = np.tile(np.linspace(im0, im1, spec["ny"]), spec["nx"])
    return "\n".join(["re,im,member"] + [f"{a:.9g},{b:.9g},{int(c)}" for a, b, c in zip(zr, zi, member)]) + "\n"


def _discs(spec):
    (re0, re1), (im0, im1) = spec["re"], spec["im"]
    zr = np.repeat(np.linspace(re0, re1, spec["nx"]), spec["ny"])
    zi = np.tile(np.linspace(im0, im1, spec["ny"]), spec["nx"])
    c = checks.diag_values(4, 4, spec["entries"])
    r = checks.deleted_row_sums(4, 4, spec["entries"])
    return np.any(np.hypot(zr[:, None] - c, zi[:, None]) <= r, axis=1)


def test_grid_check_rejects_a_row_flipped_from_0_to_1():
    spec = _grid_spec()
    member = _discs(spec).astype(int)
    text = _grid_text(spec, member)
    assert checks.check_grid(text, 0, spec) is None
    outside = int(np.flatnonzero(member == 0)[0])
    flipped = member.copy()
    flipped[outside] = 1
    assert "disagrees" in checks.check_grid(_grid_text(spec, flipped), 0, spec)
    cassini = dict(spec, kind="cassini")
    assert checks.check_grid(text, 0, cassini, text) is None
    assert "outside the Gershgorin set" in checks.check_grid(_grid_text(spec, flipped), 0, cassini, text)
    assert "rows" in checks.check_grid("\n".join(text.splitlines()[:-1]) + "\n", 0, spec)


def test_oracle_check_rejects_a_value_with_no_eigenvector():
    rng = np.random.default_rng(2)
    entries = workloads._random_sparse(rng, 3, 3, 1.0)
    A = checks.dense(3, 3, entries)
    found = checks.newton_eigenpairs(A)
    spec = {"m": 3, "n": 3, "entries": entries}
    good = "lambda,residual\n" + "".join(f"{_fmt(v)},1e-12\n" for v, _, _ in found)
    assert checks.check_oracle(good, 0, spec) is None
    c, r = checks.diag_values(3, 3, entries), checks.deleted_row_sums(3, 3, entries)
    inside = next(x for x in c[0] + r[0] * np.linspace(-0.9, 0.9, 19)
                  if all(abs(x - v) > 0.01 for v, _, _ in found))  # in a disc, near no eigenvalue
    bad = good + f"{_fmt(inside)},1e-12\n"
    assert "no eigenvector" in checks.check_oracle(bad, 0, spec)
    far = good + f"{_fmt(float(np.max(np.abs(c) + r)) + 5.0)},1e-12\n"
    assert "Gershgorin" in checks.check_oracle(far, 0, spec)


def test_oracle_dim2_check_rejects_a_missing_root():
    certain, _ = checks.dim2_eigenvalues(4, workloads.DEMO_42)
    spec = {"m": 4, "n": 2, "entries": workloads.DEMO_42}
    text = "lambda,residual\n" + "".join(f"{_fmt(v)},1e-12\n" for v in sorted(certain))
    assert checks.check_oracle(text, 0, spec) is None
    assert "missing" in checks.check_oracle("lambda,residual\n" + f"{_fmt(min(certain))},1e-12\n", 0, spec)


def test_spin_checks_reject_certified_nonclassical_and_large_error():
    spec = {"m": 2, "label": "dicke2", "nonclassical": True}
    assert checks.check_spin_certify("m,2\nverdict,inconclusive\n", 2, spec) is None
    assert "nonclassical" in checks.check_spin_certify("m,2\nverdict,certified_classical\n", 0, spec)
    assert checks.check_roundtrip("m,2\nmax_abs_error,3.0e-16\n", 0, spec) is None
    assert "above" in checks.check_roundtrip("m,2\nmax_abs_error,3.0e-09\n", 0, spec)


def test_inputs_repeat_exactly_for_a_seed():
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            dirs = [os.path.join(tmp, f"{name}{k}") for k in range(3)]
            for d in dirs:
                os.makedirs(d)
            rounds = [workloads.build(name, seed, d) for seed, d in zip((4, 4, 5), dirs)]
            argv = [[[a.replace(d, "") for a in op.argv] for op in ops] for ops, d in zip(rounds, dirs)]
            assert argv[0] == argv[1]
            files = sorted(os.listdir(dirs[0]))
            assert files == sorted(os.listdir(dirs[1]))
            assert all(filecmp.cmp(os.path.join(dirs[0], f), os.path.join(dirs[1], f), shallow=False) for f in files)
            assert not all(filecmp.cmp(os.path.join(dirs[0], f), os.path.join(dirs[2], f), shallow=False)
                           for f in files if not f.startswith("demo")), name


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)
