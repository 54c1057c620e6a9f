"""Property tests: real bounds scale with the tensor, the batched bounds match the
one-region reference, bounds and certificates ignore index labels, the bounds hold
every Newton eigenvalue, the H-matrix decision agrees with the Jacobi radius, the
cascade's tensor-form rules and residuals agree with their definitions, the
symmetry class agrees with a brute-force reading of its definition, the record
summed from a loaded tensor's nonzeros agrees with the dense walk and ignores the
order the entries were listed in, and the exact dimension-2 oracle matches its
tuple-by-tuple reference bit for bit and scales exactly with a power of two, and
the spin coefficient map and its inverse match their one-tensordot-per-site
references bit for bit, ``compare.positive`` is ``gt`` against 0, the
region-grid text matches the numpy-array row formatter byte for byte, and the
S-type set tested by its pairs alone drops from the union with its S-discs
only the sliver just outside an S-disc's outer circle."""

import contextlib
import io
import itertools
import json
import random as pyrandom

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    ENTRIES_42,
    ENTRIES_44,
    ENTRIES_HUGE_DIAGONAL,
    ENTRIES_SUBNORMAL_CHAIN,
    boosted_diagonal_tensor,
    near_boundary_z_tensor,
    near_singular_cycle,
    random_sparse_tensor,
    reference_coefficient_tensor,
    reference_exact_2d,
    reference_grid_text,
    reference_annulus_membership,
    reference_real_bounds,
    reference_reconstruct,
    stype_split_sums,
)
from tgmat.cli import main
from tgmat.compare import EPS, gt, positive
from tgmat.dominance import certify_h_tensor, is_h_matrix, is_weakly_chained_dd, tensor_dd
from tgmat.errors import TgmatError
from tgmat.oracle import h_eigen_exact_2d, h_eigen_newton
from tgmat.regions import KINDS, build_region, grid_sample, membership, real_bounds
from tgmat.spin import classical_mixture, coefficient_tensor, reconstruct_state, spin_state
from tgmat.tensor import DenseTensor, build_tensor, classify_symmetry, generated_matrix, load_tensor, tensor_from_json

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def tensors_with_regions(draw):
    """A conftest random tensor with one (kind, gamma, subset) per region kind."""
    t = random_sparse_tensor(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    subset = draw(st.sets(st.integers(1, t.dim), min_size=1, max_size=t.dim - 1))
    specs = []
    for kind in KINDS:
        gamma = draw(st.floats(0.0, 1.0)) if kind in ("ostrowski", "gammamix") else None
        specs.append((kind, gamma, tuple(sorted(subset)) if kind == "stype" else None))
    return t, specs


def bounds(t, spec):
    kind, gamma, subset = spec
    rb = real_bounds(build_region(t, kind, gamma=gamma, subset=subset))
    return rb.lower, rb.upper


def relabel(t, perm):
    """Entry (i1, ..., im) of t becomes entry (perm[i1], ..., perm[im])."""
    inverse = np.argsort(perm)
    return DenseTensor(t.entries[np.ix_(*[inverse] * t.order)])


def rounding_scale(t):
    """The largest |a_ii| + s_ii + P_i + Q_i; 1e-12 of it is far above any bound's rounding error."""
    G = generated_matrix(t)
    return float(np.max(G.diag_abs + G.s_diag + G.P + G.Q))


@PROPERTY_SETTINGS
@given(tensors_with_regions(), st.sampled_from([2.0 ** -30, 1e-8, 1e6]))
def test_bounds_scale_with_the_tensor(case, c):
    t, specs = case
    scaled = DenseTensor(c * t.entries)
    tol = 1e-12 * c * rounding_scale(t)
    for spec in specs:
        got, want = bounds(scaled, spec), bounds(t, spec)
        if c == 2.0 ** -30:
            # a power of two scales every stored value and every rounding exactly
            assert got == (c * want[0], c * want[1]), spec
        else:
            assert abs(got[0] - c * want[0]) <= tol and abs(got[1] - c * want[1]) <= tol, spec


@st.composite
def mixed_region_lists(draw):
    """One to ten regions of two random tensors (order 2..5, dimension 2..6, one
    scale each, down to subnormal), of mixed kinds, gammas and proper subsets."""
    tensors = []
    for _ in range(2):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        t = random_sparse_tensor(rng, order=draw(st.integers(2, 5)), dim=draw(st.integers(2, 6)))
        tensors.append(DenseTensor(draw(st.sampled_from([1.0, 1e-8, 1e6, 2.0 ** -1060])) * t.entries))
    regions = []
    for _ in range(draw(st.integers(1, 10))):
        t = draw(st.sampled_from(tensors))
        kind = draw(st.sampled_from(KINDS))
        gamma = draw(st.floats(0.0, 1.0)) if kind in ("ostrowski", "gammamix") else None
        subset = draw(st.lists(st.integers(1, t.dim), min_size=1, max_size=t.dim - 1)) if kind == "stype" else None
        regions.append(build_region(t, kind, gamma=gamma, subset=subset))
    return regions


@PROPERTY_SETTINGS
@given(mixed_region_lists())
def test_batched_bounds_match_the_reference(regions):
    assert real_bounds(regions) == [reference_real_bounds(r) for r in regions]
    assert [real_bounds([r])[0] for r in regions] == [real_bounds(r) for r in regions]


@PROPERTY_SETTINGS
@given(tensors_with_regions(), st.randoms(use_true_random=False))
def test_bounds_ignore_index_labels(case, random):
    t, specs = case
    perm = list(range(t.dim))
    random.shuffle(perm)
    relabelled = relabel(t, perm)
    tol = 1e-12 * rounding_scale(t)
    for kind, gamma, subset in specs:
        moved = tuple(sorted(perm[i - 1] + 1 for i in subset)) if subset else None
        got = bounds(relabelled, (kind, gamma, moved))
        want = bounds(t, (kind, gamma, subset))
        assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol, kind


@PROPERTY_SETTINGS
@given(tensors_with_regions())
def test_newton_eigenvalues_lie_in_every_region(case):
    t, specs = case
    values = [p.value for p in h_eigen_newton(t, starts=20, seed=1)]
    for spec in specs:
        lower, upper = bounds(t, spec)
        for v in values:
            # a defective eigenvalue is fixed only to about the square root of
            # the residual (a nilpotent 2 x 2 matrix gives -3.5e-8 for 0), so
            # allow the oracle's own resolution, its 1e-6 dedupe tolerance
            tol = 1e-6 * max(1.0, abs(v))
            assert lower - tol <= v <= upper + tol, (spec, v, lower, upper)


# zeros, the smallest subnormal, EPS, 1 and the largest float with their neighbours, infinities and nan
MARGIN_EDGES = [0.0, -0.0, 5e-324, -5e-324, np.nextafter(EPS, 0.0), EPS, np.nextafter(EPS, 1.0),
                np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), np.finfo(float).max, -np.finfo(float).max,
                np.inf, -np.inf, np.nan]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats() | st.floats(EPS / 4, 4 * EPS) | st.floats(0.25, 4.0), min_size=1, max_size=40))
def test_positive_is_gt_against_zero(values):
    a = np.array(values + MARGIN_EDGES)
    assert np.array_equal(positive(a), gt(a, 0.0))


@st.composite
def grid_specs(draw):
    """Ascending grid ends from moderate values, signed zeros, 1e-300 and 1e300, and 2..6 samples per axis."""
    end = st.floats(-20.0, 20.0) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300])
    re0, re1, im0, im1 = (*sorted([draw(end), draw(end)]), *sorted([draw(end), draw(end)]))
    return [re0, re1, im0, im1, draw(st.integers(2, 6)), draw(st.integers(2, 6))]


@PROPERTY_SETTINGS
@given(tensors_with_regions(), grid_specs())
def test_grid_text_matches_the_array_formatter(tmp_path_factory, case, grid):
    t, specs = case
    path = tmp_path_factory.mktemp("grid") / "t.json"
    entries = [{"idx": [int(k) + 1 for k in idx], "val": float(t.entries[idx])} for idx in zip(*np.nonzero(t.entries))]
    path.write_text(json.dumps({"order": t.order, "dim": t.dim, "entries": entries}))
    re0, re1, im0, im1, nx, ny = grid
    loaded = load_tensor(str(path))
    for kind, gamma, subset in specs:
        argv = ["region-grid", "--input", str(path), "--kind", kind, f"--grid={re0!r}:{re1!r}:{im0!r}:{im1!r}:{nx}:{ny}"]
        argv += ["--gamma", repr(gamma)] if gamma is not None else []
        argv += ["--subset", ",".join(map(str, subset))] if subset else []
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        region = build_region(loaded, kind, gamma=gamma, subset=subset)
        assert out.getvalue() == reference_grid_text(*grid_sample(region, (re0, re1), (im0, im1), nx, ny)), kind


@st.composite
def stype_regions_with_points(draw):
    """An 'stype' region of a random tensor, with points in a box around it and near each S-disc's circles.

    Entries are scaled from 1e-3 to 1e3, some rounded to integers.  Each
    circle |z - a_i| = s_ii -+ rS_i, i in S, gets points on it and at radii
    within 1e-9 relative of it, down to 1e-17 relative.  The sliver needs
    every pair of some i in S to exclude points just outside its S-disc,
    which a random tensor seldom allows; half the draws clear the mass of
    the rows of S outside S to make it likely.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 3.0, 1e3]))
    t = random_sparse_tensor(rng, integer=draw(st.booleans()), scale=max(scale, 1.0))
    subset = sorted(draw(st.sets(st.integers(1, t.dim), min_size=1, max_size=t.dim - 1)))
    entries = t.entries * min(scale, 1.0)
    if draw(st.booleans()):
        # rows of S with no mass outside S: their pairs have rhs 0 and exclude by the signs alone,
        # so points just outside an S-disc can be excluded
        inside = np.isin(np.arange(1, t.dim + 1), subset)
        for i in subset:
            entries[i - 1][~inside[np.indices(entries.shape[1:])].all(axis=0)] = 0.0
    region = build_region(DenseTensor(entries), "stype", subset=subset)
    G, rS = region.stats, stype_split_sums(region)
    reach = float(np.max(np.abs(G.diagonal) + G.s_diag + G.P)) + 1.0
    box = rng.uniform(-reach, reach, 400) + 1j * rng.uniform(-reach, reach, 400)
    circles, k = [], 200
    for i in region.subset:
        for radius in (G.s_diag[i - 1] + rS[i - 1], G.s_diag[i - 1] - rS[i - 1]):
            # half spread from 1e-9 to 1e-17, half near the margin's 1e-12
            exponent = np.where(rng.random(k) < 0.5, rng.uniform(9.0, 17.0, k), rng.uniform(11.5, 13.5, k))
            relative = rng.choice([-1.0, 1.0], k) * 10.0 ** -exponent
            relative[:20] = 0.0
            angle = np.where(rng.random(k) < 0.25, rng.choice([0.0, np.pi], k), rng.uniform(0.0, 2 * np.pi, k))
            circles.append(G.diagonal[i - 1] + abs(radius) * (1.0 + relative) * np.exp(1j * angle))
    return region, np.concatenate([box, *circles])


@PROPERTY_SETTINGS
@given(stype_regions_with_points())
def test_stype_pairs_drop_only_the_sliver_outside_the_s_discs(case):
    region, z = case
    new, old = membership(region, z), reference_annulus_membership(region, z)
    assert not (new & ~old).any()
    # where they differ, some i in S has EPS < f_i - rS_i <= EPS max(1, |f_i|, rS_i)
    G, sub0 = region.stats, np.array(region.subset) - 1
    f = np.abs(z[new != old, None] - G.diagonal[sub0]) - G.s_diag[sub0]
    rS = stype_split_sums(region)[sub0]
    d = f - rS
    assert ((d > EPS) & (d <= EPS * np.maximum(1.0, np.maximum(np.abs(f), rS)))).any(axis=1).all()


# the rules a random draw seldom reaches: DoublySDD on both demos, GammaSDD on the last
DEMO_42, DEMO_44 = build_tensor(4, 2, ENTRIES_42), build_tensor(4, 4, ENTRIES_44)
GAMMA_SDD = DenseTensor(np.array([[5.0, 0.0, 0.0], [2.0, 5.0, 0.0], [4.0, 4.0, 2.0]]))


def seeded(make):
    return st.integers(0, 2 ** 32 - 1).map(lambda seed: make(np.random.default_rng(seed)))


@PROPERTY_SETTINGS
@given(st.one_of(seeded(random_sparse_tensor), seeded(boosted_diagonal_tensor)), st.randoms(use_true_random=False))
@example(DEMO_42, pyrandom.Random(1))
@example(DEMO_44, pyrandom.Random(2))
@example(GAMMA_SDD, pyrandom.Random(3))
def test_certificate_ignores_index_labels(t, random):
    perm = list(range(t.dim))
    random.shuffle(perm)
    got, want = certify_h_tensor(relabel(t, perm)), certify_h_tensor(t)
    assert (got.verdict, got.rule, got.gamma) == (want.verdict, want.rule, want.gamma)


@st.composite
def square_matrices(draw):
    """An n x n matrix, n in 1..4: diagonal moduli in [0.25, 4] of either sign, off-diagonal
    entries in [-4, 4] or zero, so reducible and near-singular comparison matrices both occur."""
    n = draw(st.integers(1, 4))
    off = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))
    M = np.array(draw(st.lists(off, min_size=n * n, max_size=n * n))).reshape(n, n)
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    np.fill_diagonal(M, signs * np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))))
    return M


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(square_matrices())
@example(np.array([[3.0, 3.0], [3.0, 4.0]]))
@example(np.array([[1.0, 1.0 - 1e-10], [1.0, 1.0]]))
@example(np.array([[1.0, 1.0], [1.0, 1.0]]))
def test_h_matrix_decision_matches_the_jacobi_radius(M):
    d = np.abs(np.diag(M))
    N = np.abs(M)
    np.fill_diagonal(N, 0.0)
    res = is_h_matrix(M)
    # M is an H-matrix iff rho(D^-1 N) < 1; eigenvalue rounding is kept out by the band
    rho = float(np.max(np.abs(np.linalg.eigvals(N / d[:, None]))))
    if abs(rho - 1.0) > 1e-8:
        assert res.is_h == (rho < 1.0), rho
    if res.is_h:
        x = res.scaling
        assert np.all(x > 0.0) and gt(d * x, N @ x).all()


def integral(t):
    """The tensor with its entries rounded to integers, where dominance ties are exact."""
    return DenseTensor(np.round(t.entries))


def off_diagonal_mass(t, i, y):
    """Row i's sum of |a_{i i2...im}| y_i2 ... y_im over every tuple but (i, ..., i), term by term."""
    tuples = itertools.product(range(t.dim), repeat=t.order - 1)
    return sum(abs(t.entries[(i,) + k]) * np.prod(y[list(k)]) for k in tuples if k != (i,) * (t.order - 1))


@PROPERTY_SETTINGS
@given(st.one_of(*(seeded(make) for make in (random_sparse_tensor, boosted_diagonal_tensor, near_boundary_z_tensor)),
                 *(seeded(make).map(integral) for make in (random_sparse_tensor, near_boundary_z_tensor))))
@example(build_tensor(2, 2, ENTRIES_HUGE_DIAGONAL))
@example(build_tensor(8, 2, ENTRIES_SUBNORMAL_CHAIN))
@example(build_tensor(2, 3, near_singular_cycle(2e-12)))
@example(build_tensor(2, 3, near_singular_cycle(3e-12)))
def test_cascade_rules_and_residuals_follow_the_tensor(t):
    G = generated_matrix(t)
    cert = certify_h_tensor(t)
    degenerate = bool(np.any(G.diag_abs <= G.s_diag))
    assert (cert.rule == "SDD") == (not degenerate and tensor_dd(t).kind == "SDD")
    if cert.rule == "IrreducibleDD":
        assert is_weakly_chained_dd(t)
    if cert.scaling is not None:
        y, m = cert.scaling, t.order
        for i, res in enumerate(cert.residuals):
            lead, off = G.diag_abs[i] * y[i] ** (m - 1), off_diagonal_mass(t, i, y)
            assert abs(res - (lead - off)) <= 1e-12 * max(lead, off), (i, res, lead, off)


@st.composite
def integer_tensors(draw):
    """An integer tensor of order 2-5 and dimension 1-5, drawn constant on each set of
    indices, on each sorted tuple or on each tuple, with at most one entry then bumped."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    key = draw(st.sampled_from([frozenset, lambda tup: tuple(sorted(tup)), tuple]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values, A = {}, np.zeros((n,) * m)
    for tup in itertools.product(range(n), repeat=m):
        A[tup] = values.setdefault(key(tup), int(rng.integers(-2, 3)))
    if draw(st.booleans()):
        A[tuple(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))] += 1
    return DenseTensor(A)


def reference_symmetry(A):
    """Constant on each set of indices is strongly symmetric; else equal to its sorted
    tuple everywhere is symmetric."""
    tuples = list(itertools.product(range(len(A)), repeat=A.ndim))
    classes = {}
    for tup in tuples:
        classes.setdefault(frozenset(tup), set()).add(A[tup])
    if all(len(v) == 1 for v in classes.values()):
        return "strongly_symmetric"
    return "symmetric" if all(A[tup] == A[tuple(sorted(tup))] for tup in tuples) else "none"


@PROPERTY_SETTINGS
@given(integer_tensors(), st.randoms(use_true_random=False), st.integers(-60, 60))
def test_symmetry_class_matches_the_index_set_reference(t, random, k):
    verdict = classify_symmetry(t)
    assert verdict == reference_symmetry(t.entries)
    perm = list(range(t.dim))
    random.shuffle(perm)
    assert classify_symmetry(relabel(t, perm)) == verdict
    assert classify_symmetry(DenseTensor(np.ldexp(t.entries, k))) == verdict


@st.composite
def entry_lists(draw):
    """A tensor JSON object of order 2-6 listing distinct tuples, among them explicit zeros
    and -0.0 on and off the diagonal, and sometimes symmetrized with one listed tuple per
    class; half of them list every diagonal tuple with a value up to 1e5, so that the
    cascade certifies some."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, {2: 6, 3: 5, 4: 4}.get(m, 3)))
    zero = st.sampled_from([0.0, -0.0])
    value = st.one_of(zero, st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
    entries = {tuple(int(k) + 1 for k in np.unravel_index(p, (n,) * m)): draw(value)
               for p in sorted(draw(st.sets(st.integers(0, n ** m - 1), max_size=40)))}
    if draw(st.booleans()):
        entries.update({(i,) * m: draw(st.floats(1.0, 1e5)) for i in range(1, n + 1)})
    if draw(st.booleans()):
        entries[(draw(st.integers(1, n)),) * m] = draw(zero)
    if n > 1 and draw(st.booleans()):
        entries[tuple(draw(st.permutations([1, 2] + [draw(st.integers(1, n)) for _ in range(m - 2)])))] = draw(zero)
    symmetrize = draw(st.booleans())
    if symmetrize:
        classes = {}
        for tup, v in entries.items():
            classes.setdefault(tuple(sorted(tup)), (tup, v))
        entries = dict(classes.values())
    return {"order": m, "dim": n, "symmetrize": symmetrize,
            "entries": [{"idx": list(tup), "val": v} for tup, v in entries.items()]}


@PROPERTY_SETTINGS
@given(entry_lists())
def test_record_from_the_nonzeros_matches_the_dense_walk(obj):
    t = tensor_from_json(obj)
    G, D = generated_matrix(t), generated_matrix(DenseTensor(t.entries))
    # the stored list keeps its listed zeros: the record is the one of the list without them, bit for bit
    u = tensor_from_json(dict(obj, entries=[e for e in obj["entries"] if e["val"] != 0.0]))
    for field in ("data", "diag_abs", "S", "s_diag", "P", "Q", "r", "edges"):
        assert getattr(G, field).tobytes() == getattr(generated_matrix(u), field).tobytes(), field
    got, want = certify_h_tensor(t), certify_h_tensor(u)
    assert (got.verdict, got.rule, got.gamma, got.note) == (want.verdict, want.rule, want.gamma, want.note)
    for a, b in ((got.scaling, want.scaling), (got.residuals, want.residuals)):
        assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes())
    # k: a row's terms, each counted once per trailing position, and the n sums of P and Q
    nz = np.argwhere(t.entries != 0.0)
    nz = nz[(nz != nz[:, :1]).any(axis=1)]
    tol = ((t.order - 1) * np.bincount(nz[:, 0], minlength=t.dim) + t.dim) * np.finfo(float).eps
    for got, want, rel in ((G.r, D.r, tol), (G.S, D.S, tol[:, None]), (G.P, D.P, tol), (G.Q, D.Q, tol.max())):
        assert np.all(np.abs(got - want) <= rel * np.abs(want))
    assert np.all(np.abs(G.data - D.data) <= tol[:, None] * (G.S + np.diag(G.diag_abs)))
    assert np.array_equal(G.edges, D.edges) and G.diagonal.tobytes() == D.diagonal.tobytes()


@PROPERTY_SETTINGS
@given(entry_lists(), st.randoms(use_true_random=False))
def test_record_and_certificate_ignore_the_listing_order(obj, random):
    t = tensor_from_json(obj)
    u = tensor_from_json(dict(obj, entries=random.sample(obj["entries"], len(obj["entries"]))))
    G, H = generated_matrix(t), generated_matrix(u)
    for field in ("data", "diagonal", "S", "P", "Q", "r", "edges"):
        assert getattr(G, field).tobytes() == getattr(H, field).tobytes(), field
    got, want = certify_h_tensor(u), certify_h_tensor(t)
    assert (got.verdict, got.rule, got.gamma, got.note) == (want.verdict, want.rule, want.gamma, want.note)
    for a, b in ((got.scaling, want.scaling), (got.residuals, want.residuals)):
        assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes())


@st.composite
def dim2_tensors(draw):
    """A dimension-2 tensor of order 2-10 at one of seven scales, 1e-300 to 1e300: entries
    U(-1, 1) at density 0.3, 0.6 or 1, a fifth of them rounded to integers, sometimes
    with a_{12...2} = 0 or a_{22...2} = -0.0, and sometimes a degenerate pencil (lambda
    on the diagonal, plus v and -v at two trailing tuples with one 2 in each row)."""
    m = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 9)) == 0:
        rows = np.zeros((2, 2 ** (m - 1)))
        rows[0, 0] = rows[1, -1] = rng.uniform(-2, 2)
        if m >= 3:
            v = rng.uniform(-1, 1, 2)
            rows[:, 1], rows[:, 2] = v, -v
    else:
        rows = rng.uniform(-1, 1, (2, 2 ** (m - 1))) * (rng.random((2, 2 ** (m - 1))) < draw(st.sampled_from([0.3, 0.6, 1.0])))
        if draw(st.integers(0, 4)) == 0:
            rows = np.round(4 * rows)
        if draw(st.integers(0, 4)) == 0:
            rows[0, -1] = 0.0
        if draw(st.integers(0, 4)) == 0:
            rows[1, -1] = -0.0
    scale = draw(st.sampled_from([1.0, 2.0 ** -30, 1e-300, 1e-20, 1e8, 2.0 ** 40, 1e300]))
    return DenseTensor((scale * rows).reshape((2,) * m))


def exact_2d_outcome(oracle, t):
    """The pairs' values, residuals and vectors as bytes, or the error raised."""
    try:
        pairs = oracle(t)
    except TgmatError as exc:
        return type(exc), str(exc)
    return [(np.float64(p.value).tobytes(), np.float64(p.residual).tobytes(), p.vector.tobytes()) for p in pairs]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(dim2_tensors())
@example(build_tensor(4, 2, ENTRIES_42))
def test_exact_2d_matches_the_tuple_by_tuple_reference(t):
    assert exact_2d_outcome(h_eigen_exact_2d, t) == exact_2d_outcome(reference_exact_2d, t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dim2_tensors(), st.sampled_from([-200, -30, -1, 1, 40, 200]))
@example(build_tensor(4, 2, ENTRIES_42), -30)
def test_exact_2d_scales_with_a_power_of_two(t, k):
    with np.errstate(over="ignore"):
        scaled = np.ldexp(t.entries, k)
    # the scaling must be exact on the entries, and both largest |a| at least 2^-900, so
    # that no residual's rounding falls into the subnormal range
    assume(np.isfinite(scaled).all() and np.array_equal(np.ldexp(scaled, -k), t.entries))
    assume(min(np.max(np.abs(t.entries)), np.max(np.abs(scaled))) >= 2.0 ** -900)
    want = exact_2d_outcome(h_eigen_exact_2d, t)
    if isinstance(want, list):
        want = [(np.ldexp(np.frombuffer(v), k).tobytes(), np.ldexp(np.frombuffer(r), k).tobytes(), x)
                for v, r, x in want]
    assert exact_2d_outcome(h_eigen_exact_2d, DenseTensor(scaled)) == want


@st.composite
def spin_states(draw):
    """Pure, basis (Dicke), random mixed and coherent-mixture states, and diagonal
    states with one off-diagonal pair between 1e-200 and 1e-320, for 2j = 2..8."""
    m = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["pure", "basis", "mixed", "coherent", "tiny_pair"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = m + 1
    if kind == "coherent":
        k = int(rng.integers(1, 5))
        w = rng.uniform(0.1, 1.0, k)
        return classical_mixture(m, w / w.sum(), zip(rng.uniform(0.0, np.pi, k), rng.uniform(0.0, 2.0 * np.pi, k)))
    if kind == "pure":
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
    elif kind == "basis":
        rho = np.diag(np.eye(d)[int(rng.integers(d))])
    elif kind == "mixed":
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = G @ G.conj().T
        rho = rho / np.trace(rho)
    else:
        w = rng.uniform(0.0, 1.0, d)
        rho = np.diag(w / w.sum()).astype(complex)
        i, j = rng.choice(d, 2, replace=False)
        rho[i, j] = 10.0 ** -rng.uniform(200, 320) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        rho[j, i] = np.conj(rho[i, j])
    return spin_state(m, rho)


def same_bits(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spin_states())
def test_spin_maps_match_the_tensordot_references(state):
    A = coefficient_tensor(state)
    assert same_bits(A.entries, reference_coefficient_tensor(state).entries)
    # the identities coefficient_tensor takes from a validated state without a run-time check
    assert abs(A.entries[(0,) * state.m] - 1) <= 1e-10
    assert np.abs(A.entries).max() <= 1 + 1e-9
    assert classify_symmetry(A) != "none"
    assert same_bits(reconstruct_state(A).rho, reference_reconstruct(A).rho)
