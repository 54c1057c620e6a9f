"""Shared fixtures: the two demo tensors, random tensor generators and reference implementations."""

import itertools

import numpy as np
import pytest

from tgmat.compare import gt, leq
from tgmat.errors import ComplexDiagonal, DuplicateEntry, IndexOutOfRange, NonFiniteValue, TgmatError, WrongDimension
from tgmat.oracle import _dedupe, _finish_pair
from tgmat.regions import RealBounds
from tgmat.spin import PAULI, dicke_isometry, spin_state
from tgmat.tensor import DenseTensor, _check_size, build_tensor, contract, generated_matrix

# order 4, dimension 2; generated matrix [[3, 3], [3, 4]]
ENTRIES_42 = {
    (1, 1, 1, 1): 7, (1, 1, 1, 2): -2, (1, 1, 2, 1): -2, (1, 2, 1, 1): -2,
    (2, 1, 1, 1): -2, (2, 2, 2, 2): 6, (2, 2, 2, 1): -1, (2, 2, 1, 2): -1,
    (2, 1, 2, 2): -1, (1, 2, 2, 2): -1,
}

# order 4, dimension 4; thirty-one nonzero entries
ENTRIES_44 = {
    (1, 1, 1, 1): 10, (2, 2, 2, 2): 8, (3, 3, 3, 3): 7, (4, 4, 4, 4): 5,
    (1, 3, 3, 3): 1, (1, 4, 4, 4): 1, (1, 2, 1, 1): 1, (1, 1, 1, 3): 1, (1, 1, 4, 1): 1,
    (1, 3, 3, 2): 1, (1, 4, 4, 2): 1, (1, 2, 3, 2): 1, (1, 2, 3, 4): 1, (1, 3, 2, 1): 1,
    (1, 2, 1, 4): 1,
    (2, 3, 3, 3): 1, (2, 4, 4, 4): 1, (2, 1, 1, 2): 1, (2, 2, 3, 4): 1, (2, 1, 1, 3): 1,
    (2, 3, 4, 3): 1, (2, 1, 2, 3): 1,
    (3, 2, 2, 2): 1, (3, 1, 1, 1): 1, (3, 1, 2, 1): 1, (3, 4, 3, 4): 1, (3, 1, 2, 3): 1,
    (4, 2, 2, 2): 1, (4, 1, 1, 1): 1, (4, 1, 2, 1): 1, (4, 3, 3, 4): 1,
}

# order 3, dimension 3; in row 1, s_11 = 1e16 and s_13 = 1 have the float sum 1e16,
# so the stype split sum of S = {1, 3} is 0 when s_11 is subtracted from that sum
ENTRIES_STYPE_CANCEL = {
    (1, 1, 1): 1e16, (1, 1, 2): 2e16, (1, 3, 3): 1, (2, 1, 1): 1, (3, 2, 2): 1,
    (2, 2, 2): 3e16, (3, 3, 3): 5e16,
}

# order 2, dimension 2; SDD with diagonal moduli near the largest float, so twice
# |a_ii| y_i^(m-1) overflows where |a_ii| y_i^(m-1) less the off-diagonal mass does not
ENTRIES_HUGE_DIAGONAL = {(1, 1): 1e308, (1, 2): 1e160, (2, 1): 1e160, (2, 2): 1e308}

# order 22, dimension 2; four entries, loaded as a 2^22-entry (32 MB) dense array
ENTRIES_ORDER_22 = {(1,) * 22: 2.0, (2,) * 22: 3.0, (1,) + (2,) * 21: 0.5, (2,) + (1,) * 21: 0.25}

# order 8, dimension 2; |a_1...1| = r_1 = 5e-324 and s_11 rounds up to r_1, so row 1 is
# degenerate, dominant with equality and has an edge to the strict row 2 (s_12 underflows)
ENTRIES_SUBNORMAL_CHAIN = {(1,) * 8: 5e-324, (1,) * 7 + (2,): 5e-324, (2,) * 8: 1.0}


def near_singular_cycle(delta):
    """The 3 x 3 matrix [[1, -(1 - delta), 0], [0, 1, -1], [-1, 0, 1]] as an order-2 entry dict.

    It is dominant, irreducible and strict only in row 1, by delta: at delta = 2e-12
    the H-matrix solve's scaling fails the strict re-check, at 3e-12 it passes.
    """
    return {(1, 1): 1.0, (1, 2): -(1.0 - delta), (2, 2): 1.0, (2, 3): -1.0, (3, 1): -1.0, (3, 3): 1.0}


# the matrix the 4x4 tensor generates, row by row
GEN_44 = np.array([
    [10 - 8 / 3, 8 / 3, 3, 8 / 3],
    [5 / 3, 7, 8 / 3, 5 / 3],
    [2, 5 / 3, 7 - 2 / 3, 2 / 3],
    [5 / 3, 4 / 3, 2 / 3, 5 - 1 / 3],
])


@pytest.fixture(scope="session")
def t42():
    return build_tensor(4, 2, ENTRIES_42)


@pytest.fixture(scope="session")
def t44():
    return build_tensor(4, 4, ENTRIES_44)


def random_sparse_tensor(rng, order=None, dim=None, integer=False, scale=3.0):
    """Random sparse tensor, order 2..4 and dimension 2..5 by default."""
    m = int(order if order is not None else rng.integers(2, 5))
    n = int(dim if dim is not None else rng.integers(2, 6))
    total = n ** m
    nnz = int(rng.integers(1, max(2, total // 2) + 1))
    flat = rng.choice(total, size=min(nnz, total), replace=False)
    arr = np.zeros(total)
    if integer:
        vals = rng.integers(-int(scale), int(scale) + 1, size=len(flat)).astype(float)
    else:
        vals = rng.uniform(-scale, scale, size=len(flat))
    arr[flat] = vals
    return DenseTensor(arr.reshape((n,) * m))


def random_strongly_symmetric_tensor(rng, order=None, dim=None, integer=True, scale=3.0):
    """Random tensor constant on each similarity class of index sets."""
    m = int(order if order is not None else rng.integers(2, 5))
    n = int(dim if dim is not None else rng.integers(2, 5))
    arr = np.zeros((n,) * m)
    values = {}
    for tup in np.ndindex(*arr.shape):
        key = frozenset(tup)
        if key not in values:
            if integer:
                values[key] = float(rng.integers(-int(scale), int(scale) + 1))
            else:
                values[key] = float(rng.uniform(-scale, scale))
        arr[tup] = values[key]
    return DenseTensor(arr)


def boosted_diagonal_tensor(rng, order=None, dim=None, margin_low=0.1, margin_high=2.0):
    """Random tensor whose generated matrix is strictly diagonally dominant."""
    m = int(order if order is not None else rng.integers(2, 5))
    n = int(dim if dim is not None else rng.integers(2, 6))
    t = random_sparse_tensor(rng, order=m, dim=n)
    arr = t.entries.copy()
    for i in range(n):
        arr[(i,) * m] = 0.0
    t0 = DenseTensor(arr.copy())
    S = generated_matrix(t0).S
    for i in range(n):
        radius = S[i].sum()  # s_ii + P_i of the zero-diagonal tensor
        sign = -1.0 if rng.random() < 0.3 else 1.0
        arr[(i,) * m] = sign * (radius + rng.uniform(margin_low, margin_high))
    return DenseTensor(arr)


def near_boundary_z_tensor(rng):
    """Random Z-tensor whose diagonal sits near the dominance boundary.

    Off-diagonal entries are -|a| of a ``random_sparse_tensor``; with r_i the
    deleted absolute row sum, a_i...i = r_i u_i + v_i for u_i ~ U(0.3, 1.3)
    and v_i ~ U(0, 0.2).
    """
    t = random_sparse_tensor(rng)
    m, n = t.order, t.dim
    arr = -np.abs(t.entries)
    diag = (np.arange(n),) * m
    arr[diag] = 0.0
    r = -arr.reshape(n, -1).sum(axis=1)
    u = rng.uniform(0.3, 1.3, n)
    v = rng.uniform(0.0, 0.2, n)
    arr[diag] = r * u + v
    return DenseTensor(arr)


def count_row_passes(monkeypatch):
    """Record every call of the row pass that builds a tensor's statistics; returns the list of calls."""
    import tgmat.tensor as tz

    calls = []
    row_pass = tz._row_pass
    monkeypatch.setattr(tz, "_row_pass", lambda t: calls.append(t) or row_pass(t))
    return calls


def brute_s_stat(t, i, j):
    """Triple-loop definition of s_ij, independent of the vectorised path."""
    m, n = t.order, t.dim
    total = 0.0
    for tup in itertools.product(range(n), repeat=m - 1):
        full = (i,) + tup
        if full == (i,) * m:
            continue
        count = sum(1 for k in tup if k == j)
        if count:
            total += abs(t.entries[full]) * count
    return total / (m - 1)


def brute_row_sum(t, i):
    m, n = t.order, t.dim
    total = 0.0
    for tup in itertools.product(range(n), repeat=m - 1):
        full = (i,) + tup
        if full == (i,) * m:
            continue
        total += abs(t.entries[full])
    return total


def brute_representation(t, i, j):
    m, n = t.order, t.dim
    total = 0.0
    for tup in itertools.product(range(n), repeat=m - 1):
        if j in tup:
            total += abs(t.entries[(i,) + tup])
    return total


def reference_build_tensor(order, dim, entries):
    """Entry-by-entry builder: the loader's checks and writes done one pair at a time, in list order."""
    if order < 2:
        raise TgmatError("order must be at least 2")
    if dim < 1:
        raise TgmatError("dim must be at least 1")
    _check_size(order, dim)
    arr = np.zeros((dim,) * order)
    seen = set()
    for idx, val in entries.items() if hasattr(entries, "items") else entries:
        idx = tuple(int(k) for k in idx)
        if len(idx) != order:
            raise IndexOutOfRange(f"index tuple {idx} does not have {order} components")
        if any(not 1 <= k <= dim for k in idx):
            raise IndexOutOfRange(f"index tuple {idx} outside 1..{dim}")
        if idx in seen:
            raise DuplicateEntry(f"index tuple {idx} listed twice")
        seen.add(idx)
        val = float(val)
        if not np.isfinite(val):
            raise NonFiniteValue(f"entry {idx} is not finite")
        arr[tuple(k - 1 for k in idx)] = val
    return DenseTensor(arr)


def reference_tensor_from_json(obj):
    """Entry-by-entry parse of the tensor JSON format, for inputs whose integer fields are integers."""
    order, dim = int(obj["order"]), int(obj["dim"])
    pairs = []
    for pos, item in enumerate(obj["entries"]):
        idx, raw = tuple(int(k) for k in item["idx"]), item["val"]
        if len(idx) != order:
            raise IndexOutOfRange(f"entry #{pos}: idx {list(idx)} does not have {order} components")
        if isinstance(raw, bool) or isinstance(raw, list) and any(isinstance(v, bool) for v in raw):
            raise TgmatError(f"entry {idx}: value must be a number or an [re, im] pair, not a boolean")
        if isinstance(raw, list):
            re, im = float(raw[0]), float(raw[1])
            if im != 0.0 and len(set(idx)) == 1:
                raise ComplexDiagonal(f"diagonal entry {idx} must be real")
            raw = re if im == 0.0 else abs(complex(re, im))
        pairs.append((idx, float(raw)))
    if obj.get("symmetrize"):
        canon = {}
        for idx, val in pairs:
            key = tuple(sorted(idx))
            if key in canon and canon[key] != val:
                raise DuplicateEntry(f"conflicting symmetrized values for tuple class {key}")
            canon[key] = val
        pairs = [(perm, val) for key, val in canon.items() for perm in set(itertools.permutations(key))]
    return reference_build_tensor(order, dim, pairs)


def reference_real_bounds(region):
    """One region's real bounds, the closed form evaluated on that region alone.

    The per-region body ``real_bounds`` had before it took lists, with the
    root and M + h formed from halves as the kernel forms them now: the same
    elementwise steps, so the batched kernel must match it bit for bit.
    """
    G, pairs = region.stats, region.pairs
    if pairs is None:
        rows = np.arange(G.dim)
        pairs = (rows, rows, region.radius, region.radius, np.zeros(G.dim))
    I, J, off_i, off_j, rhs = pairs
    a, s = np.stack([G.diagonal, -G.diagonal]), G.s_diag
    u = a[:, I] - (s[I] + off_i)
    v = a[:, J] - (s[J] + off_j)
    h = np.hypot(u - v, 2.0 * np.sqrt(np.maximum(rhs, 0.0)))
    size = np.abs(a[:, I]) + s[I] + np.abs(off_i) + np.abs(a[:, J]) + s[J] + np.abs(off_j) + h
    half = (0.5 * np.abs(a[:, I]) + 0.5 * s[I] + 0.5 * np.abs(off_i)
            + 0.5 * np.abs(a[:, J]) + 0.5 * s[J] + 0.5 * np.abs(off_j) + 0.5 * h)
    err = 6.0 * np.finfo(float).eps * half + np.minimum(size, 2.0 ** -1072)
    lower, mirrored = np.min((0.5 * u + 0.5 * v - 0.5 * h) - err, axis=1)
    return RealBounds(float(lower), -float(mirrored))


def stype_split_sums(region):
    """rS_i, the mass of P_i on the subset S of an 'stype' region, summed as ``build_region`` sums it."""
    G = region.stats
    member = np.zeros(G.dim, dtype=bool)
    member[[i - 1 for i in region.subset]] = True
    return np.where(member & ~np.eye(G.dim, dtype=bool), G.S, 0.0).sum(axis=1)


def reference_annulus_membership(region, z):
    """'stype' membership as the union of its S-discs and its pair ovals, z a 1-D array.

    The test ``membership`` had before 'stype' became its pairs alone: a
    point is a member when |f_i| <= rS_i (closed, with the shared margin)
    for some i in S, or when no pair (i, j), i in S and j outside it,
    excludes it.  ``membership`` may drop only points just outside an
    S-disc's outer circle.
    """
    G = region.stats
    sub0 = np.array(region.subset) - 1
    comp0 = np.setdiff1d(np.arange(G.dim), sub0)
    rS = stype_split_sums(region)
    rC = G.P - rS
    f = np.abs(np.asarray(z, dtype=complex)[:, None] - G.diagonal) - G.s_diag
    discs = leq(np.abs(f[:, sub0]), rS[sub0]).any(axis=1)
    I, J = np.repeat(sub0, len(comp0)), np.tile(comp0, len(sub0))
    bi, bj = f[:, I] - rS[I], f[:, J] - rC[J]
    with np.errstate(over="ignore", invalid="ignore"):
        excluded = gt(bi, 0.0) & gt(bj, 0.0) & gt(bi * bj, rC[I] * rS[J])
    return discs | ~excluded.all(axis=1)


def reference_grid_text(res, ims, member):
    """The region-grid CSV for ``grid_sample``'s axes and member matrix, one row at a time.

    The formatter ``region-grid`` had before it picked each row's text from
    a list: the cells in a numpy unicode array, indexed by one integer array
    per row.  The command's output must match it byte for byte.
    """
    cells = np.array([f",{i:.9g},{b}" for i in ims.tolist() for b in (0, 1)])
    column = 2 * np.arange(len(ims))
    lines = ["re,im,member"]
    for r, row in zip(res.tolist(), member):
        text = f"{r:.9g}"
        lines.append(text + ("\n" + text).join(cells[column + row].tolist()))
    return "".join(line + "\n" for line in lines)


def reference_exact_2d(t):
    """The exact dimension-2 oracle one tuple and one root at a time.

    The body ``h_eigen_exact_2d`` had before it summed its coefficients with
    one bincount per row: each coefficient accumulated tuple by tuple in
    index order, each real root polished on its own, and the x = (0, 1)
    branch contracted from a scaled copy of the tensor, all in the unit 2^e
    of the largest |a|.  The array version must match it bit for bit.
    """
    if t.dim != 2:
        raise WrongDimension("exact oracle is limited to dimension 2")
    m = t.order
    amax = float(np.max(np.abs(t.entries)))
    e = int(np.frexp(amax)[1])
    ts = DenseTensor(np.ldexp(t.entries, -e))
    c1, c2 = np.zeros(m), np.zeros(m)
    for c, arr in ((c1, ts.entries[0]), (c2, ts.entries[1])):
        for tup in np.ndindex(*([2] * (m - 1))):
            c[sum(tup)] += arr[tup]
    p = np.zeros(2 * m - 1)
    p[: m] += c2
    p[m - 1 :] -= c1
    if np.max(np.abs(p)) <= 1e-14:
        ss = [0.0, 1.0, -1.0]
    else:
        ss = []
        dp = np.polyder(p[::-1])
        for r in np.roots(np.trim_zeros(p[::-1], "f")):
            if abs(r.imag) > 1e-7 * max(1.0, abs(r)):
                continue
            s = float(r.real)
            for _ in range(6):
                deriv = np.polyval(dp, s)
                if deriv == 0.0:
                    break
                s -= np.polyval(p[::-1], s) / deriv
            ss.append(s)
    cands = [(np.polyval(c1[::-1], s), np.array([1.0, s])) for s in ss]
    e2 = np.array([0.0, 1.0])
    w = contract(ts, e2)
    if abs(w[0]) <= 1e-12:
        cands.append((w[1], e2))
    with np.errstate(over="ignore"):
        lams = np.ldexp([v for v, _ in cands], e)
    if not np.isfinite(lams).all():
        raise NonFiniteValue("an H-eigenvalue is beyond the float range")
    pairs = [_finish_pair(t, float(lam), x, amax) for lam, (_, x) in zip(lams, cands)]
    return _dedupe([pair for pair in pairs if pair], np.ldexp(1e-7, e))


def reference_coefficient_tensor(state):
    """The coefficient map as one tensordot per site.

    The body ``coefficient_tensor`` had before it applied one 4 x 4 Pauli
    table site by site: the lift V rho V^H, then each site's (row, column)
    pair contracted against sigma_mu[c, r], with every axis reversed at the
    end.  The table version must match its real part bit for bit.
    """
    m = state.m
    V = dicke_isometry(m)
    T = (V @ state.rho @ V.conj().T).reshape((2,) * (2 * m))
    for p in range(m):
        r = m - p  # sites not yet absorbed
        T = np.tensordot(PAULI, T, axes=([2, 1], [p, p + r]))
    return DenseTensor(np.ascontiguousarray(np.transpose(T, tuple(range(m - 1, -1, -1))).real))


def reference_reconstruct(coeff):
    """The inverse map as one tensordot per site, regrouped from (b1, a1, ..., bm, am)."""
    m = coeff.order
    T = np.asarray(coeff.entries, dtype=complex)
    for _ in range(m):
        T = np.tensordot(T, PAULI, axes=([0], [0]))
    order = tuple(range(0, 2 * m, 2)) + tuple(range(1, 2 * m, 2))
    K = np.transpose(T, order).reshape(2 ** m, 2 ** m)
    V = dicke_isometry(m)
    return spin_state(m, V.conj().T @ K @ V / 2 ** m)
