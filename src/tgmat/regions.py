"""H-eigenvalue inclusion regions as membership predicates on the plane.

Every region is a closed subset of the complex plane built from the row
statistics of a tensor: the signed diagonal entries as centers, the s_ii
corrections, and the deleted row/column sums P and Q of the generated
matrix.  Membership follows the exact negation used to prove each set:
a point is excluded only when every bracket that the proof needs is
strictly positive and the product inequality fails, so boundary points and
degenerate brackets are always included.

The pair kinds test every index pair (i, j) at once: ``build_region``
stores the pair index arrays with the z-independent offsets and right-hand
sides, and membership broadcasts one test over (points, pairs) for each
fixed-size chunk of points.

Real-axis bounds are closed-form: a disc reaches a_i -+ (s_ii + radius_i),
and a pair the roots of a quadratic.  Each end is rounded outward by a bound
on its floating-point error, so the interval holds every real member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import tensor as tz
from .compare import gt, leq
from .errors import BadGrid, BadSubset, GammaOutOfRange, WrongDimension

__all__ = ["Region", "RealBounds", "KINDS", "build_region", "membership", "real_bounds", "grid_sample"]

KINDS = ("gershgorin", "cassini", "ostrowski", "gammamix", "stype", "ssingleton")

_PAIR_KINDS = ("cassini", "stype", "ssingleton")

# points x max(n, pairs) numbers in one chunk's temporaries
_CHUNK_ELEMENTS = 2 ** 13


class _PairTest(NamedTuple):
    """The z-independent parts of a pair kind's exclusion test.

    Pair k (0-based rows ``i[k]``, ``j[k]``) excludes z when the brackets
    b_i = f_i(z) - ``off_i[k]`` and b_j = f_j(z) - ``off_j[k]`` are both
    strictly positive and b_i * b_j strictly exceeds ``rhs[k]``.
    """

    i: np.ndarray
    j: np.ndarray
    off_i: np.ndarray
    off_j: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class Region:
    """One inclusion region of one tensor, with every part of its test that does not depend on z.

    ``stats`` is the tensor's generated-matrix record.  ``radius`` is the
    per-row disc radius of the disc kinds; ``rS`` is each P_i's mass on the
    subset S for 'stype', the radius of its S-discs.  ``pairs`` holds the
    pair test of the pair kinds.
    """

    kind: str
    stats: tz.GeneratedMatrix
    gamma: Optional[float] = None
    subset: Optional[tuple[int, ...]] = None  # 1-based, sorted
    radius: Optional[np.ndarray] = None
    rS: Optional[np.ndarray] = None
    pairs: Optional[_PairTest] = None


@dataclass(frozen=True)
class RealBounds:
    lower: float
    upper: float


def build_region(t: tz.DenseTensor, kind: str, gamma: Optional[float] = None,
                 subset=None) -> Region:
    """Build a region of the given kind for a tensor.

    ``gamma`` is required in [0, 1] for 'ostrowski' and 'gammamix';
    ``subset`` is a nonempty proper subset of 1..n for 'stype'.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown region kind {kind!r}")
    n = t.dim
    if kind in _PAIR_KINDS and n < 2:
        raise WrongDimension(f"{kind} region needs dimension >= 2")
    if kind in ("ostrowski", "gammamix"):
        if gamma is None or not 0.0 <= gamma <= 1.0:
            raise GammaOutOfRange(f"{kind} needs gamma in [0, 1], got {gamma}")
    else:
        gamma = None
    sub = None
    if kind == "stype":
        if subset is None:
            raise BadSubset("stype needs a subset")
        sub = tuple(sorted(set(int(i) for i in subset)))
        if not sub or len(sub) >= n or any(not 1 <= i <= n for i in sub):
            raise BadSubset(f"subset {subset} is not a nonempty proper subset of 1..{n}")
    G = tz.generated_matrix(t)
    P, Q, S = G.P, G.Q, G.S
    radius = rS = pairs = None
    if kind == "gershgorin":
        radius = P
    elif kind == "ostrowski":
        radius = tz.product_radius(P, Q, gamma)
    elif kind == "gammamix":
        radius = tz.mixed_radius(P, Q, gamma)
    elif kind == "cassini":
        I, J = np.triu_indices(n, 1)
        zero = np.zeros(len(I))
        pairs = _PairTest(I, J, zero, zero, P[I] * P[J])
    elif kind == "stype":
        sub0 = [i - 1 for i in sub]
        comp0 = [j for j in range(n) if j + 1 not in sub]
        rS = np.array([S[i, sub0].sum() - (S[i, i] if i in sub0 else 0.0) for i in range(n)])
        rC = P - rS
        I, J = np.repeat(sub0, len(comp0)), np.tile(comp0, len(sub0))
        pairs = _PairTest(I, J, rS[I], rC[J], rC[I] * rS[J])
    elif kind == "ssingleton":
        I, J = np.nonzero(~np.eye(n, dtype=bool))
        pairs = _PairTest(I, J, np.zeros(len(I)), P[J] - S[J, I], P[I] * S[J, I])
    return Region(kind, G, gamma, sub, radius, rS, pairs)


def membership(region: Region, z) -> bool | np.ndarray:
    """Whether z (scalar or array of complex) belongs to the region, tested in fixed-size chunks of points."""
    za = np.asarray(z, dtype=complex)
    flat = za.ravel()
    G, pairs = region.stats, region.pairs
    test = _disc_test if pairs is None else _annulus_test if region.kind == "stype" else _pair_test
    step = max(1, _CHUNK_ELEMENTS // max(G.dim, len(pairs.i) if pairs else 0))
    member = np.empty(flat.shape, dtype=bool)
    for s in range(0, len(flat), step):
        # f_i(z) = |z - a_{i...i}| - s_ii, shape (points, n)
        f = np.abs(flat[s:s + step, None] - G.diagonal) - G.s_diag
        member[s:s + step] = test(region, f)
    return bool(member[0]) if za.ndim == 0 else member.reshape(za.shape)


def _disc_test(region: Region, f: np.ndarray) -> np.ndarray:
    return leq(f, region.radius).any(axis=-1)


def _pair_test(region: Region, f: np.ndarray) -> np.ndarray:
    I, J, off_i, off_j, rhs = region.pairs
    bi = f[:, I] - off_i
    bj = f[:, J] - off_j
    # far from the tensor's scale bi * bj may overflow; it counts only where both
    # brackets are positive, and there +inf beats every finite rhs, as it should
    with np.errstate(over="ignore"):
        excluded = gt(bi, 0.0) & gt(bj, 0.0) & gt(bi * bj, rhs)
    return ~excluded.all(axis=-1)


def _annulus_test(region: Region, f: np.ndarray) -> np.ndarray:
    # For the split-sum kinds the outer absolute value |f| widens the member
    # side (annular components), but a point may be EXCLUDED only when the
    # signed brackets f are positive: the exclusion argument runs through
    # strict dominance of the shifted tensor's generated matrix, whose
    # diagonal is f itself, so a negative f with large |f| proves nothing.
    # With f > 0 the two bracket forms coincide.
    sub0 = [i - 1 for i in region.subset]
    return leq(np.abs(f[:, sub0]), region.rS[sub0]).any(axis=-1) | _pair_test(region, f)


def real_bounds(region: Region) -> RealBounds:
    """Smallest and largest real member, in closed form and rounded outward.

    With u = a_i - (s_ii + off_i) and v = a_j - (s_jj + off_j), the brackets
    obey b_i >= u - x and b_j >= v - x, so a pair excludes every x left of
    the smaller root of (u - x)(v - x) = rhs; with offsets >= 0 the root is
    a member.  A negative rhs excludes the same points as 0.  A disc
    f_i <= radius_i is the pair (i, i) with both offsets the radius and rhs
    0.  The S-annuli |f_i| <= rS_i of 'stype' reach no further than its
    pairs: pair (i, j) has u = a_i - s_ii - rS_i, the annulus's own lower
    end.  The upper end is the lower end of the region mirrored at 0, which
    negates every center.
    """
    G, pairs = region.stats, region.pairs
    if pairs is None:
        rows = np.arange(G.dim)
        pairs = _PairTest(rows, rows, region.radius, region.radius, np.zeros(G.dim))
    I, J, off_i, off_j, rhs = pairs
    a, s = np.stack([G.diagonal, -G.diagonal]), G.s_diag  # the region and its mirror image
    u = a[:, I] - (s[I] + off_i)
    v = a[:, J] - (s[J] + off_j)
    h = np.hypot(u - v, 2.0 * np.sqrt(np.maximum(rhs, 0.0)))
    # Error of the root, with eps = 2 * unit roundoff, the stored values exact
    # and M = sum of |a| + s + |off| over both rows: u and v are off by eps M,
    # u - v and u + v by 1.5 eps M, 2 sqrt(rhs) by eps / 2 of itself.  hypot is
    # 1-Lipschitz per argument and within one ulp, so h is off by 1.5 eps
    # (M + h); the difference adds eps / 2 (M + h) and the halving is exact,
    # leaving 1.75 eps M + eps h.  The root is at most (M + h) / 2 in size, so
    # subtracting err rounds by about eps / 4 (M + h).  3 eps (M + h) covers
    # all of it, the second-order terms and the rounding of err itself.  In the
    # subnormal range hypot, the halving and err add at most 2.5 * 2**-1074,
    # covered by 2**-1072; that term is smaller only when M + h is, and then
    # every step is exact.
    size = np.abs(a[:, I]) + s[I] + np.abs(off_i) + np.abs(a[:, J]) + s[J] + np.abs(off_j) + h
    err = 3.0 * np.finfo(float).eps * size + np.minimum(size, 2.0 ** -1072)
    lower, mirrored = np.min(0.5 * ((u + v) - h) - err, axis=1)
    return RealBounds(float(lower), -float(mirrored))


def grid_sample(region: Region, re_range, im_range, nx: int, ny: int):
    """The grid's real axis, its imaginary axis and the (nx, ny) boolean member matrix."""
    try:
        re0, re1 = (float(v) for v in re_range)
        im0, im1 = (float(v) for v in im_range)
    except (TypeError, ValueError):
        raise BadGrid("ranges must be (low, high) pairs")
    if nx < 2 or ny < 2:
        raise BadGrid("grid needs nx >= 2 and ny >= 2")
    if nx * ny > tz.MAX_ENTRIES:
        raise BadGrid(f"a grid of {nx} x {ny} points is larger than the limit of {tz.MAX_ENTRIES}")
    # a finite width has finite ends; a width that overflows would give nan axes
    if not (np.isfinite(re1 - re0) and np.isfinite(im1 - im0)) or re1 < re0 or im1 < im0:
        raise BadGrid("grid ranges need low <= high and a finite width high - low")
    res = np.linspace(re0, re1, nx)
    ims = np.linspace(im0, im1, ny)
    return res, ims, membership(region, res[:, None] + 1j * ims)
