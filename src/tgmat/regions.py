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
sides, and membership broadcasts one test over (pairs, points) for each
fixed-size chunk of points.  The points lie on the last, contiguous axis:
f is (n, points), the brackets are row gathers of f, and every reduction
runs over axis 0.  A point with a NaN part is a member of no region.

Real-axis bounds are closed-form: a disc reaches a_i -+ (s_ii + radius_i),
and a pair the roots of a quadratic.  Each end is rounded outward by a bound
on its floating-point error, so the interval holds every real member.  One
call evaluates the ends of any number of regions together.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import tensor as tz
from .compare import gt, leq, positive
from .errors import BadGrid, BadSubset, GammaOutOfRange, WrongDimension

__all__ = ["Region", "RealBounds", "KINDS", "build_region", "membership", "real_bounds", "grid_sample"]

KINDS = ("gershgorin", "cassini", "ostrowski", "gammamix", "stype", "ssingleton")

_PAIR_KINDS = ("cassini", "stype", "ssingleton")

_EPS = np.finfo(float).eps
_MIRROR = np.array([[1.0], [-1.0]])

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
    per-row disc radius of the disc kinds; ``pairs`` holds the pair test of
    the pair kinds.  The S-discs |f_i| <= rS_i of 'stype' (i in S, rS_i the
    mass of P_i on S) are not stored: pair (i, j) excludes z only when
    f_i - rS_i > 0, so every point of an S-disc is a member through the pairs
    of i, and 'stype' is its pairs alone.
    """

    kind: str
    stats: tz.GeneratedMatrix
    gamma: Optional[float] = None
    subset: Optional[tuple[int, ...]] = None  # 1-based, sorted
    radius: Optional[np.ndarray] = None
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
    radius = pairs = None
    if kind == "gershgorin":
        radius = P
    elif kind == "ostrowski":
        radius = tz.product_radius(P, Q, gamma)
    elif kind == "gammamix":
        radius = tz.mixed_radius(P, Q, gamma)
    elif kind == "cassini":
        rows = np.arange(n)
        I, J = np.nonzero(np.less.outer(rows, rows))
        off_i = off_j = np.zeros(len(I))
        x, y = P[I], P[J]
    elif kind == "stype":
        member = np.zeros(n, dtype=bool)
        member[[i - 1 for i in sub]] = True
        # s_ij summed over j in S, j != i, with no s_ii to subtract again
        rS = np.where(member & ~np.eye(n, dtype=bool), S, 0.0).sum(axis=1)
        rC = P - rS
        I, J = np.nonzero(np.logical_and.outer(member, ~member))
        off_i, off_j, x, y = rS[I], rC[J], rC[I], rS[J]
    elif kind == "ssingleton":
        I, J = np.nonzero(~np.eye(n, dtype=bool))
        s_ji = S[J, I]
        off_i, off_j, x, y = np.zeros(len(I)), P[J] - s_ji, P[I], s_ji
    if kind in _PAIR_KINDS:
        # a product of statistics above the square root of the largest float
        # overflows to inf, and an infinite rhs excludes no point
        with np.errstate(over="ignore"):
            pairs = _PairTest(I, J, off_i, off_j, x * y)
    return Region(kind, G, gamma, sub, radius, pairs)


def membership(region: Region, z) -> bool | np.ndarray:
    """Whether z (scalar or array of complex) belongs to the region, tested in fixed-size chunks of points.

    A point with a NaN part belongs to no region.
    """
    za = np.asarray(z, dtype=complex)
    flat = za.ravel()
    G, pairs = region.stats, region.pairs
    test = _disc_test(region.radius) if pairs is None else _pair_test(pairs)
    centre, s_diag = G.diagonal[:, None], G.s_diag[:, None]
    step = max(1, _CHUNK_ELEMENTS // max(G.dim, len(pairs.i) if pairs else 0))
    member = np.empty(flat.shape, dtype=bool)
    # a distance |z - a_i| beyond the float range overflows to inf, farther
    # than every finite radius and offset, as it should; for the overflows
    # and nans of the pair products see _pair_test
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, len(flat), step):
            # f_i(z) = |z - a_{i...i}| - s_ii, shape (n, points)
            f = np.abs(flat[s:s + step] - centre) - s_diag
            member[s:s + step] = test(f)
    member[np.isnan(flat)] = False
    return bool(member[0]) if za.ndim == 0 else member.reshape(za.shape)


def _disc_test(radius: np.ndarray):
    """The test of a disc kind on f of shape (n, points): f_i <= radius_i for some row i."""
    radius = radius[:, None]
    return lambda f: leq(f, radius).any(axis=0)


def _pair_test(pairs: _PairTest):
    """The test of a pair kind on f of shape (n, points): no pair excludes the point.

    A point is excluded only when the signed brackets are positive: the
    exclusion argument runs through strict dominance of the shifted tensor's
    generated matrix, whose diagonal is f itself, so a negative f with a
    large |f| proves nothing.  Far from the tensor's scale bi * bj may
    overflow; it counts only where both brackets are positive, and there
    +inf beats every finite rhs, as it should.  An infinite rhs, from
    statistics beyond sqrt of the largest float, excludes nothing: against
    it inf - inf is nan, and a nan margin test is False.  ``membership``
    runs the test with these warnings off.
    """
    I, J, off_i, off_j, rhs = pairs
    off_i, off_j, rhs = off_i[:, None], off_j[:, None], rhs[:, None]

    def test(f: np.ndarray) -> np.ndarray:
        # (pairs, points) brackets from row gathers of f
        bi = f[I] - off_i
        bj = f[J] - off_j
        excluded = positive(bi) & positive(bj) & gt(bi * bj, rhs)
        return ~excluded.all(axis=0)

    return test


def real_bounds(regions: Region | Sequence[Region]) -> RealBounds | list[RealBounds]:
    """Smallest and largest real member, in closed form and rounded outward.

    Takes one region and returns its ``RealBounds``, or a sequence of regions
    (of one tensor or of several) and returns a list of them, computed in one
    pass over every region's tests; one region is the one-element case.

    With u = a_i - (s_ii + off_i) and v = a_j - (s_jj + off_j), the brackets
    obey b_i >= u - x and b_j >= v - x, so a pair excludes every x left of
    the smaller root of (u - x)(v - x) = rhs; with offsets >= 0 the root is
    a member.  A negative rhs excludes the same points as 0, and an infinite
    one excludes nothing.  A disc f_i <= radius_i is the pair (i, i) with
    both offsets the radius and rhs 0.  'stype' is its pairs (see ``Region``).
    The upper end is the lower end of the region mirrored at 0, which negates
    every center.
    """
    single = isinstance(regions, Region)
    regions = [regions] if single else list(regions)
    if not regions:
        return []
    # every region's tests as pairs, with the centres and s_ii of its own record gathered
    tests = []
    for region in regions:
        G = region.stats
        if region.pairs is None:
            rows = np.arange(G.dim)
            I, J, off_i, off_j, rhs = rows, rows, region.radius, region.radius, np.zeros(G.dim)
        else:
            I, J, off_i, off_j, rhs = region.pairs
        tests.append((G.diagonal[I], G.diagonal[J], G.s_diag[I], G.s_diag[J], off_i, off_j, rhs))
    starts = np.cumsum([0] + [len(test[-1]) for test in tests[:-1]])
    dI, dJ, sI, sJ, off_i, off_j, rhs = (np.concatenate(column) for column in zip(*tests))
    aI, aJ = _MIRROR * dI, _MIRROR * dJ  # the regions and their mirror images, which negate every center
    # beyond the float range a sum or a root overflows to inf, or to nan as
    # inf - inf; either end then widens to the whole axis, which holds every member
    with np.errstate(over="ignore", invalid="ignore"):
        u = aI - (sI + off_i)
        v = aJ - (sJ + off_j)
        h = np.hypot(u - v, 2.0 * np.sqrt(np.maximum(rhs, 0.0)))
        # Error of the root, with eps = 2 * unit roundoff, the stored values exact
        # and M = sum of |a| + s + |off| over both rows: u and v are off by eps M,
        # u - v and u + v by 1.5 eps M, 2 sqrt(rhs) by eps / 2 of itself.  hypot is
        # 1-Lipschitz per argument and within one ulp, so h is off by 1.5 eps
        # (M + h); the difference adds eps / 2 (M + h), leaving 1.75 eps M + eps h.
        # The root is at most (M + h) / 2 in size, so subtracting err rounds by
        # about eps / 4 (M + h).  3 eps (M + h) covers all of it, the second-order
        # terms and the rounding of err itself.  The root and M + h are formed from
        # halves, which are exact in the float range: there they give the bits of
        # 0.5 ((u + v) - h) and of 3 eps (M + h), and they stay finite where u + v
        # or M + h would overflow, as for centres near 1e308.  In the subnormal
        # range hypot adds at most 2**-1074, each of the three halvings of the root
        # 2**-1075, and err and its subtraction 2**-1075 each, at most 3.5 * 2**-1074
        # in all, covered by 2**-1072.  That term is smaller only when M + h is,
        # below 4 * 2**-1074: then rhs is at most 0, u, v and h = |u - v| are exact, and the
        # root, off by at most 1.5 * 2**-1074 and a multiple of 2**-1074 like the
        # true root, is off by at most 2**-1074 <= M + h, or by nothing where M + h
        # is 0.  M is the same for a region and its mirror image.
        terms = np.abs([dI, sI, off_i, dJ, sJ, off_j])
        size = sum(terms) + h  # M + h, inf beyond the float range
        half = sum(0.5 * terms) + 0.5 * h
        err = 6.0 * _EPS * half + np.minimum(size, 2.0 ** -1072)
        ends = np.minimum.reduceat((0.5 * u + 0.5 * v - 0.5 * h) - err, starts, axis=1)
    ends = np.fmax(ends, -np.inf)  # a nan end becomes -inf
    bounds = [RealBounds(lower, -mirrored) for lower, mirrored in zip(*ends.tolist())]
    return bounds[0] if single else bounds


def grid_sample(region: Region, re_range, im_range, nx: int, ny: int):
    """The grid's real axis, its imaginary axis and the (nx, ny) boolean member matrix."""
    try:
        re0, re1 = (float(v) for v in re_range)
        im0, im1 = (float(v) for v in im_range)
    except (TypeError, ValueError):
        raise BadGrid("ranges must be (low, high) pairs")
    try:
        nx, ny = operator.index(nx), operator.index(ny)
    except TypeError:
        raise BadGrid(f"grid counts must be integers, got {nx!r} and {ny!r}")
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
