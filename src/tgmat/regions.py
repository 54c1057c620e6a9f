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
sides, and membership broadcasts one test over (points, pairs).

Real-axis bounds are extracted by a scan plus bisection shared by all
kinds; no closed-form root formulas are used here (tests cross-check the
dimension-2 ovals against their quadratic roots independently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import tensor as tz
from .compare import gt, leq
from .errors import BadGrid, BadSubset, EmptyRegion, GammaOutOfRange, WrongDimension

__all__ = ["Region", "RealBounds", "KINDS", "build_region", "membership", "real_bounds", "grid_sample"]

KINDS = ("gershgorin", "cassini", "ostrowski", "gammamix", "stype", "ssingleton")

_PAIR_KINDS = ("cassini", "stype", "ssingleton")

# points x pairs elements in one broadcast pair test; bounds the temporaries
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
    tolerance: float


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
        radius = np.power(P, gamma) * np.power(Q, 1.0 - gamma)
    elif kind == "gammamix":
        radius = gamma * P + (1.0 - gamma) * Q
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


def _f(region: Region, z: np.ndarray) -> np.ndarray:
    """f_i(z) = |z - a_{i...i}| - s_ii, shape (..., n)."""
    return np.abs(z[..., None] - region.stats.diagonal) - region.stats.s_diag


def membership(region: Region, z) -> bool | np.ndarray:
    """Whether z (scalar or array of complex) belongs to the region."""
    za = np.asarray(z, dtype=complex)
    scalar = za.ndim == 0
    za = np.atleast_1d(za)
    out = _membership_array(region, za)
    return bool(out[0]) if scalar else out.reshape(np.shape(z))


def _membership_array(region: Region, z: np.ndarray) -> np.ndarray:
    f = _f(region, z.ravel())
    if region.radius is not None:
        return leq(f, region.radius).any(axis=-1)
    # For the split-sum kinds the outer absolute value |f| widens the member
    # side (annular components), but a point may be EXCLUDED only when the
    # signed brackets f are positive: the exclusion argument runs through
    # strict dominance of the shifted tensor's generated matrix, whose
    # diagonal is f itself, so a negative f with large |f| proves nothing.
    # With f > 0 the two bracket forms coincide.
    if region.kind == "stype":
        sub0 = [i - 1 for i in region.subset]
        member = leq(np.abs(f[:, sub0]), region.rS[sub0]).any(axis=-1)
    else:
        member = np.zeros(len(f), dtype=bool)
    I, J, off_i, off_j, rhs = region.pairs
    step = max(1, _CHUNK_ELEMENTS // len(I))
    for s in range(0, len(f), step):
        bi = f[s:s + step, I] - off_i
        bj = f[s:s + step, J] - off_j
        excluded = gt(bi, 0.0) & gt(bj, 0.0) & gt(bi * bj, rhs)
        member[s:s + step] |= ~excluded.all(axis=-1)
    return member


def _enclosing_interval(region: Region) -> tuple[float, float]:
    # outside this interval every membership branch fails by the triangle inequality
    G = region.stats
    R = float(np.max(G.s_diag + np.maximum(G.P, G.Q))) + 1.0
    return float(np.min(G.diagonal)) - R, float(np.max(G.diagonal)) + R


def real_bounds(region: Region, tol: float = 1e-6) -> RealBounds:
    """Smallest and largest real member, by scan plus bisection.

    The scan covers an interval guaranteed to contain the region, at step
    width/4096, with the region centers added as extra probes (a radius-zero
    disc sits exactly at its center).  The outermost sign changes are then
    bisected together, both ends in one loop of at most 60 steps with one
    membership call per step.  An end stops once its midpoint equals one of
    its bracket ends: the bracket cannot shrink further, so every later
    step would leave it as it is.
    """
    lo_enc, hi_enc = _enclosing_interval(region)
    xs = np.linspace(lo_enc, hi_enc, 4097)
    xs = np.unique(np.concatenate([xs, region.stats.diagonal.astype(float)]))
    mem = membership(region, xs.astype(complex))
    hits = np.flatnonzero(mem)
    if hits.size == 0:
        raise EmptyRegion("no real member found on scan")
    first, last = hits[0], hits[-1]
    # [lower, upper]: each end's bracket; an end on the scan's edge is already exact
    inside = xs[[first, last]]
    outside = xs[[max(first - 1, 0), min(last + 1, len(xs) - 1)]]
    active = np.array([first > 0, last < len(xs) - 1])
    for _ in range(60):
        if not active.any():
            break
        ends = np.flatnonzero(active)
        mid = 0.5 * (outside[ends] + inside[ends])
        # a midpoint equal to a bracket end takes that end's place (the same
        # value, so the bracket keeps its width) and is the end's last step
        active[ends] = (mid != outside[ends]) & (mid != inside[ends])
        hit = membership(region, mid.astype(complex))
        inside[ends[hit]] = mid[hit]
        outside[ends[~hit]] = mid[~hit]
    return RealBounds(float(inside[0]), float(inside[1]), tol)


def grid_sample(region: Region, re_range, im_range, nx: int, ny: int):
    """Row-major membership samples; rows are (re, im, member in {0, 1})."""
    try:
        re0, re1 = (float(v) for v in re_range)
        im0, im1 = (float(v) for v in im_range)
    except (TypeError, ValueError):
        raise BadGrid("ranges must be (low, high) pairs")
    if nx < 2 or ny < 2:
        raise BadGrid("grid needs nx >= 2 and ny >= 2")
    if not all(np.isfinite(v) for v in (re0, re1, im0, im1)) or re1 < re0 or im1 < im0:
        raise BadGrid("grid ranges must be finite with low <= high")
    res = np.linspace(re0, re1, nx)
    ims = np.linspace(im0, im1, ny)
    Z = res[:, None] + 1j * ims[None, :]
    mem = membership(region, Z).astype(int)
    ims_list = ims.tolist()
    return [(r, i, m) for r, mrow in zip(res.tolist(), mem.tolist()) for i, m in zip(ims_list, mrow)]
