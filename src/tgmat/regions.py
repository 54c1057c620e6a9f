"""H-eigenvalue inclusion regions as membership predicates on the plane.

Every region is a closed subset of the complex plane built from the row
statistics of a tensor: the signed diagonal entries as centers, the s_ii
corrections, and the deleted row/column sums P and Q of the generated
matrix.  Membership follows the exact negation used to prove each set:
a point is excluded only when every bracket that the proof needs is
strictly positive and the product inequality fails, so boundary points and
degenerate brackets are always included.

Real-axis bounds are extracted by a scan plus bisection shared by all
kinds; no closed-form root formulas are used here (tests cross-check the
dimension-2 ovals against their quadratic roots independently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as tz
from .compare import gt, leq
from .errors import BadGrid, BadSubset, EmptyRegion, GammaOutOfRange, WrongDimension

__all__ = ["Region", "RealBounds", "KINDS", "build_region", "membership", "real_bounds", "grid_sample"]

KINDS = ("gershgorin", "cassini", "ostrowski", "gammamix", "stype", "ssingleton")

_PAIR_KINDS = ("cassini", "stype", "ssingleton")


@dataclass(frozen=True)
class Region:
    """One inclusion region of one tensor, with every part of its test that does not depend on z.

    ``stats`` is the tensor's generated-matrix record.  ``radius`` is the
    per-row disc radius of the disc kinds; ``rS`` and ``rC`` split each P_i
    into its mass on the subset S and on the complement for 'stype'.
    """

    kind: str
    stats: tz.GeneratedMatrix
    gamma: Optional[float] = None
    subset: Optional[tuple[int, ...]] = None  # 1-based, sorted
    radius: Optional[np.ndarray] = None
    rS: Optional[np.ndarray] = None
    rC: Optional[np.ndarray] = None


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
    radius = rS = rC = None
    if kind == "gershgorin":
        radius = P
    elif kind == "ostrowski":
        radius = np.power(P, gamma) * np.power(Q, 1.0 - gamma)
    elif kind == "gammamix":
        radius = gamma * P + (1.0 - gamma) * Q
    elif kind == "stype":
        sub0 = [i - 1 for i in sub]
        rS = np.array([S[i, sub0].sum() - (S[i, i] if i in sub0 else 0.0) for i in range(n)])
        rC = P - rS
    return Region(kind, G, gamma, sub, radius, rS, rC)


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
    kind = region.kind
    f = _f(region, z)
    P, S, n = region.stats.P, region.stats.S, region.stats.dim
    if region.radius is not None:
        return leq(f, region.radius).any(axis=-1)
    if kind == "cassini":
        member = np.zeros(z.shape, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                fi, fj = f[..., i], f[..., j]
                excluded = gt(fi, 0.0) & gt(fj, 0.0) & gt(fi * fj, P[i] * P[j])
                member |= ~excluded
        return member
    # For the split-sum kinds the outer absolute value g = |f| widens the
    # member side (annular components), but a point may be EXCLUDED only
    # when the signed brackets f are positive: the exclusion argument runs
    # through strict dominance of the shifted tensor's generated matrix,
    # whose diagonal is f itself, so a negative f with large |f| proves
    # nothing.  With f > 0 the two bracket forms coincide.
    g = np.abs(f)
    if kind == "stype":
        sub0 = [i - 1 for i in region.subset]
        comp0 = [j for j in range(n) if j + 1 not in region.subset]
        rS, rC = region.rS, region.rC
        member = np.zeros(z.shape, dtype=bool)
        for i in sub0:
            member |= leq(g[..., i], rS[i])
        for i in sub0:
            for j in comp0:
                bi = f[..., i] - rS[i]
                bj = f[..., j] - rC[j]
                excluded = gt(bi, 0.0) & gt(bj, 0.0) & gt(bi * bj, rC[i] * rS[j])
                member |= ~excluded
        return member
    if kind == "ssingleton":
        member = np.zeros(z.shape, dtype=bool)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                bi = f[..., i]
                bj = f[..., j] - (P[j] - S[j, i])
                excluded = gt(bi, 0.0) & gt(bj, 0.0) & gt(bi * bj, P[i] * S[j, i])
                member |= ~excluded
        return member
    raise ValueError(f"unknown region kind {kind!r}")


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
    bisected 60 times each.
    """
    lo_enc, hi_enc = _enclosing_interval(region)
    xs = np.linspace(lo_enc, hi_enc, 4097)
    xs = np.unique(np.concatenate([xs, region.stats.diagonal.astype(float)]))
    mem = membership(region, xs.astype(complex))
    hits = np.flatnonzero(mem)
    if hits.size == 0:
        raise EmptyRegion("no real member found on scan")
    first, last = hits[0], hits[-1]

    def bisect(outside: float, inside: float) -> float:
        for _ in range(60):
            mid = 0.5 * (outside + inside)
            if membership(region, complex(mid)):
                inside = mid
            else:
                outside = mid
        return inside

    lower = xs[first] if first == 0 else bisect(xs[first - 1], xs[first])
    upper = xs[last] if last == len(xs) - 1 else bisect(xs[last + 1], xs[last])
    return RealBounds(float(lower), float(upper), tol)


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
    mem = membership(region, Z)
    rows = []
    for i in range(nx):
        for j in range(ny):
            rows.append((float(res[i]), float(ims[j]), int(mem[i, j])))
    return rows
