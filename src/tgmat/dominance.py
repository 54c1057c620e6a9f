"""Diagonal-dominance tests, H-matrix decisions, and H-tensor certificates.

All matrix tests work on absolute diagonals and nonnegative off-diagonal
mass: P_i is the deleted row sum of |M| and Q_i the deleted column sum.
``certify_h_tensor`` runs a cascade of sufficient conditions on the
generated matrix of a tensor and, where possible, converts the matrix
scaling vector into an entrywise positive tensor certificate that is
re-verified against the defining strict inequality before it is returned.
A ``not_certified`` verdict is never a disproof; every rule here is
sufficient only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as tz
from .compare import gt
from .errors import GammaOutOfRange

__all__ = [
    "DominanceReport",
    "HMatrixResult",
    "Certificate",
    "comparison_matrix",
    "check_dominance",
    "is_h_matrix",
    "is_irreducible",
    "is_weakly_irreducible",
    "tensor_dd",
    "is_weakly_chained_dd",
    "certify_h_tensor",
    "is_z_tensor",
    "is_m_tensor",
]

# the Collatz-Wielandt iteration's relative floor on x and its step cap
_CW_FLOOR = 2.0 ** -40
_CW_STEPS = 300


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of a dominance test; ``kind`` is None when the test failed.

    ``strict_rows`` is the 1-based set J of rows satisfying the strict
    inequality, reported for DD-style kinds.
    """

    kind: Optional[str]
    strict_rows: tuple[int, ...] = ()
    gamma: Optional[float] = None


@dataclass(frozen=True)
class HMatrixResult:
    is_h: bool
    scaling: Optional[np.ndarray]
    note: str = ""


@dataclass(frozen=True)
class Certificate:
    """H-tensor certification outcome.

    When ``scaling`` is present it is the entrywise positive vector y with
    |a_{i...i}| y_i^{m-1} strictly exceeding the weighted off-diagonal sum
    in every row; ``residuals`` holds the per-row slack.
    """

    verdict: str
    rule: Optional[str] = None
    gamma: Optional[float] = None
    scaling: Optional[np.ndarray] = None
    residuals: Optional[np.ndarray] = None
    note: str = ""

    @property
    def certified(self) -> bool:
        return self.verdict == "certified_H"


def comparison_matrix(M: np.ndarray) -> np.ndarray:
    """Absolute diagonal, negated absolute off-diagonal."""
    M = np.asarray(M, dtype=float)
    C = -np.abs(M)
    np.fill_diagonal(C, np.abs(np.diag(M)))
    return C


def _strict_rows(d, radii) -> tuple[int, ...]:
    return tuple(int(i) + 1 for i in np.flatnonzero(gt(d, radii)))


def _search_gamma(d, P, Q, kind: str) -> Optional[float]:
    """A gamma in [0, 1] with d_i above the kind's radius in every row, or None.

    Row i asks gamma (P_i - Q_i) < d_i - Q_i: an upper bound on gamma when
    P_i > Q_i, a lower one when P_i < Q_i, and d_i > Q_i itself when they
    are equal.  The candidate is the midpoint of the intersection with
    [0, 1].  For the product radius the same test runs on the logs; a row
    with P_i or Q_i zero drops out, its radius being 0 for interior gamma.
    """
    strict = gt
    if kind == "ProductGammaSDD":
        if np.any(d <= 0):
            return None
        keep = (P != 0.0) & (Q != 0.0)
        d, P, Q = (np.array([math.log(v) for v in x[keep]]) for x in (d, P, Q))
        strict = np.greater
    denom, rhs = P - Q, d - Q
    flat = denom == 0.0
    if not strict(d[flat], Q[flat]).all():
        return None
    # a bound beyond the float range is the infinity of its sign, which is that bound
    with np.errstate(over="ignore"):
        lo = np.max(rhs[denom < 0] / denom[denom < 0], initial=0.0)
        hi = np.min(rhs[denom > 0] / denom[denom > 0], initial=1.0)
    return None if lo >= hi else 0.5 * (lo + hi)


def _dominance(d, P, Q, kind: str, gamma: Optional[float] = None) -> DominanceReport:
    """``check_dominance`` on the diagonal moduli d and the deleted row and column sums P and Q."""
    n = len(d)
    if kind == "SDD":
        strict = _strict_rows(d, P)
        return DominanceReport("SDD", strict) if len(strict) == n else DominanceReport(None, strict)
    if kind == "DD":
        if np.all(d >= P):
            return DominanceReport("DD", _strict_rows(d, P))
        return DominanceReport(None)
    if kind == "DoublySDD":
        pairs = np.triu_indices(n, 1)
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite product against another fails
            if not gt(np.outer(d, d)[pairs], np.outer(P, P)[pairs]).all():
                return DominanceReport(None)
        return DominanceReport("DoublySDD", tuple(range(1, n + 1)))
    if kind in ("GammaSDD", "ProductGammaSDD"):
        if gamma is None:
            gamma = _search_gamma(d, P, Q, kind)
            if gamma is None:
                return DominanceReport(None)
        elif not 0.0 <= gamma <= 1.0:
            raise GammaOutOfRange(f"gamma {gamma} outside [0, 1]")
        radii = (tz.mixed_radius if kind == "GammaSDD" else tz.product_radius)(P, Q, gamma)
        if gt(d, radii).all():
            return DominanceReport(kind, _strict_rows(d, radii), gamma)
        return DominanceReport(None, gamma=gamma)
    raise ValueError(f"unknown dominance kind {kind!r}")


def check_dominance(M: np.ndarray, kind: str, gamma: Optional[float] = None) -> DominanceReport:
    """Test one dominance kind on a square matrix.

    Kinds: 'SDD', 'DD', 'DoublySDD', 'GammaSDD', 'ProductGammaSDD'.  For the
    gamma kinds a missing ``gamma`` triggers a 1-D feasibility search and the
    found value is reported.
    """
    off = np.abs(np.asarray(M, dtype=float))
    d = np.diag(off).copy()
    np.fill_diagonal(off, 0.0)
    return _dominance(d, off.sum(axis=1), off.sum(axis=0), kind, gamma)


def is_h_matrix(M: np.ndarray) -> HMatrixResult:
    """Decide whether M is a nonsingular H-matrix and produce a scaling.

    M is one iff its comparison matrix C is a nonsingular M-matrix, that is
    iff C x > 0 for some x > 0 (Fiedler & Ptak, Czech. Math. J. 1962).  The
    x solving C x = ones is such a vector whenever one exists; it must be
    entrywise positive, and M diag(x) strictly diagonally dominant in every
    row, which is re-verified before the result is returned.
    """
    M = np.asarray(M, dtype=float)
    d = np.abs(np.diag(M))
    if np.any(d <= 0.0):
        bad = int(np.argmin(d)) + 1
        return HMatrixResult(False, None, f"nonpositive diagonal in row {bad}")
    C = comparison_matrix(M)
    try:
        x = np.linalg.solve(C, np.ones(len(d)))
    except np.linalg.LinAlgError:
        return HMatrixResult(False, None, "comparison matrix is singular")
    if not np.all(x > 0.0):
        return HMatrixResult(False, None, "solved scaling not entrywise positive")
    N = np.abs(M)
    np.fill_diagonal(N, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # a row whose d_i x_i overflows fails
        dx = d * x
        failing = np.flatnonzero(~(np.isfinite(dx) & gt(dx, (N * x[None, :]).sum(axis=1))))
    if failing.size:
        return HMatrixResult(False, None, f"scaled dominance fails in row {failing[0] + 1}")
    return HMatrixResult(True, x)


def _reachable(adj: np.ndarray, start) -> np.ndarray:
    """Mask of the nodes reachable from the ``start`` nodes along the edges of ``adj``."""
    seen = np.zeros(len(adj), dtype=bool)
    seen[start] = True
    frontier = seen
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return seen


def is_irreducible(M: np.ndarray) -> bool:
    """True when the digraph with edges i -> j (i != j, m_ij != 0) is strongly connected."""
    adj = np.asarray(M) != 0
    np.fill_diagonal(adj, False)
    # strongly connected iff node 1 reaches every node and every node reaches node 1
    return bool(_reachable(adj, 0).all() and _reachable(adj.T, 0).all())


def is_weakly_irreducible(t: tz.DenseTensor) -> bool:
    return is_irreducible(tz.generated_matrix(t).edges)


def tensor_dd(t: tz.DenseTensor) -> DominanceReport:
    """Diagonal dominance of the tensor itself: |a_{i...i}| against r_i."""
    G = tz.generated_matrix(t)
    strict = _strict_rows(G.diag_abs, G.r)
    kind = "SDD" if len(strict) == G.dim else "DD" if np.all(G.diag_abs >= G.r) else None
    return DominanceReport(kind, strict)


def is_weakly_chained_dd(t: tz.DenseTensor) -> bool:
    """Diagonally dominant with a walk from every non-strict row into J."""
    return _weakly_chained(tz.generated_matrix(t).edges, tensor_dd(t))


def _weakly_chained(edges: np.ndarray, rep: DominanceReport) -> bool:
    if rep.kind is None or not rep.strict_rows:
        return False
    J = [i - 1 for i in rep.strict_rows]
    # every row has a walk into J iff J reaches every row along reversed edges
    return len(J) == len(edges) or bool(_reachable(edges.T, J).all())


def _attach_certificate(t: tz.DenseTensor, rule: str, gamma, x: Optional[np.ndarray],
                        note: str = "") -> Certificate:
    """Certify with the tensor scaling y = x^(1/(m-1)) when its slack re-checks strictly.

    The slack of row i is |a_{i...i}| y_i^(m-1) minus the row's off-diagonal
    mass at y, the contraction of |A[i]| with its diagonal tuple set to 0,
    read from the tensor's nonzero list where it has one.
    """
    if x is None:
        return Certificate("certified_H", rule, gamma, None, None, note)
    m = t.order
    y = np.power(x, 1.0 / (m - 1))
    scale = tz.generated_matrix(t).diag_abs * y ** (m - 1)
    off = tz._off_mass(t, y)
    if not (np.isfinite(scale) & gt(scale, off)).all():
        return Certificate("certified_H", rule, gamma, None, None, note + " (scaling dropped: slack not strict)")
    return Certificate("certified_H", rule, gamma, y, scale - off, note)


def certify_h_tensor(t: tz.DenseTensor) -> Certificate:
    """Run the sufficient-condition cascade on the generated matrix.

    Order: SDD, doubly SDD, gamma-SDD (searched), product gamma-SDD
    (searched), the generalized H-matrix test, and weakly chained diagonal
    dominance of the tensor itself.  The first rule that fires is reported;
    the constructive scaling always comes from the H-matrix solve (or is
    all-ones for SDD).  A weak chain is reported as IrreducibleDD, the
    paper's name, when the digraph is strongly connected and no row is
    degenerate: irreducible DD with a strict row is weakly chained.  SDD and
    weak chaining read one dominance report of the tensor, |a_{i...i}|
    against r_i = s_ii + P_i, and one digraph, the record's ``edges``.  The
    other matrix rules read d = |a_{i...i}| - s_ii, P and Q from the record;
    they are skipped when some d_i is not positive.
    """
    G = tz.generated_matrix(t)
    dd = tensor_dd(t)
    degenerate = (np.flatnonzero(G.diag_abs <= G.s_diag) + 1).tolist()
    note = f"rows {degenerate} have |a_ii...i| <= s_ii; matrix rules skipped" if degenerate else ""
    if not degenerate:
        if dd.kind == "SDD":
            return _attach_certificate(t, "SDD", None, np.ones(t.dim))
        # the H-matrix solve supplies the scaling for every later rule; None when it fails
        x = is_h_matrix(G.data).scaling
        d = np.diag(G.data)
        for kind in ("DoublySDD", "GammaSDD", "ProductGammaSDD"):
            rep = _dominance(d, G.P, G.Q, kind)
            if rep.kind:
                return _attach_certificate(t, kind, rep.gamma, x)
        if x is not None:
            return _attach_certificate(t, "GeneralizedH", None, x)
    # exact arithmetic makes a degenerate row that is dominant a zero row; rounding
    # of s_ii at subnormal scale can still leave such a row weakly chained
    if _weakly_chained(G.edges, dd):
        rule = "IrreducibleDD" if not degenerate and is_irreducible(G.edges) else "WeaklyChainedDD"
        return _attach_certificate(t, rule, None, None, note)
    return Certificate("not_certified", note=note or "no sufficient condition fired")


def is_z_tensor(t: tz.DenseTensor) -> bool:
    """True when every off-diagonal entry is nonpositive."""
    return bool(np.all(np.delete(t.entries, tz._diagonal_positions(t.order, t.dim)) <= 0.0))


def _cw_bracket(B: np.ndarray, s: float):
    """Collatz-Wielandt bracket of rho(B) for the nonnegative entry array B, read against s.

    At every positive x the least and the greatest ratio (B x^(m-1))_i /
    x_i^(m-1) bound rho(B) from below and above (Yang & Yang, SIAM J. Matrix
    Anal. Appl. 2010).  Each step sets x to (B x^(m-1))^(1/(m-1)), scaled to
    max 1 and floored at _CW_FLOOR, so x stays positive and x_i^(m-1) a
    normal float at every order MAX_ENTRIES allows.  Stops when s x^[m-1]
    exceeds B x^(m-1) strictly in every row, which proves rho(B) < s, when
    lo >= s, or after _CW_STEPS steps.  Returns (proved, lo, hi, x), where a
    proof holds at the returned x.
    """
    m, n = B.ndim, len(B)
    E = B.reshape(n, -1)
    x = np.ones(n)
    for _ in range(_CW_STEPS):
        xm = x ** (m - 1)
        y = tz._contract(E, x[None], m - 1)[0]
        ratios = y / xm
        lo, hi = float(ratios.min()), float(ratios.max())
        proved = bool(gt(s * xm, y).all())
        # hi == 0: y is zero, so no later x fares better
        if proved or lo >= s or hi == 0.0:
            break
        x = np.power(y, 1.0 / (m - 1))
        x = np.maximum(x / x.max(), _CW_FLOOR)
    return proved, lo, hi, x


def is_m_tensor(t: tz.DenseTensor):
    """Certify the M-tensor property; returns (verdict, method or None).

    Method 'WCDD': Z-tensor with nonnegative diagonals that is weakly
    chained diagonally dominant.  Method 'NQZ': Z-tensor written as
    s*I - B with s = max diagonal, and a positive x with s x^[m-1] >
    B x^(m-1) strictly in every row, which puts rho(B) below s (Ding, Qi &
    Wei, Linear Algebra Appl. 2013).  False means not certified.
    """
    d = tz.diagonal(t)
    # an M-tensor has a_i...i = s - b_i...i >= rho(B) - b_i...i >= 0; this also keeps s - a_i...i from overflowing
    if not is_z_tensor(t) or np.any(d < 0.0):
        return False, None
    if is_weakly_chained_dd(t):
        return True, "WCDD"
    s = float(np.max(d))
    if s <= 0.0:
        return False, None
    B = -t.entries
    B.flat[tz._diagonal_positions(t.order, t.dim)] += s
    if _cw_bracket(B, s)[0]:
        return True, "NQZ"
    return False, None
