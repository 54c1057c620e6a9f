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
from .compare import EPS, gt
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
    jacobi_radius: Optional[float]
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

    Uses the Jacobi-iteration criterion on the comparison matrix: with
    D = diag(|m_ii|) and N the off-diagonal absolute part, M is an H-matrix
    iff rho(D^{-1} N) < 1.  On success the returned x solves
    comparison_matrix(M) x = ones; M diag(x) is then strictly diagonally
    dominant, which is re-verified before the result is returned.
    """
    M = np.asarray(M, dtype=float)
    d = np.abs(np.diag(M))
    n = len(d)
    if np.any(d <= 0.0):
        bad = int(np.argmin(d)) + 1
        return HMatrixResult(False, None, None, f"nonpositive diagonal in row {bad}")
    N = np.abs(M).astype(float)
    np.fill_diagonal(N, 0.0)
    rho = float(np.max(np.abs(np.linalg.eigvals(N / d[:, None]))))
    if rho >= 1.0 - 1e-10:
        return HMatrixResult(False, None, rho, f"jacobi radius {rho:.6f} not below threshold")
    C = comparison_matrix(M)
    try:
        x = np.linalg.solve(C, np.ones(n))
    except np.linalg.LinAlgError:
        return HMatrixResult(False, None, rho, "comparison matrix is singular")
    if np.any(x <= 0.0):
        return HMatrixResult(False, None, rho, "solved scaling not entrywise positive")
    failing = np.flatnonzero(~gt(d * x, (N * x[None, :]).sum(axis=1)))
    if failing.size:
        return HMatrixResult(False, None, rho, f"scaled dominance fails in row {failing[0] + 1}")
    return HMatrixResult(True, x, rho)


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
    rep = tensor_dd(t)
    if rep.kind is None or not rep.strict_rows:
        return False
    J = [i - 1 for i in rep.strict_rows]
    # every row has a walk into J iff J reaches every row along reversed edges
    return len(J) == t.dim or bool(_reachable(tz.generated_matrix(t).edges.T, J).all())


def _attach_certificate(t: tz.DenseTensor, rule: str, gamma, x: Optional[np.ndarray],
                        note: str = "") -> Certificate:
    """Certify with the tensor scaling y = x^(1/(m-1)) when its slack re-checks strictly.

    The slack of row i is 2 |a_{i...i}| y_i^(m-1) minus the row's absolute
    contraction with y.
    """
    if x is None:
        return Certificate("certified_H", rule, gamma, None, None, note)
    y = np.power(x, 1.0 / (t.order - 1))
    scale = tz.generated_matrix(t).diag_abs * y ** (t.order - 1)
    res = 2.0 * scale - tz.contract(tz.DenseTensor(np.abs(t.entries)), y)
    if not np.all(res > EPS * np.maximum(1.0, scale)):
        return Certificate("certified_H", rule, gamma, None, None, note + " (scaling dropped: slack not strict)")
    return Certificate("certified_H", rule, gamma, y, res, note)


def certify_h_tensor(t: tz.DenseTensor) -> Certificate:
    """Run the sufficient-condition cascade on the generated matrix.

    Order: SDD, doubly SDD, gamma-SDD (searched), product gamma-SDD
    (searched), the generalized H-matrix test, irreducible DD with a strict
    row, and weakly chained diagonal dominance of the tensor itself.  The
    first rule that fires is reported; the constructive scaling always comes
    from the H-matrix solve (or is all-ones for SDD).  The matrix rules read
    d = |a_{i...i}| - s_ii, P and Q from the tensor's record.
    """
    G = tz.generated_matrix(t)
    degenerate = [i + 1 for i in range(t.dim) if G.diag_abs[i] <= G.s_diag[i]]
    if degenerate:
        note = f"rows {degenerate} have |a_ii...i| <= s_ii; matrix rules skipped"
        if is_weakly_chained_dd(t):
            return _attach_certificate(t, "WeaklyChainedDD", None, is_h_matrix(G.data).scaling, note)
        return Certificate("not_certified", note=note)
    d = np.diag(G.data)
    if _dominance(d, G.P, G.Q, "SDD").kind:
        return _attach_certificate(t, "SDD", None, np.ones(t.dim))
    # the H-matrix solve supplies the scaling for every later rule; None when it fails
    x = is_h_matrix(G.data).scaling
    for kind in ("DoublySDD", "GammaSDD", "ProductGammaSDD"):
        rep = _dominance(d, G.P, G.Q, kind)
        if rep.kind:
            return _attach_certificate(t, kind, rep.gamma, x)
    if x is not None:
        return _attach_certificate(t, "GeneralizedH", None, x)
    dd = _dominance(d, G.P, G.Q, "DD")
    if dd.kind and dd.strict_rows and is_irreducible(G.data):
        return _attach_certificate(t, "IrreducibleDD", None, None)
    if is_weakly_chained_dd(t):
        return _attach_certificate(t, "WeaklyChainedDD", None, None)
    return Certificate("not_certified", note="no sufficient condition fired")


def is_z_tensor(t: tz.DenseTensor) -> bool:
    """True when every off-diagonal entry is nonpositive."""
    return bool(np.all(np.delete(t.entries, tz._diagonal_positions(t.order, t.dim)) <= 0.0))


def is_m_tensor(t: tz.DenseTensor):
    """Certify the M-tensor property; returns (verdict, method or None).

    Method 'WCDD': Z-tensor with nonnegative diagonals that is weakly
    chained diagonally dominant.  Method 'NQZ': Z-tensor written as
    s*I - B with s = max diagonal and rho(B) established below s by the
    nonnegative-tensor power iteration.  False means not certified.
    """
    if not is_z_tensor(t):
        return False, None
    d = tz.diagonal(t)
    if np.all(d >= 0.0) and is_weakly_chained_dd(t):
        return True, "WCDD"
    from .oracle import nqz_spectral_radius

    s = float(np.max(d))
    if s <= 0.0:
        return False, None
    B = -t.entries
    B.flat[tz._diagonal_positions(t.order, t.dim)] += s
    rho = nqz_spectral_radius(tz.DenseTensor(B))
    if s > rho + 1e-9:
        return True, "NQZ"
    return False, None
