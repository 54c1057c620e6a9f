"""Spin-j states, their dimension-4 coefficient tensors, and classicality.

A spin-j density matrix (m = 2j) lives in the (m+1)-dimensional Dicke
basis, ordered by l = j, j-1, ..., -j.  Sandwiching Pauli strings with the
isometry onto the symmetric subspace yields an overcomplete operator basis;
the trace coefficients against it form a real, permutation-symmetric tensor
of order m and dimension 4 whose all-zeros entry equals the trace.

The classicality certificate checks that the coefficient tensor has
nonnegative diagonal entries and that its generated 4x4 matrix passes the
H-matrix cascade.  All criteria are sufficient only: an inconclusive
verdict says nothing about nonclassicality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from typing import Optional

import numpy as np

from . import dominance as dom
from . import tensor as tz
from .errors import (
    BadAngle,
    BadIndex,
    NonFiniteValue,
    NonHermitian,
    NotPositiveSemidefinite,
    OrderTooLarge,
    TgmatError,
    TraceNotOne,
    WeightMismatch,
)

__all__ = [
    "PAULI",
    "SpinState",
    "ClassicalityVerdict",
    "spin_state",
    "dicke_isometry",
    "s_operator",
    "coefficient_tensor",
    "reconstruct_state",
    "coherent_state",
    "coherent_direction",
    "classical_mixture",
    "certify_classicality",
    "state_from_json",
]

MAX_ORDER = 8

PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
# the Pauli table by site: _SITE[mu, 2 r + c] = sigma_mu[r, c]
_SITE = PAULI.reshape(4, 4)
# the slack of a state's Hermitian, trace and PSD tests, and of a mixture's weight sum
_SLACK = 1e-12


@dataclass(frozen=True)
class SpinState:
    """Spin-j density matrix in the Dicke basis; ``m`` = 2j, ``rho`` is (m+1)x(m+1).

    Validated where it is built: m must lie in 1..MAX_ORDER (OrderTooLarge),
    rho must have that shape (TgmatError), be finite (NonFiniteValue), be
    Hermitian (NonHermitian) and of trace 1 (TraceNotOne), each to 1e-12, and
    positive semidefinite (NotPositiveSemidefinite) to that slack and rounding.
    ``rho`` is held as a read-only complex copy, so every instance is a
    valid state.
    """

    m: int
    rho: np.ndarray

    def __post_init__(self):
        m = self.m
        if not 1 <= m <= MAX_ORDER:
            raise OrderTooLarge(f"2j = {m} outside 1..{MAX_ORDER}")
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (m + 1, m + 1):
            raise TgmatError(f"rho must be {(m + 1, m + 1)}, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise NonFiniteValue("rho has an entry that is not finite")
        if not tz._within(rho, rho.conj().T, _SLACK):
            raise NonHermitian(f"rho is not Hermitian to {_SLACK:g}")
        with np.errstate(over="ignore"):
            trace = np.trace(rho)
        if not tz._within(trace, 1.0, _SLACK):
            # the shortest text that reads back to the trace, so a trace just off 1 does not print as 1
            raise TraceNotOne(f"trace is {str(complex(trace)).strip('()')}, expected 1")
        # Weyl: the slack in each entry moves the eigenvalues by at most (m+1) times it, and eigvalsh's error is
        # a small multiple of eps times the norm, at most m+1 where every |rho_ij| <= 1, as in a state
        lowest = np.linalg.eigvalsh(0.5 * rho + 0.5 * rho.conj().T)[0]
        if not lowest >= -(m + 1) * (_SLACK + 4 * (m + 1) * np.finfo(float).eps):  # nor a NaN, from an overflow
            raise NotPositiveSemidefinite(f"rho is not positive semidefinite: it has the eigenvalue {lowest:.6g}")
        out = rho.copy()
        out.flags.writeable = False
        object.__setattr__(self, "rho", out)


def spin_state(m: int, rho) -> SpinState:
    """Validate and wrap a density matrix in the Dicke basis: ``SpinState(m, rho)``, which checks it."""
    return SpinState(m, rho)


@lru_cache(maxsize=None)
def dicke_isometry(m: int) -> np.ndarray:
    """The 2^m x (m+1) isometry whose columns are the Dicke states.

    Column k is the normalized uniform superposition of the weight-k
    bitstrings (k excitations, l = j - k), so column order matches the
    basis |j, l> with l descending from j.
    """
    if not 1 <= m <= MAX_ORDER:
        raise OrderTooLarge(f"2j = {m} outside 1..{MAX_ORDER}")
    V = np.zeros((2 ** m, m + 1), dtype=complex)
    norms = 1.0 / np.sqrt([comb(m, k) for k in range(m + 1)])
    k = tz._bit_weights(m)
    V[np.arange(2 ** m), k] = norms[k]
    V.flags.writeable = False
    return V


def s_operator(mus) -> np.ndarray:
    """Pauli string compressed to the symmetric subspace: V^H (sigma_mu1 x ...) V."""
    mus = tuple(int(u) for u in mus)
    if any(not 0 <= u <= 3 for u in mus):
        raise BadIndex(f"Pauli labels must be in 0..3, got {mus}")
    m = len(mus)
    V = dicke_isometry(m)
    K = reduce(np.kron, (PAULI[u] for u in mus))
    return V.conj().T @ K @ V


def _each_site(T: np.ndarray, M: np.ndarray, m: int) -> np.ndarray:
    """Apply the 4 x 4 matrix M to each of the m length-4 axes of T.

    Each pass maps the first axis and moves it last, so after m passes the
    axes are back in their order.
    """
    for _ in range(m):
        T = T.reshape(4, -1).T @ M
    return T.reshape((4,) * m)


def coefficient_tensor(state: SpinState) -> tz.DenseTensor:
    """Order-m, dimension-4 tensor of traces A_mu = tr(rho S_mu).

    The state is lifted to the 2^m x 2^m matrix L = V rho V^H, whose axes
    are ordered (r1, c1, ..., rm, cm); the conjugate Pauli table then maps
    each site's pair (r, c) to its label, since tr(L sigma) sums
    L[r, c] conj(sigma[r, c]) for Hermitian sigma.  The state was validated
    when it was built, so nothing is re-checked.  Each S_mu compresses a
    unitary Pauli string, so its norm is at most 1, and rho is positive
    semidefinite and of trace 1 to the validation slack, so every |A_mu| is
    at most 1 plus that slack and rounding: A is finite.  rho's
    anti-Hermitian part and its trace's distance from 1 are at most 1e-12,
    so each |Im A_mu| is at most (m+1)^2 times that plus rounding (the
    imaginary part is dropped) and A_0...0 = tr rho is 1 to that and
    rounding; A is permutation symmetric because V's columns are.
    """
    m = state.m
    if m < 2:
        raise OrderTooLarge("coefficient tensor needs 2j >= 2")
    V = dicke_isometry(m)
    L = (V @ state.rho @ V.conj().T).reshape((2,) * (2 * m))
    # order the axes (r1, c1, ..., rm, cm), so each site's pair (r, c) is one axis
    A = _each_site(L.transpose(np.arange(2 * m).reshape(2, m).T.ravel()), _SITE.conj().T, m)
    return tz.DenseTensor(A.real)


def reconstruct_state(coeff: tz.DenseTensor) -> SpinState:
    """Invert the coefficient map: rho = 2^{-m} sum_mu A_mu S_mu.

    The Pauli table maps each label to its site's pair (r, c); the pairs
    are regrouped into the rows and columns of the 2^m x 2^m sum, which V
    compresses to the Dicke basis.  An order above MAX_ORDER raises
    OrderTooLarge before any work.  The tensor is the caller's, so a sum
    may pass the float range; the inf or nan it leaves in rho makes
    ``spin_state`` raise NonFiniteValue.
    """
    if coeff.dim != 4:
        raise TgmatError("coefficient tensor must have dimension 4")
    m = coeff.order
    V = dicke_isometry(m)
    with np.errstate(over="ignore", invalid="ignore"):
        T = _each_site(coeff.entries, _SITE, m).reshape((2,) * (2 * m))
        # the axes are (r1, c1, ..., rm, cm); regroup them into rows and columns
        K = T.transpose(np.arange(2 * m).reshape(m, 2).T.ravel()).reshape(2 ** m, 2 ** m)
        rho = V.conj().T @ K @ V / 2 ** m
    return spin_state(m, rho)


def coherent_direction(theta: float, phi: float) -> np.ndarray:
    """The 4-vector (1, n) of a Bloch direction."""
    return np.array([1.0, np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def coherent_state(m: int, theta: float, phi: float) -> SpinState:
    """Pure spin coherent state pointing along (theta, phi).

    Components over |j, l>, l = j..-j:  sqrt(C(2j, j+l)) sin(theta/2)^{j-l}
    (cos(theta/2) e^{-i phi})^{j+l}.
    """
    if not (0.0 <= theta <= np.pi) or not (0.0 <= phi < 2.0 * np.pi):
        raise BadAngle(f"need theta in [0, pi] and phi in [0, 2*pi), got ({theta}, {phi})")
    ks = np.arange(m + 1)  # k = j - l excitations
    amps = (np.sqrt([comb(m, int(k)) for k in ks])
            * np.sin(theta / 2.0) ** ks
            * np.cos(theta / 2.0) ** (m - ks)
            * np.exp(-1j * phi * (m - ks)))
    return spin_state(m, np.outer(amps, amps.conj()))


def classical_mixture(m: int, weights, directions) -> SpinState:
    """Convex mixture of coherent states; weights positive and summing to 1."""
    weights = np.asarray(weights, dtype=float)
    directions = list(directions)
    if len(weights) != len(directions) or len(weights) == 0:
        raise WeightMismatch("weights and directions must have equal nonzero length")
    if not np.isfinite(weights).all():
        raise WeightMismatch("weights must be finite")
    if np.any(weights <= 0.0):
        raise WeightMismatch("weights must be positive")
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not tz._within(total, 1.0, _SLACK):
        raise WeightMismatch(f"weights sum to {total:.6g}, expected 1")
    rho = np.zeros((m + 1, m + 1), dtype=complex)
    for w, (theta, phi) in zip(weights, directions):
        rho += w * coherent_state(m, theta, phi).rho
    return spin_state(m, rho)


@dataclass(frozen=True)
class ClassicalityVerdict:
    """Outcome of the classicality certificate.

    ``verdict`` is 'certified_classical' or 'inconclusive'; ``rule`` is
    'symmetric_H' or 'strongly_symmetric_H' when certified.  Inconclusive
    carries a reason and is never a nonclassicality claim.
    """

    verdict: str
    rule: Optional[str] = None
    reason: Optional[str] = None
    symmetry: Optional[str] = None
    diagonal: Optional[np.ndarray] = None
    generated: Optional[np.ndarray] = None
    certificate: Optional[dom.Certificate] = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified_classical"


def certify_classicality(state: SpinState) -> ClassicalityVerdict:
    """Certify a spin-j state classical through its coefficient tensor.

    Pipeline: require integer j (even m); extract the coefficient tensor;
    require nonnegative diagonal entries; run the H-tensor cascade on the
    generated 4x4 matrix.  When the tensor is additionally strongly
    symmetric with |a_{kk...k}| >= s_kk the stronger rule name is reported.
    """
    if state.m % 2 == 1:
        return ClassicalityVerdict("inconclusive", reason=f"odd order 2j = {state.m} (j is not an integer)")
    coeff = coefficient_tensor(state)
    G = tz.generated_matrix(coeff)
    diag = G.diagonal
    symmetry = tz.classify_symmetry(coeff)
    if np.min(diag) < -_SLACK:
        return ClassicalityVerdict(
            "inconclusive",
            reason=f"negative diagonal entry {np.min(diag):.3e}",
            symmetry=symmetry, diagonal=diag, generated=G.data,
        )
    cert = dom.certify_h_tensor(coeff)
    if not cert.certified:
        return ClassicalityVerdict(
            "inconclusive", reason=f"H-tensor cascade inconclusive ({cert.note})",
            symmetry=symmetry, diagonal=diag, generated=G.data, certificate=cert,
        )
    rule = "symmetric_H"
    if symmetry == "strongly_symmetric" and np.all(G.diag_abs >= G.s_diag):
        rule = "strongly_symmetric_H"
    return ClassicalityVerdict(
        "certified_classical", rule=rule, symmetry=symmetry,
        diagonal=diag, generated=G.data, certificate=cert,
    )


def _numbers(values) -> bool:
    """Whether every value is a JSON number: an int or a float, not a boolean or a numeric string."""
    return all(type(v) in (int, float) for v in values)


def _matrix(rows) -> Optional[np.ndarray]:
    """A list of equal-length lists of JSON numbers as a float matrix, or None for anything else.

    An integer beyond the largest float becomes an infinity of its sign.
    """
    if type(rows) is not list or any(type(row) is not list or len(row) != len(rows[0]) for row in rows):
        return None
    flat = list(itertools.chain.from_iterable(rows))
    return tz._float_array(flat).reshape(len(rows), len(rows[0]) if rows else 0) if _numbers(flat) else None


def state_from_json(obj: dict) -> SpinState:
    """Parse either state format.

    Density form: {"m": 2j, "rho_re": [[...]], "rho_im": [[...]]} with
    rho_im optional.  Mixture form: {"m": 2j, "components": [{"w": ...,
    "theta": ..., "phi": ...}, ...]}.
    """
    try:
        m = tz._int_field(obj, "m")
    except (KeyError, TypeError):
        raise TgmatError("state file needs an integer 'm'")
    if "components" in obj:
        try:
            flat = [c[key] for c in obj["components"] for key in ("w", "theta", "phi")]
        except (KeyError, TypeError):
            flat = None
        if flat is None or not _numbers(flat):
            raise TgmatError("each component needs numeric 'w', 'theta', 'phi'")
        weights, thetas, phis = tz._float_array(flat).reshape(-1, 3).T.tolist()
        return classical_mixture(m, weights, list(zip(thetas, phis)))
    re = _matrix(obj.get("rho_re"))
    # an omitted 'rho_im' and a null one both mean a real density matrix
    im = np.zeros(np.shape(re)) if obj.get("rho_im") is None else _matrix(obj["rho_im"])
    if re is None or im is None:
        raise TgmatError("state file needs numeric 'rho_re' (or 'components') and an optional numeric 'rho_im'")
    if re.shape != im.shape:
        raise TgmatError("rho_re and rho_im must have the same shape")
    return spin_state(m, re + 1j * im)
