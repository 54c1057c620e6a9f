"""Dense real tensors and the statistics behind their generated matrices.

An order-m, dimension-n tensor is stored densely as an m-way numpy array of
shape (n, ..., n).  User-facing indices are 1-based; the underlying array
uses the usual 0-based numpy indexing.

The central statistic is the position-weighted row sum

    s_ij = (1/(m-1)) * sum over trailing positions k and over all
           non-diagonal tuples (i, i2, ..., im) with i_k = j of |a_{i i2...im}|,

i.e. a tuple contributes once per trailing position holding j.  The
generated matrix places |a_{i...i}| - s_ii on the diagonal and s_ij off the
diagonal; its deleted row and column sums (P_i, Q_i) drive the dominance
tests and the eigenvalue inclusion regions, and the deleted row sum of the
tensor itself satisfies r_i = s_ii + P_i.  The tensor's digraph has an edge
i -> j (i != j) where (m-1) s_ij, the sum, is nonzero.  ``generated_matrix``
builds this record in one pass over the rows of |A| on its first call for a
tensor and keeps it on the tensor.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexDiagonal,
    DimensionMismatch,
    DuplicateEntry,
    IndexOutOfRange,
    NonFiniteValue,
    NonPositiveScale,
    TgmatError,
)

__all__ = [
    "DenseTensor",
    "GeneratedMatrix",
    "build_tensor",
    "unit_tensor",
    "zero_tensor",
    "diagonal",
    "s_matrix",
    "row_sums",
    "generated_matrix",
    "product_radius",
    "mixed_radius",
    "representation_matrix",
    "classify_symmetry",
    "contract",
    "contract_jacobian",
    "poly_value",
    "poly_values",
    "scale_tensor",
    "tensor_from_json",
    "tensor_to_json",
    "load_tensor",
]


class DenseTensor:
    """Immutable order-m, dimension-n array of real entries (m >= 2).

    ``_record`` holds the generated-matrix record once ``generated_matrix``
    has built it.
    """

    __slots__ = ("order", "dim", "entries", "_record")

    def __init__(self, entries: np.ndarray):
        arr = np.array(entries, dtype=float)
        if arr.ndim < 2:
            raise TgmatError("tensor order must be at least 2")
        n = arr.shape[0]
        if any(s != n for s in arr.shape):
            raise TgmatError(f"tensor must be cubical, got shape {arr.shape}")
        if n < 1:
            raise TgmatError("tensor dimension must be at least 1")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("tensor entries must be finite")
        arr.flags.writeable = False
        self.order = arr.ndim
        self.dim = n
        self.entries = arr
        self._record = None

    def __repr__(self) -> str:
        return f"DenseTensor(order={self.order}, dim={self.dim})"


@dataclass(frozen=True)
class GeneratedMatrix:
    """The n x n matrix generated by a tensor, with the statistics behind it.

    ``data[i, j]`` is |a_{i...i}| - s_ii on the diagonal and s_ij off it.
    ``diagonal`` holds the signed a_{i...i} and ``diag_abs`` their moduli;
    ``S`` is the matrix of all s_ij and ``s_diag`` its diagonal.  ``P`` and
    ``Q`` are the deleted row and column sums of S (and of ``data``), and
    ``r`` the deleted row sums of the tensor, r_i = s_ii + P_i.  ``edges`` is
    S != 0 off the diagonal, also where s_ij underflows to 0.  Every array is
    read-only.
    """

    dim: int
    data: np.ndarray
    diagonal: np.ndarray
    diag_abs: np.ndarray
    S: np.ndarray
    s_diag: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    r: np.ndarray
    edges: np.ndarray


# largest dense tensor built from a description, in entries (128 MiB of float64)
MAX_ENTRIES = 2 ** 24


def _dense_zeros(order: int, dim: int) -> np.ndarray:
    if dim ** order > MAX_ENTRIES:
        raise TgmatError(f"a dense tensor of order {order} and dimension {dim} has "
                         f"{dim ** order} entries, more than the limit of {MAX_ENTRIES}")
    return np.zeros((dim,) * order)


def build_tensor(order: int, dim: int, entries) -> DenseTensor:
    """Build a dense tensor from a sparse list of (index tuple, value) pairs.

    ``entries`` may be a mapping or an iterable of pairs; index tuples are
    1-based with exactly ``order`` components in 1..dim.  Unlisted tuples
    are zero.  Duplicate tuples are rejected.
    """
    if order < 2:
        raise TgmatError("order must be at least 2")
    if dim < 1:
        raise TgmatError("dim must be at least 1")
    arr = _dense_zeros(order, dim)
    seen = set()
    items = entries.items() if hasattr(entries, "items") else entries
    for idx, val in items:
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


def _diagonal_positions(order: int, dim: int) -> np.ndarray:
    """Flat C-order positions of the diagonal tuples (i, ..., i) in an array of shape (dim,) * order."""
    return np.arange(dim) * sum(dim ** k for k in range(order))


def unit_tensor(order: int, dim: int) -> DenseTensor:
    """Tensor with ones on the diagonal tuples and zeros elsewhere."""
    arr = _dense_zeros(order, dim)
    arr.flat[_diagonal_positions(order, dim)] = 1.0
    return DenseTensor(arr)


def zero_tensor(order: int, dim: int) -> DenseTensor:
    return DenseTensor(_dense_zeros(order, dim))


def diagonal(t: DenseTensor) -> np.ndarray:
    """The signed diagonal entries a_{i...i} as a length-n vector."""
    return t.entries.flat[_diagonal_positions(t.order, t.dim)]


def s_matrix(t: DenseTensor) -> np.ndarray:
    """All statistics s_ij at once, as an n x n nonnegative matrix (the record's ``S``)."""
    return generated_matrix(t).S


def row_sums(t: DenseTensor) -> np.ndarray:
    """Deleted row sums r_i over all non-diagonal tuples starting at i (the record's ``r``)."""
    return generated_matrix(t).r


def _row_pass(t: DenseTensor):
    """Each |A[i]| taken once: the deleted row sums r, and (m - 1) s_ij before the division."""
    m, n = t.order, t.dim
    # trailing axis k holds j: sum over all the others
    others = [tuple(a for a in range(m - 1) if a != k) for k in range(m - 1)]
    r, mass = np.empty(n), np.zeros((n, n))
    for i, p in enumerate(_diagonal_positions(m - 1, n).tolist()):  # p: where (i, ..., i) sits in row i
        row = np.abs(t.entries[i], order="C")  # the same sums whatever the tensor's memory layout
        r[i] = row.sum() - row.flat[p]
        row.flat[p] = 0.0  # the diagonal tuple is excluded everywhere
        for other in others:
            mass[i] += row.sum(axis=other)
    return r, mass


def generated_matrix(t: DenseTensor) -> GeneratedMatrix:
    """The tensor-generated matrix and its statistics, built from one pass over the tensor on the first call."""
    if t._record is None:
        signed = diagonal(t)
        r, mass = _row_pass(t)
        S = mass / (t.order - 1)
        edges = mass != 0.0  # a sum of moduli is 0 only when every term is
        np.fill_diagonal(edges, False)
        s_diag = np.diag(S).copy()
        off = S - np.diag(s_diag)
        arrays = dict(data=off + np.diag(np.abs(signed) - s_diag), diagonal=signed, diag_abs=np.abs(signed),
                      S=S, s_diag=s_diag, P=off.sum(axis=1), Q=off.sum(axis=0), r=r, edges=edges)
        for arr in arrays.values():
            arr.flags.writeable = False
        t._record = GeneratedMatrix(dim=t.dim, **arrays)
    return t._record


def product_radius(P, Q, gamma: float) -> np.ndarray:
    """P_i^gamma Q_i^(1-gamma), the radius of Ostrowski's set and of product gamma-dominance.

    A per-row power of two is factored out of P and Q before the powers, so
    scaling P and Q by a power of two scales the radius exactly.
    """
    e = np.frexp(np.maximum(P, Q))[1]
    return np.ldexp(np.power(np.ldexp(P, -e), gamma) * np.power(np.ldexp(Q, -e), 1.0 - gamma), e)


def mixed_radius(P, Q, gamma: float) -> np.ndarray:
    """gamma P_i + (1 - gamma) Q_i, the radius of the gamma-mixed set and of gamma-dominance."""
    return gamma * P + (1.0 - gamma) * Q


def representation_matrix(t: DenseTensor) -> np.ndarray:
    """R(|A|)_{ij}: total absolute mass of row-i tuples whose index set contains j."""
    n = t.dim
    absA = np.abs(t.entries)
    R = np.zeros((n, n))
    # additive accumulation over nonzero tuples keeps exact zeros exact
    for i in range(n):
        row = absA[i]
        for tup in np.argwhere(row != 0.0):
            val = row[tuple(tup)]
            for j in set(tup.tolist()):
                R[i, j] += val
    return R


def _sym_tolerance(arr: np.ndarray) -> float:
    # exact comparison for integer-valued data, slack relative to the largest |a| otherwise
    if np.all(arr == np.round(arr)):
        return 0.0
    return 1e-12 * float(np.max(np.abs(arr)))


def classify_symmetry(t: DenseTensor) -> str:
    """Classify the tensor as 'none', 'symmetric' or 'strongly_symmetric'.

    Symmetric means invariant under every permutation of the indices.
    Strongly symmetric means constant on each similarity class, where two
    tuples are similar when their sets of distinct indices coincide.
    """
    m, n = t.order, t.dim
    A = t.entries
    tol = _sym_tolerance(A)

    flat = A.ravel()
    idx = np.indices((n,) * m).reshape(m, -1)
    masks = np.bitwise_or.reduce(1 << idx.astype(np.int64), axis=0)
    order = np.argsort(masks, kind="stable")
    sorted_masks = masks[order]
    sorted_vals = flat[order]
    boundaries = np.flatnonzero(np.diff(sorted_masks)) + 1
    strong = True
    for group in np.split(sorted_vals, boundaries):
        if group.max() - group.min() > tol:
            strong = False
            break
    if strong:
        return "strongly_symmetric"

    # invariance under adjacent transpositions generates the full group
    for axis in range(m - 1):
        perm = list(range(m))
        perm[axis], perm[axis + 1] = perm[axis + 1], perm[axis]
        B = np.transpose(A, perm)
        if tol == 0.0:
            if not np.array_equal(A, B):
                return "none"
        elif np.max(np.abs(A - B)) > tol:
            return "none"
    return "symmetric"


def _check_vector(t: DenseTensor, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (t.dim,):
        raise DimensionMismatch(f"vector of length {t.dim} expected, got shape {x.shape}")
    return x


def contract(t: DenseTensor, x) -> np.ndarray:
    """The vector A x^{m-1} with components sum a_{i i2...im} x_{i2}...x_{im}."""
    x = _check_vector(t, x)
    v = t.entries
    for _ in range(t.order - 1):
        v = v @ x
    return v


def contract_jacobian(t: DenseTensor, x) -> np.ndarray:
    """Jacobian of ``contract`` with respect to x, an n x n matrix."""
    x = _check_vector(t, x)
    m, n = t.order, t.dim
    J = np.zeros((n, n))
    for k in range(1, m):
        v = t.entries
        for axis in range(m - 1, 0, -1):
            if axis == k:
                continue
            v = np.tensordot(v, x, axes=(axis, 0))
        J += v
    return J


def poly_value(t: DenseTensor, x) -> float:
    """The homogeneous form A x^m = x . (A x^{m-1})."""
    x = _check_vector(t, x)
    return float(x @ contract(t, x))


def poly_values(t: DenseTensor, X: np.ndarray) -> np.ndarray:
    """Batched homogeneous form over rows of X (shape (batch, n))."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != t.dim:
        raise DimensionMismatch(f"batch of length-{t.dim} vectors expected")
    m, n = t.order, t.dim
    v = np.broadcast_to(t.entries.reshape((1,) + (n,) * m), (X.shape[0],) + (n,) * m)
    for _ in range(m):
        v = np.einsum("bi...,bi->b...", v, X)
    return v


def scale_tensor(t: DenseTensor, d) -> DenseTensor:
    """Multiply each entry by d_{i2}...d_{im} for an entrywise positive d."""
    d = _check_vector(t, d)
    if np.any(d <= 0):
        raise NonPositiveScale("scale vector must be entrywise positive")
    m, n = t.order, t.dim
    out = t.entries.copy()
    for axis in range(1, m):
        shape = [1] * m
        shape[axis] = n
        out = out * d.reshape(shape)
    return DenseTensor(out)


def _parse_value(idx, raw):
    """File-layer values: plain numbers, or [re, im] pairs reduced to moduli."""
    # bool is an int in Python, so JSON true/false would pass as 1.0/0.0
    if isinstance(raw, bool) or (isinstance(raw, (list, tuple)) and any(isinstance(v, bool) for v in raw)):
        raise TgmatError(f"entry {idx}: value must be a number or an [re, im] pair, not a boolean")
    if isinstance(raw, (int, float)):
        return float(raw)
    if isinstance(raw, (list, tuple)) and len(raw) == 2 and all(isinstance(v, (int, float)) for v in raw):
        re, im = float(raw[0]), float(raw[1])
        if im == 0.0:
            return re
        if len(set(idx)) == 1:
            raise ComplexDiagonal(f"diagonal entry {idx} must be real")
        return abs(complex(re, im))
    raise TgmatError(f"entry {idx}: value must be a number or an [re, im] pair")


def tensor_from_json(obj: dict) -> DenseTensor:
    """Parse the tensor JSON format.

    ``{"order": m, "dim": n, "entries": [{"idx": [...], "val": v}, ...]}``
    with 1-based indices and omitted tuples equal to zero.  With
    ``"symmetrize": true`` every listed entry is replicated over all
    permutations of its tuple; conflicting replicas are rejected.
    """
    try:
        order = int(obj["order"])
        dim = int(obj["dim"])
        raw_entries = list(obj["entries"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TgmatError(f"tensor file needs integer 'order', 'dim' and an 'entries' list: {exc}")
    pairs = []
    for pos, item in enumerate(raw_entries):
        try:
            idx = tuple(int(k) for k in item["idx"])
            raw_val = item["val"]
        except (KeyError, TypeError, ValueError, OverflowError):
            raise TgmatError(f"entry #{pos}: expected an object with 'idx' and 'val'")
        if len(idx) != order:
            raise IndexOutOfRange(f"entry #{pos}: idx {list(idx)} does not have {order} components")
        pairs.append((idx, _parse_value(idx, raw_val)))
    if obj.get("symmetrize"):
        canon: dict[tuple, float] = {}
        for idx, val in pairs:
            key = tuple(sorted(idx))
            if key in canon and canon[key] != val:
                raise DuplicateEntry(f"conflicting symmetrized values for tuple class {key}")
            canon[key] = val
        pairs = []
        for key, val in canon.items():
            for perm in set(itertools.permutations(key)):
                pairs.append((perm, val))
    return build_tensor(order, dim, pairs)


def tensor_to_json(t: DenseTensor) -> dict:
    entries = []
    it = np.nditer(t.entries, flags=["multi_index"])
    for val in it:
        if val != 0:
            entries.append({"idx": [k + 1 for k in it.multi_index], "val": float(val)})
    return {"order": t.order, "dim": t.dim, "entries": entries}


def load_tensor(path) -> DenseTensor:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TgmatError(f"{path}: invalid JSON ({exc})")
    return tensor_from_json(obj)
