"""Dense real tensors and the statistics behind their generated matrices.

An order-m, dimension-n tensor is an m-way numpy array of shape (n, ..., n);
a tensor built from a list of entries stores the list, as sorted index rows,
and builds that array on its first read.  User-facing indices are 1-based;
the stored rows and the underlying array are 0-based, as numpy indexes.

The central statistic is the position-weighted row sum

    s_ij = (1/(m-1)) * sum over trailing positions k and over all
           non-diagonal tuples (i, i2, ..., im) with i_k = j of |a_{i i2...im}|,

i.e. a tuple contributes once per trailing position holding j.  The
generated matrix places |a_{i...i}| - s_ii on the diagonal and s_ij off the
diagonal; its deleted row and column sums (P_i, Q_i) drive the dominance
tests and the eigenvalue inclusion regions, and the deleted row sum of the
tensor itself satisfies r_i = s_ii + P_i.  The tensor's digraph has an edge
i -> j (i != j) where (m-1) s_ij, the sum, is nonzero.  ``generated_matrix``
builds this record on its first call for a tensor, from the stored list or
from whole-array sums over |A|, and keeps it on the tensor.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
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
    "generated_matrix",
    "product_radius",
    "mixed_radius",
    "classify_symmetry",
    "contract",
    "poly_value",
    "poly_values",
    "scale_tensor",
    "tensor_from_json",
    "load_tensor",
]


class DenseTensor:
    """Immutable order-m, dimension-n array of real entries (m >= 2).

    ``entries`` is the read-only dense array.  A tensor built from a list of
    entries (``build_tensor``, ``tensor_from_json``, ``unit_tensor``,
    ``zero_tensor``) stores that list: its dense array is built from the
    list on the first read of ``entries``, so a caller that reads only the
    generated matrix or the diagonal never allocates it.  ``_written`` holds
    the list as read-only 0-based index rows (shape (k, m)) and their
    values, sorted by position in the array, listed zeros and -0.0
    included; a tensor made from an array has no list.  ``_record`` holds
    the generated-matrix record once ``generated_matrix`` has built it.

    ``DenseTensor(arr)`` copies ``arr`` and checks that it is finite.  The
    record and the certificate re-check of such a tensor each sum over a
    temporary copy of |A| as large as the array: 128 MiB at the 2^24
    entries of ``MAX_ENTRIES``.  A list-built tensor makes no such copy.
    """

    __slots__ = ("order", "dim", "_entries", "_written", "_record")

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
        self._entries = arr
        self._written = self._record = None

    @classmethod
    def _from_list(cls, order: int, dim: int, written) -> "DenseTensor":
        """The tensor of checked, distinct, sorted index rows and finite values, its dense array not yet built."""
        t = cls.__new__(cls)
        t.order, t.dim = order, dim
        t._entries = t._record = None
        t._written = written
        return t

    @property
    def entries(self) -> np.ndarray:
        """The read-only dense array, built from the stored list on the first read."""
        if self._entries is None:
            cols, vals = self._written
            arr = np.zeros((self.dim,) * self.order)
            arr[tuple(cols.T)] = vals
            arr.flags.writeable = False
            self._entries = arr
        return self._entries

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
# most axes a numpy array may have (numpy 1.x); above order 24 only dimension 1 stays inside MAX_ENTRIES
MAX_ORDER = 32


def _check_size(order: int, dim: int) -> None:
    """Refuse a tensor whose dense array would have more than MAX_ORDER axes or MAX_ENTRIES entries."""
    if order > MAX_ORDER:
        raise TgmatError(f"tensor order {order} is more than the limit of {MAX_ORDER}")
    if dim ** order > MAX_ENTRIES:
        raise TgmatError(f"a dense tensor of order {order} and dimension {dim} has "
                         f"{dim ** order} entries, more than the limit of {MAX_ENTRIES}")


def _is_integer(kind: type) -> bool:
    """Python and numpy integer types; JSON true/false arrive as bool, which Python counts as an int."""
    return kind is not bool and issubclass(kind, (int, np.integer))


def _int_field(obj, key: str) -> int:
    """``obj[key]``, which must be an integer: a float or a boolean is not truncated to one."""
    value = obj[key]
    if not _is_integer(type(value)):
        raise TypeError(f"{key!r} must be an integer, got {type(value).__name__}")
    return int(value)


def _raise_first(checks) -> None:
    """Raise the error of the first row that fails a check; a row's checks are tried in the order given.

    ``checks`` is a list of (bad-row mask, error factory taking the row number).
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        p = int(np.argmax(bad))
        raise next(error(p) for mask, error in checks if mask[p])


def _integer_row(row) -> bool:
    return type(row) in (list, tuple) and all(map(_is_integer, map(type, row)))


def _well_formed(rows, order: int) -> int:
    """Length of the longest prefix of ``rows`` whose rows are lists or tuples of ``order`` integers.

    The types and lengths of the whole list are read at once; a row is
    looked for one by one only when some row is faulty.
    """
    p = len(rows)
    if not (set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) <= {order}):
        p = next(q for q, r in enumerate(rows) if not (type(r) in (list, tuple) and len(r) == order))
    if not all(map(_is_integer, set(map(type, itertools.chain.from_iterable(rows[:p]))))):
        p = next(q for q in range(p) if not _integer_row(rows[q]))
    return p


def _index_array(rows, order: int) -> np.ndarray:
    """Well-formed index rows as a (k, order) int64 array; a component beyond int64 reads as 0, out of range."""
    flat = itertools.chain.from_iterable(rows)
    try:
        idx = np.fromiter(flat, np.int64, len(rows) * order)
    except OverflowError:
        idx = np.array([k if abs(k) < 2 ** 62 else 0 for r in rows for k in r], dtype=np.int64)
    return idx.reshape(len(rows), max(order, 0))  # no row is well formed below order 0; _assemble refuses it


def _float_array(xs) -> np.ndarray:
    """Numbers as floats; an integer beyond the largest float becomes an infinity of its sign."""
    try:
        return np.array(xs, dtype=float)
    except OverflowError:
        return np.array([x if abs(x) <= sys.float_info.max else math.inf if x > 0 else -math.inf for x in xs], dtype=float)


def _repeats(pos: np.ndarray):
    """The stable sort order of ``pos`` and the mask of its entries equal to an earlier entry.

    Found by a stable sort and a comparison of neighbours: numpy's unique
    costs about 12 ms of imports on its first call in a process.
    """
    by_pos = np.argsort(pos, kind="stable")
    repeated = np.zeros(len(pos), dtype=bool)
    repeated[by_pos[1:]] = pos[by_pos[1:]] == pos[by_pos[:-1]]
    return by_pos, repeated


def _label(rows, p: int) -> tuple:
    """Row p of the index rows as a tuple of ints, to name it in an error."""
    return tuple(map(int, rows[p]))


def _assemble(order: int, dim: int, rows, idx: np.ndarray, vals: np.ndarray, symmetric: bool = False) -> DenseTensor:
    """The dense tensor holding ``vals`` at the 1-based index rows ``idx`` (``rows`` names them in errors).

    Raises for the first row that lies outside 1..dim, repeats an earlier
    row or holds a value that is not finite, tried in that order within a
    row.  With ``symmetric`` each value is also written at every
    permutation of its row.  The tensor stores the entries written, sorted
    by position; its dense array is built on the first read.
    """
    if order < 2:
        raise TgmatError("order must be at least 2")
    if dim < 1:
        raise TgmatError("dim must be at least 1")
    _check_size(order, dim)
    strides = dim ** np.arange(order - 1, -1, -1)
    inside = ((idx >= 1) & (idx <= dim)).all(axis=1)
    cols = idx - 1
    # a row out of range gets a position of its own, so it repeats no other row
    pos = np.where(inside, cols @ strides, -1 - np.arange(len(idx)))
    by_pos, repeated = _repeats(pos)
    _raise_first([
        (~inside, lambda p: IndexOutOfRange(f"index tuple {_label(rows, p)} outside 1..{dim}")),
        (repeated, lambda p: DuplicateEntry(f"index tuple {_label(rows, p)} listed twice")),
        (~np.isfinite(vals), lambda p: NonFiniteValue(f"entry {_label(rows, p)} is not finite")),
    ])
    if symmetric:
        # swapping neighbouring components reaches every distinct permutation of a row; a
        # position met before is not followed again, so the work grows with the positions written
        swaps = [np.r_[:a, a + 1, a, a + 2:order] for a in range(order - 1)]
        seen = pos[by_pos]  # the positions written so far, sorted
        written = [(cols, vals, pos)]
        perms, perm_vals = cols, vals
        while len(perms):
            perms = np.concatenate([perms[:, swap] for swap in swaps])
            perm_vals = np.tile(perm_vals, order - 1)
            at = perms @ strides
            met = seen[np.minimum(np.searchsorted(seen, at), len(seen) - 1)] == at
            fresh = ~met & ~_repeats(at)[1]  # one row per new position
            perms, perm_vals, at = perms[fresh], perm_vals[fresh], at[fresh]
            seen = np.sort(np.concatenate([seen, at]))
            written.append((perms, perm_vals, at))
        cols, vals, pos = map(np.concatenate, zip(*written))
        by_pos = np.argsort(pos)
    cols, vals = cols[by_pos], vals[by_pos]
    cols.flags.writeable = vals.flags.writeable = False
    return DenseTensor._from_list(order, dim, (cols, vals))


def build_tensor(order: int, dim: int, entries) -> DenseTensor:
    """Build a tensor from a sparse list of (index tuple, value) pairs.

    ``entries`` may be a mapping or an iterable of pairs; index tuples are
    1-based with exactly ``order`` integer components in 1..dim.  Unlisted
    tuples are zero.  Duplicate tuples are rejected, and so is a tensor of
    more than ``MAX_ENTRIES`` entries.  The tensor stores the list; its
    dense array is built on the first read of ``entries``.
    """
    pairs = list(entries.items() if hasattr(entries, "items") else entries)
    rows = [idx for idx, _ in pairs]
    p = _well_formed(rows, order)
    t = _assemble(order, dim, rows, _index_array(rows[:p], order), _float_array([val for _, val in pairs[:p]]))
    if p < len(rows):
        if _integer_row(rows[p]):
            raise IndexOutOfRange(f"index tuple {_label(rows, p)} does not have {order} components")
        raise TgmatError(f"index tuple {rows[p]!r} is not a tuple of integers")
    return t


def _diagonal_positions(order: int, dim: int) -> np.ndarray:
    """Flat C-order positions of the diagonal tuples (i, ..., i) in an array of shape (dim,) * order."""
    return np.arange(dim) * sum(dim ** k for k in range(order))


def unit_tensor(order: int, dim: int) -> DenseTensor:
    """Tensor with ones on the diagonal tuples and zeros elsewhere."""
    return build_tensor(order, dim, [((i,) * order, 1.0) for i in range(1, dim + 1)])


def zero_tensor(order: int, dim: int) -> DenseTensor:
    return build_tensor(order, dim, [])


def diagonal(t: DenseTensor) -> np.ndarray:
    """The signed diagonal entries a_{i...i} as a length-n vector, read from the entry list where the tensor has one."""
    if t._written is None:
        return t.entries.flat[_diagonal_positions(t.order, t.dim)]
    cols, vals = t._written
    on = (cols == cols[:, :1]).all(axis=1)
    d = np.zeros(t.dim)
    d[cols[on, 0]] = vals[on]
    return d


def _off_abs(t: DenseTensor) -> np.ndarray:
    """|A| as a fresh C-order array with its diagonal tuples (i, ..., i) set to 0."""
    A = np.abs(t.entries, order="C")  # the same sums whatever the tensor's memory layout
    A.flat[_diagonal_positions(t.order, t.dim)] = 0.0
    return A


def _bit_weights(k: int) -> np.ndarray:
    """The number of 1 bits in each of 0 .. 2^k - 1, each doubling appending the counts plus the new top bit."""
    w = np.zeros(1, dtype=np.intp)
    for _ in range(k):
        w = np.concatenate([w, w + 1])
    return w


def _sum_by(keys: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """The float sums of ``weights`` grouped by ``keys`` in 0..size-1, in the order given; a sum beyond the float range is inf."""
    return np.bincount(keys, weights=weights, minlength=size).astype(float, copy=False)  # an empty bincount is of integers


def _off_entries(t: DenseTensor):
    """The entry list's entries off the diagonal tuples: their rows, trailing index columns (shape (k, m - 1)) and moduli.

    A listed zero's modulus, alone or times a finite y, adds +0.0 to sums of nonnegative terms, changing none.
    """
    cols, vals = t._written
    off = (cols != cols[:, :1]).any(axis=1)
    return cols[off, 0], cols[off, 1:], np.abs(vals[off])


def _row_pass(t: DenseTensor):
    """The deleted row sums r, and (m - 1) s_ij before the division.

    Summed from the entry list, in the order of the positions, where the
    tensor has one; otherwise in whole-array reductions over one copy of
    |A|.
    """
    m, n = t.order, t.dim
    if t._written is not None:
        rows, trailing, moduli = _off_entries(t)
        keys = (rows[:, None] * n + trailing).ravel()
        return _sum_by(rows, moduli, n), _sum_by(keys, np.repeat(moduli, m - 1), n * n).reshape(n, n)
    A = _off_abs(t)
    mass = np.zeros((n, n))
    for k in range(m - 1):  # trailing axis k + 1 holds j: sum over all the others
        mass += A.reshape(n, n ** k, n, -1).sum(axis=(1, 3))
    return A.reshape(n, -1).sum(axis=1), mass


def _off_mass(t: DenseTensor, y: np.ndarray) -> np.ndarray:
    """Each row's off-diagonal mass at y > 0: sum |a_{i i2...im}| y_{i2}...y_{im} over the tuples other than (i, ..., i).

    Read from the entry list where the tensor has one, and otherwise
    contracted from one copy of |A|.  A mass beyond the float range is inf,
    with no warning.
    """
    with np.errstate(over="ignore"):
        if t._written is None:
            return _contract(_off_abs(t).reshape(t.dim, -1), y[None], t.order - 1)[0]
        rows, trailing, terms = _off_entries(t)
        for col in trailing.T[::-1]:  # the last index first, as _contract takes them
            terms = terms * y[col]
    return _sum_by(rows, terms, t.dim)


def generated_matrix(t: DenseTensor) -> GeneratedMatrix:
    """The tensor-generated matrix and its statistics, built on the first call and kept on the tensor.

    Raises ``NonFiniteValue`` when r, S, P or Q has a sum beyond the float range.
    """
    if t._record is None:
        signed = diagonal(t)
        with np.errstate(over="ignore"):
            r, mass = _row_pass(t)
            S = mass / (t.order - 1)
            off = S.copy()
            np.fill_diagonal(off, 0.0)
            P, Q = off.sum(axis=1), off.sum(axis=0)
        # the entries are finite, so a statistic is infinite only where a sum overflows
        if not all(np.isfinite(a).all() for a in (r, mass, P, Q)):
            raise NonFiniteValue("a row or column sum of the tensor's moduli is beyond the float range")
        edges = mass != 0.0  # a sum of moduli is 0 only when every term is
        np.fill_diagonal(edges, False)
        s_diag = np.diag(S).copy()
        arrays = dict(data=off + np.diag(np.abs(signed) - s_diag), diagonal=signed, diag_abs=np.abs(signed),
                      S=S, s_diag=s_diag, P=P, Q=Q, r=r, edges=edges)
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


def _sym_tolerance(arr: np.ndarray) -> float:
    # exact comparison for integer-valued data, slack relative to the largest |a| otherwise
    if np.all(arr == np.round(arr)):
        return 0.0
    return 1e-12 * float(np.max(np.abs(arr)))


def _within(A: np.ndarray, B: np.ndarray, tol: float) -> bool:
    """Whether A and B differ by at most tol everywhere (exactly at tol 0); an overflowing difference is not."""
    with np.errstate(over="ignore"):
        return bool(np.abs(A - B).max() <= tol)


def classify_symmetry(t: DenseTensor) -> str:
    """Classify the tensor as 'none', 'symmetric' or 'strongly_symmetric'.

    Symmetric means invariant under every permutation of the indices.
    Strongly symmetric means constant on each similarity class, where two
    tuples are similar when their sets of distinct indices coincide.  For a
    symmetric tensor that is a_{i i j k...} = a_{j i j k...}: such moves, one
    extra copy of an index turned into another index of the tuple, join any
    two similar tuples.  At order 2 symmetric is strongly symmetric.
    """
    A = t.entries
    tol = _sym_tolerance(A)
    # transpositions of neighbouring axes generate the whole group
    if not all(_within(A, np.swapaxes(A, axis, axis + 1), tol) for axis in range(A.ndim - 1)):
        return "none"
    if A.ndim < 3 or _within(np.einsum("ii...->i...", A), np.einsum("jij...->ij...", A), tol):
        return "strongly_symmetric"
    return "symmetric"


def _check_vector(t: DenseTensor, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (t.dim,):
        raise DimensionMismatch(f"vector of length {t.dim} expected, got shape {x.shape}")
    return x


def _contract(E: np.ndarray, X: np.ndarray, q: int) -> np.ndarray:
    """Contract the q trailing length-n axes of E (shape (R, n^q)) with each row of X (shape (k, n)).

    Returns shape (k, R): row b is E x_b^q.  The last axis goes first.  An
    order-m tensor's entries, reshaped to (n, n^(m-1)), give A x^(m-1) at
    q = m - 1.
    """
    k, n = X.shape
    if q == 0:
        return np.broadcast_to(E[:, 0], (k, E.shape[0]))
    W = X @ E.reshape(-1, n).T
    for _ in range(q - 1):
        W = np.matmul(W.reshape(k, W.shape[1] // n, n), X[:, :, None])[:, :, 0]
    return W


def contract(t: DenseTensor, x) -> np.ndarray:
    """The vector A x^{m-1} with components sum a_{i i2...im} x_{i2}...x_{im}."""
    x = _check_vector(t, x)
    return _contract(t.entries.reshape(t.dim, -1), x[None], t.order - 1)[0]


def poly_value(t: DenseTensor, x) -> float:
    """The homogeneous form A x^m = x . (A x^{m-1})."""
    x = _check_vector(t, x)
    return float(x @ contract(t, x))


def poly_values(t: DenseTensor, X: np.ndarray) -> np.ndarray:
    """Batched homogeneous form over rows of X (shape (batch, n))."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != t.dim:
        raise DimensionMismatch(f"batch of length-{t.dim} vectors expected")
    return np.einsum("bi,bi->b", X, _contract(t.entries.reshape(t.dim, -1), X, t.order - 1))


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


def _has_boolean(raw) -> bool:
    return type(raw) is bool or type(raw) in (list, tuple) and bool in map(type, raw)


def _file_values(raw_vals, idx: np.ndarray):
    """File-layer values: plain numbers, or [re, im] pairs reduced to moduli.

    Returns the values and the masks of the entries whose value is not a
    number or a pair of numbers, and of the diagonal entries with a nonzero
    imaginary part.  A list of plain numbers is read in one pass; values are
    walked one by one only where some value is not a plain number.
    """
    if set(map(type, raw_vals)) <= {int, float}:
        clean = np.zeros(len(raw_vals), dtype=bool)
        return _float_array(raw_vals), clean, clean
    parts = [v if type(v) in (list, tuple) and len(v) == 2 else (v, 0.0) for v in raw_vals]
    number = np.array([type(a) in (int, float) and type(b) in (int, float) for a, b in parts], dtype=bool)
    re = _float_array([a if ok else 0.0 for (a, _), ok in zip(parts, number)])
    im = _float_array([b if ok else 0.0 for (_, b), ok in zip(parts, number)])
    with np.errstate(over="ignore"):  # a modulus beyond the largest float is caught as not finite
        vals = np.where(im == 0.0, re, np.hypot(re, im))
    diagonal = (idx == idx[:, :1]).all(axis=1) & (idx.shape[1] > 0)
    return vals, ~number, number & (im != 0.0) & diagonal


def _entry_fields(raw_entries):
    """The lists of each entry's 'idx' and 'val'; both are None for an entry that is not an object holding both."""
    if set(map(type, raw_entries)) <= {dict}:
        try:
            return list(map(operator.itemgetter("idx"), raw_entries)), list(map(operator.itemgetter("val"), raw_entries))
        except KeyError:
            pass
    pairs = [(e["idx"], e["val"]) if type(e) is dict and "idx" in e and "val" in e else (None, None)
             for e in raw_entries]
    return [idx for idx, _ in pairs], [val for _, val in pairs]


def tensor_from_json(obj: dict) -> DenseTensor:
    """Parse the tensor JSON format.

    ``{"order": m, "dim": n, "entries": [{"idx": [...], "val": v}, ...]}``
    with 1-based integer indices and omitted tuples equal to zero.  With
    ``"symmetrize": true`` every listed entry is replicated over all
    permutations of its tuple; conflicting replicas are rejected.  The flag
    must be a boolean or null.  The entry list is checked in whole-list
    passes, and walked entry by entry only to name the first faulty entry
    or to read [re, im] pairs.  A tensor of more than ``MAX_ENTRIES``
    entries is refused here; the tensor stores the entries written, and
    its dense array is built on the first read of ``entries``.
    """
    try:
        order, dim = _int_field(obj, "order"), _int_field(obj, "dim")
        raw_entries = list(obj["entries"])
    except (KeyError, TypeError) as exc:
        raise TgmatError(f"tensor file needs integer 'order', 'dim' and an 'entries' list: {exc}")
    symmetrize = obj.get("symmetrize")
    if not (symmetrize is None or type(symmetrize) is bool):  # a null one means the same as leaving it out
        raise TgmatError(f"tensor file's 'symmetrize' must be true, false or null, got {type(symmetrize).__name__}")
    rows, raw_vals = _entry_fields(raw_entries)
    p = _well_formed(rows, order)
    idx = _index_array(rows[:p], order)
    vals, not_number, complex_diagonal = _file_values(raw_vals[:p], idx)
    _raise_first([
        (not_number, lambda q: TgmatError(f"entry {_label(rows, q)}: value must be a number or an [re, im] pair"
                                          + (", not a boolean" if _has_boolean(raw_vals[q]) else ""))),
        (complex_diagonal, lambda q: ComplexDiagonal(f"diagonal entry {_label(rows, q)} must be real")),
    ])
    if p < len(rows):
        if _integer_row(rows[p]):
            raise IndexOutOfRange(f"entry #{p}: idx {list(rows[p])} does not have {order} components")
        raise TgmatError(f"entry #{p}: expected an object with 'idx', a list of integers, and 'val'")
    if not symmetrize:
        return _assemble(order, dim, rows, idx, vals)
    # one row per class of tuples equal up to order: its first listing, holding its last value
    keys = np.sort(idx, axis=1)
    by_key = np.lexsort([np.arange(len(rows)), *keys.T[::-1]])  # a class's rows stay in list order
    same = (keys[by_key[1:]] == keys[by_key[:-1]]).all(axis=1)
    clash = np.zeros(len(rows), dtype=bool)
    clash[by_key[1:]] = same & (vals[by_key[1:]] != vals[by_key[:-1]])
    _raise_first([(clash, lambda q: DuplicateEntry(
        f"conflicting symmetrized values for tuple class {tuple(sorted(_label(rows, q)))}"))])
    first, last = np.ones(len(rows), dtype=bool), np.ones(len(rows), dtype=bool)
    first[1:] = last[:-1] = ~same
    firsts, lasts = by_key[first], by_key[last]
    keep = np.argsort(firsts)
    firsts, lasts = firsts[keep], lasts[keep]
    return _assemble(order, dim, [rows[q] for q in firsts], idx[firsts], vals[lasts], symmetric=True)


def _read_json(path):
    """The JSON document in the file at ``path``, read for tensor and state files alike.

    Bytes that are not UTF-8, invalid JSON, nesting deeper than the parser's
    recursion limit and integers beyond Python's digit limit are data errors.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise TgmatError(f"{path}: invalid JSON ({exc})")


def load_tensor(path) -> DenseTensor:
    return tensor_from_json(_read_json(path))
