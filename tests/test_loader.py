"""The array loader behind build_tensor and tensor_from_json, against the entry-by-entry reference.

Well-formed lists load bit-identically to ``conftest.reference_tensor_from_json``
and ``conftest.reference_build_tensor``; malformed ones raise the same error
class naming the same first bad entry.  A tensor written to a file and read
back builds the array it came from, and its diagonal is the same read from
the stored list or from the array.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_build_tensor, reference_tensor_from_json
from tgmat.errors import IndexOutOfRange, TgmatError
from tgmat.tensor import MAX_ORDER, DenseTensor, build_tensor, diagonal, load_tensor, tensor_from_json

LOADER_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# finite values, with the signed zeros and subnormals that a careless copy would lose
FLOATS = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]))
NUMBERS = st.one_of(FLOATS, st.integers(-2 ** 60, 2 ** 60))
VALUES = st.one_of(NUMBERS, st.tuples(NUMBERS, st.one_of(st.just(0.0), st.just(-0.0), FLOATS)).map(list))


def outcome(load, *args):
    """('ok', entries) or (error class, message) of one load."""
    try:
        return "ok", load(*args).entries
    except TgmatError as exc:
        return type(exc), str(exc)


def assert_same(new, ref, symmetrize=False):
    assert new[0] == ref[0], (new, ref)
    if new[0] == "ok":
        assert new[1].shape == ref[1].shape and new[1].tobytes() == ref[1].tobytes()
    elif symmetrize:
        # the reference names some permutation of a replicated tuple; the loader names the listed one
        def tuples(msg):
            return re.sub(r"\(([-\d, ]+)\)", lambda m: str(sorted(int(k) for k in m.group(1).split(","))), msg)
        assert tuples(new[1]) == tuples(ref[1])
    else:
        assert new[1] == ref[1]


@st.composite
def tensor_objects(draw):
    """A tensor JSON object with distinct index tuples, sometimes symmetrized with values shared by each class."""
    symmetrize = draw(st.booleans())
    # a symmetrized tensor of order 5 or 6 sorts 4 or 5 trailing axes when its array is built
    order, dim = draw(st.integers(2, 6 if symmetrize else 4)), draw(st.integers(1, 3))
    tuples = draw(st.lists(st.tuples(*[st.integers(1, dim)] * order), unique=True, max_size=10))
    if symmetrize and draw(st.booleans()):
        by_class = {}
        vals = []
        for tup in tuples:
            v = by_class.setdefault(tuple(sorted(tup)), draw(FLOATS))
            vals.append(-v if v == 0.0 and draw(st.booleans()) else v)  # 0.0 and -0.0 do not conflict
    else:
        vals = [draw(VALUES) for _ in tuples]
    return {"order": order, "dim": dim, "symmetrize": symmetrize,
            "entries": [{"idx": list(t), "val": v} for t, v in zip(tuples, vals)]}


def bad_entry(draw, order, dim, entries):
    """One entry with one or two faults: bad arity, out of range, duplicate, not finite, boolean, complex diagonal."""
    faults = draw(st.sets(st.sampled_from(["arity", "range", "duplicate", "nonfinite", "boolean", "complex_diagonal"]),
                          min_size=1, max_size=2))
    idx, val = list(draw(st.tuples(*[st.integers(1, dim)] * order))), draw(FLOATS)
    if "complex_diagonal" in faults:
        idx, val = [draw(st.integers(1, dim))] * order, [draw(FLOATS), draw(st.sampled_from([1.0, -2.5, 5e-324]))]
    if "duplicate" in faults and entries:
        idx = list(draw(st.sampled_from(entries))["idx"])
    if "range" in faults:
        idx[draw(st.integers(0, len(idx) - 1))] = draw(st.sampled_from([0, -1, dim + 1]))
    if "arity" in faults:
        idx = idx + [1] if draw(st.booleans()) else idx[:-1]
    if "nonfinite" in faults:
        val = draw(st.sampled_from([math.nan, math.inf, -math.inf, [1.0, math.nan]]))
    if "boolean" in faults:
        val = draw(st.sampled_from([True, False, [1.0, True]]))
    return {"idx": idx, "val": val}


@st.composite
def malformed_objects(draw):
    obj = draw(tensor_objects())
    entries = obj["entries"]
    for _ in range(draw(st.integers(1, 3))):
        entries.insert(draw(st.integers(0, len(entries))), bad_entry(draw, obj["order"], obj["dim"], entries))
    return obj


class TestMatchesReference:
    @LOADER_SETTINGS
    @given(tensor_objects())
    def test_json_lists_load_bit_identically(self, obj):
        assert_same(outcome(tensor_from_json, obj), outcome(reference_tensor_from_json, obj), obj["symmetrize"])

    @LOADER_SETTINGS
    @given(malformed_objects())
    def test_json_errors_name_the_same_first_entry(self, obj):
        assert_same(outcome(tensor_from_json, obj), outcome(reference_tensor_from_json, obj), obj["symmetrize"])

    @LOADER_SETTINGS
    @given(malformed_objects())
    def test_build_tensor_matches(self, obj):
        pairs = [(tuple(e["idx"]), e["val"]) for e in obj["entries"] if not isinstance(e["val"], (bool, list))]
        order, dim = obj["order"], obj["dim"]
        assert_same(outcome(build_tensor, order, dim, pairs), outcome(reference_build_tensor, order, dim, pairs))

    def test_symmetrize_keeps_the_last_signed_zero(self):
        for first, last in ((0.0, -0.0), (-0.0, 0.0)):
            obj = {"order": 2, "dim": 2, "symmetrize": True,
                   "entries": [{"idx": [1, 2], "val": first}, {"idx": [2, 1], "val": last}]}
            t = tensor_from_json(obj)
            assert t.entries.tobytes() == reference_tensor_from_json(obj).entries.tobytes()
            assert math.copysign(1.0, t.entries[1, 0]) == math.copysign(1.0, last)


@st.composite
def arrays(draw):
    """A tensor's array, mostly zeros and sometimes symmetric, and whether its file is symmetrized."""
    order, dim = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    symmetrize = draw(st.booleans())
    value = st.one_of(st.just(0.0), FLOATS)
    arr = np.zeros((dim,) * order)
    by_class = {}
    for tup in itertools.product(range(dim), repeat=order):
        arr[tup] = by_class.setdefault(tuple(sorted(tup)), draw(value)) if symmetrize else draw(value)
    return arr, symmetrize


class TestRoundTrip:
    @LOADER_SETTINGS
    @given(arrays())
    def test_written_file_reads_back_bit_identically(self, tmp_path_factory, drawn):
        arr, symmetrize = drawn
        listed = [(tup, float(arr[tup])) for tup in itertools.product(range(arr.shape[0]), repeat=arr.ndim)
                  if arr[tup] != 0.0 or math.copysign(1.0, arr[tup]) < 0.0]
        # a symmetrized file lists one tuple of each class
        written = [(tup, v) for tup, v in listed if not symmetrize or list(tup) == sorted(tup)]
        path = tmp_path_factory.mktemp("roundtrip") / "t.json"
        path.write_text(json.dumps({"order": arr.ndim, "dim": arr.shape[0], "symmetrize": symmetrize,
                                    "entries": [{"idx": [k + 1 for k in tup], "val": v} for tup, v in written]}))
        t = load_tensor(path)
        built = build_tensor(arr.ndim, arr.shape[0], [(tuple(k + 1 for k in tup), v) for tup, v in listed])
        before = diagonal(t).tobytes()
        assert t.entries.tobytes() == arr.tobytes() == built.entries.tobytes() and t.entries.shape == arr.shape
        assert diagonal(t).tobytes() == before == diagonal(DenseTensor(arr)).tobytes() == diagonal(built).tobytes()


class TestIntegerFields:
    def test_numpy_integers_accepted(self):
        t = build_tensor(2, 2, {(np.int64(1), np.int32(2)): 3.0})
        assert t.entries[0, 1] == 3.0

    def test_build_tensor_rejects_float_indices(self):
        with pytest.raises(TgmatError, match="integers"):
            build_tensor(2, 2, {(1.0, 2): 3.0})

    def test_bad_entry_after_a_good_one_is_named(self):
        obj = {"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "val": 1.0}, {"idx": [1, 2.5], "val": 1.0}]}
        with pytest.raises(TgmatError, match="#1"):
            tensor_from_json(obj)


class TestOutOfScale:
    """Inputs the entry-by-entry parse met with a traceback or hours of work."""

    def test_index_beyond_int64(self):
        obj = {"order": 2, "dim": 2, "entries": [{"idx": [1, 2 ** 70], "val": 1.0}]}
        with pytest.raises(IndexOutOfRange, match=str(2 ** 70)):
            tensor_from_json(obj)

    @pytest.mark.parametrize("order,dim", [(MAX_ORDER + 1, 1), (10 ** 18, 2)])
    def test_order_beyond_the_limit(self, order, dim):
        with pytest.raises(TgmatError, match="limit"):
            tensor_from_json({"order": order, "dim": dim, "entries": []})

    def test_symmetrize_at_a_high_order(self):
        # the class is stored as two rows, (1, ..., 1, 2) and (2, 1, ..., 1), standing for 19 and 1 of
        # its 20 distinct permutations; none of its 20! orderings is enumerated
        obj = {"order": 20, "dim": 2, "symmetrize": True, "entries": [{"idx": [1] * 19 + [2], "val": 0.5}]}
        t = tensor_from_json(obj)
        assert t._written[2].tolist() == [19, 1]
        assert np.count_nonzero(t.entries) == 20 and t.entries[(0,) * 19 + (1,)] == t.entries[(1,) + (0,) * 19] == 0.5

    def test_order_at_the_limit(self):
        assert tensor_from_json({"order": MAX_ORDER, "dim": 1, "entries": []}).order == MAX_ORDER
