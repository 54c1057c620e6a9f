"""Every JSON example in README.md loads with the parser its keys name, and the
Python example runs and gives the values its comments state."""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import tgmat.spin as spin
import tgmat.tensor as tz

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_json_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("text", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_json_example_loads(text):
    obj = json.loads(text)
    if "order" in obj:
        t = tz.tensor_from_json(obj)
        assert (t.order, t.dim) == (obj["order"], obj["dim"])
    else:
        assert spin.state_from_json(obj).m == obj["m"]


def test_readme_python_example_runs():
    assert len(PYTHON_BLOCKS) == 1
    ns = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(PYTHON_BLOCKS[0], ns)
    assert np.array_equal(ns["generated_matrix"](ns["t"]).data, [[3.0, 3.0], [3.0, 4.0]])
    assert ns["cert"].rule == "DoublySDD"
    # the comments truncate: 0.4586..., 12.8541..., -1.8e-14, 14.0000...
    rb = ns["rb"]
    assert str(rb.lower).startswith("0.4586") and str(rb.upper).startswith("12.8541")
    (lower, upper), cassini = [(b.lower, b.upper) for b in ns["table"]]
    assert str(lower).startswith("-1.8") and str(lower).endswith("e-14") and str(upper).startswith("14.0000")
    assert cassini == (rb.lower, rb.upper)
    assert [round(p.value, 4) for p in ns["h_eigen_exact_2d"](ns["t"])] == [0.4725, 12.7389]
