"""Every JSON example in README.md loads with the parser its keys name."""

import json
import re
from pathlib import Path

import pytest

import tgmat.spin as spin
import tgmat.tensor as tz

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


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
