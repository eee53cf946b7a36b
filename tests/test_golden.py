"""Golden outputs (``tools/golden.py``): the walkthrough model's 2-epoch
weights at both gradient clips and the pinned fixture's perplexity per
split, byte for byte on the toolchain that recorded them, within 1e-9
relative on any other."""

import importlib.util
import os

import numpy as np
import pytest

GOLDEN_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "tools", "golden.py")


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden", GOLDEN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_outputs_match(golden):
    assert golden.check() == []


def test_mismatch_names_the_value_and_honours_the_mode(golden):
    want = np.array([1.0, -2.0])
    ulp = np.nextafter(want, 3.0)
    assert golden.mismatch("x", want.copy(), want, exact=True) is None
    assert "block y" in golden.mismatch("block y", ulp, want, exact=True)
    assert golden.mismatch("x", ulp, want, exact=False) is None
    assert "split test" in golden.mismatch("split test", want * (1 + 1e-8), want, exact=False)
    assert "shape" in golden.mismatch("x", want[:1], want, exact=False)
