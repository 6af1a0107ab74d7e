import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from resicomp.image_io import PSNR_CAP_DB, mse, psnr_db


@st.composite
def _image_pairs(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    shape = draw(st.sampled_from([(h, w), (h, w, 3)]))
    a = draw(arrays(np.uint8, shape))
    b = draw(st.just(a.copy()) | arrays(np.uint8, shape))
    return a, b


@settings(max_examples=200, deadline=None)
@given(_image_pairs())
def test_integer_mse_equals_the_float64_mean(pair):
    a, b = pair
    want = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    got = mse(a, b)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    if np.array_equal(a, b):
        assert got == 0.0 and psnr_db(a, b) == PSNR_CAP_DB


def test_mse_at_the_largest_errors():
    white = np.full((256, 256, 3), 255, np.uint8)
    black = np.zeros_like(white)
    assert mse(white, black) == 255.0 ** 2
    assert mse(black, white) == 255.0 ** 2


def test_mse_refuses_what_it_cannot_sum_exactly():
    image = np.zeros((4, 4), np.uint8)
    with pytest.raises(ValueError, match="shape"):
        mse(image, np.zeros((4, 5), np.uint8))
    for other in (image.astype(np.float64), image.astype(np.uint16)):
        with pytest.raises(TypeError, match="8-bit"):
            mse(image, other)
