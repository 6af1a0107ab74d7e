import numpy as np
import pytest

from resicomp import pipeline
from resicomp.synthetic import synthetic_corpus, synthetic_image
from resicomp.token_codec import CodecConfig


@pytest.fixture(scope="session")
def corpus():
    """Ten deterministic smooth test images."""
    return synthetic_corpus(10)


@pytest.fixture(scope="session")
def smooth_image():
    return synthetic_image(0)


@pytest.fixture(scope="session")
def small_image():
    # 48x48 -> 3x3 token grid, enough for L up to 9.
    return synthetic_image(7, height=48, width=48)


@pytest.fixture(scope="session")
def default_codec():
    return CodecConfig()


@pytest.fixture(scope="session")
def light_codec():
    # Fewer channels: same transport path, much faster episodes.
    return CodecConfig(channels=16)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def empty_stores():
    """Empty the process's table stores; calling the fixture's value
    empties them again."""
    pipeline._stores.clear()
    return pipeline._stores.clear


@pytest.fixture
def empty_layouts():
    """Empty the process's stream layouts before and after the test."""
    pipeline.stream_layout.cache_clear()
    yield
    pipeline.stream_layout.cache_clear()
