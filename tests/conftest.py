import numpy as np
import pytest
from numpy.random import default_rng

from boundshift import pipeline
from boundshift.embedder import PredictionErrorEmbedder
from boundshift.fixtures import generate_corpus


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """The deterministic synthetic corpus, generated once per session."""
    out = tmp_path_factory.mktemp("corpus")
    generate_corpus(out)
    return out


@pytest.fixture
def fresh_embedder(monkeypatch):
    """A call that gives pipeline a new embedder for the rest of the test.
    An embedder keeps the error grid of the last image it analysed, so a
    count of predictions made after the call does not depend on what the
    test, or the tests before it, analysed earlier."""
    def fresh():
        monkeypatch.setattr(pipeline, "_EMBEDDER", PredictionErrorEmbedder())
        return pipeline._EMBEDDER
    return fresh


def smooth_image(seed, h=32, w=32, mean=128.0, sigma=12.0):
    """Blocky low-frequency test image with values well inside the range."""
    rng = default_rng(seed)
    coarse = rng.normal(mean, sigma, (h // 4 + 1, w // 4 + 1))
    field = np.kron(coarse, np.ones((4, 4)))[:h, :w]
    return np.clip(np.rint(field), 0, 255).astype(np.uint8)


def random_image(seed, h=16, w=16, lo=0, hi=256):
    return default_rng(seed).integers(lo, hi, size=(h, w), dtype=np.int64).astype(np.uint8)
