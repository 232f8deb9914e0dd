import numpy as np
import pytest

import excursia as ex

VALID_MODELS = [
    ex.Diffusion(d=1),
    ex.Diffusion(d=2),
    ex.Diffusion(d=5),
    ex.RandomAcceleration(),
    ex.ShiftedGaussian(alpha=0.0),
    ex.MaternHalfInteger(nu=2.5),
    ex.MaternHalfInteger(nu=3.5),
    ex.MaternHalfInteger(nu=4.5),
    ex.GeneralizedLaplace(alpha=1.0),
]

ALL_MODELS = VALID_MODELS + [ex.ShiftedGaussian(alpha=2.0)]


@pytest.fixture
def rng():
    return ex.RngStream(20240042, 0)


def apply_inverse(inverse, u):
    """A sampler's inverse applied to the uniforms ``u`` in one chunk."""
    u = np.array(u, dtype=float, ndmin=1)
    return inverse(u)
