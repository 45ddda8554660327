import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def small_dataset():
    from advface.synthface import generate_dataset

    return generate_dataset(3, 3, 64, seed=5)


@pytest.fixture(scope="session")
def default_model():
    from advface.featnet import default_network

    return default_network(0)


@pytest.fixture
def forwards(monkeypatch):
    """The (model, image count) of each featnet.forward_batch call, in call order;
    each call still runs. List it after the fixtures whose setup forwards."""
    from advface import featnet

    calls = []
    real = featnet.forward_batch

    def recording(model, images, *args, **kwargs):
        calls.append((model, images.shape[0]))
        return real(model, images, *args, **kwargs)

    monkeypatch.setattr(featnet, "forward_batch", recording)
    return calls


def random_landmarks(rng: np.random.Generator, size: int):
    """A valid LandmarkSet with simple rectangular masks on a size x size image."""
    from advface.imagecore import Point, Polygon
    from advface.synthface import LandmarkSet

    hi = size - 1
    eye_y = int(rng.integers(size // 4, size // 2))
    x_le = int(rng.integers(2, size // 2 - 4))
    x_re = int(rng.integers(size // 2 + 2, size - 3))
    top = int(rng.integers(1, eye_y)) if eye_y > 1 else 0
    forehead = Polygon([(2, top), (hi - 2, top), (hi - 2, eye_y), (2, eye_y)])
    beard_top = int(rng.integers(size // 2 + 2, size - 4))
    beard = Polygon([(3, beard_top), (hi - 3, beard_top),
                     (hi - 3, hi - 1), (3, hi - 1)])
    return LandmarkSet(
        left_eye=Point(x_le, eye_y),
        right_eye=Point(x_re, eye_y),
        nose=Point(size // 2, min(eye_y + 5, hi)),
        mouth_center=Point(size // 2, min(eye_y + 10, hi)),
        forehead_polygon=forehead,
        beard_polygon=beard,
    )


def fnet_bytes(conv_w=None, conv_in=1, window=2, pool_stride=2, dense_in=8,
               dense_b=None, tail=b""):
    """FNET1 bytes of a 4x4x1 net: conv(2 filters, 3x3, pad 1), relu, maxpool,
    flatten, dense(3), tapped after the relu and the dense layer. The defaults
    give a valid file; each argument changes one field as written."""
    conv_w = np.ones((2, conv_in, 3, 3), "<f4") if conv_w is None else conv_w
    dense_b = np.zeros(3, "<f4") if dense_b is None else dense_b
    return b"".join([
        b"FNET1", struct.pack("<IIIIIII", 5, 4, 4, 1, 2, 1, 4),
        struct.pack("<BIIIII", 0, 2, conv_in, 3, 1, 1),
        np.asarray(conv_w, "<f4").tobytes(), np.zeros(2, "<f4").tobytes(),
        struct.pack("<B", 1),
        struct.pack("<BII", 2, window, pool_stride),
        struct.pack("<B", 3),
        struct.pack("<BII", 4, 3, dense_in), np.ones((3, dense_in), "<f4").tobytes(),
        np.asarray(dense_b, "<f4").tobytes(),
        tail,
    ])


def overflowing_network(model):
    """model with its first conv's weights scaled by 1e36: finite, so NetworkModel and
    FNET1's loader accept it, but its embeddings' L2 norms overflow float32."""
    import dataclasses

    first = model.layers[0]
    return dataclasses.replace(model, layers=(
        dataclasses.replace(first, weights=first.weights * np.float32(1e36)),
        *model.layers[1:]))


def conv_layer(rng, o, c):
    from advface.featnet import LayerDef

    return LayerDef("conv", rng.standard_normal((o, c, 3, 3)).astype(np.float32),
                    (0.1 * rng.standard_normal(o)).astype(np.float32), pad=1)


def relu_pool_relu(rng):
    """conv -> relu -> maxpool -> relu: more ReLUs than convs. Returns the
    layers and, per conv, the layer count up to its response and that shape."""
    from advface.featnet import LayerDef

    return ((conv_layer(rng, 4, 1), LayerDef("relu"), LayerDef("maxpool", stride=2),
             LayerDef("relu")),
            [(2, (4, 64, 64))])


def pool_between_convs(rng):
    """conv -> maxpool -> conv -> relu: the first conv has no ReLU of its own."""
    from advface.featnet import LayerDef

    return ((conv_layer(rng, 4, 1), LayerDef("maxpool", stride=2), conv_layer(rng, 4, 4),
             LayerDef("relu")),
            [(1, (4, 64, 64)), (4, (4, 32, 32))])
