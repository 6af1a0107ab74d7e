"""Golden bitstreams: packet bytes and decoded pixels pinned by SHA-256.

Any change to the transform, the predictor, the density tables or the
range coder that alters a single output byte fails here; the packet
header carries PACKET_VERSION, so these digests pin it at 1 too.  A
deliberate format change must bump PACKET_VERSION and re-pin them.
"""

import hashlib

import numpy as np
import pytest

from resicomp.pipeline import OUTCOME_CONCEALED, PipelineConfig, receive, send
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import CodecConfig

# (mode kind, mode params, L, channels, height, width) -> digest of the
# concatenated Packet.to_bytes() of every slice.
GOLDEN_PACKETS = {
    ("ISC", (), 10, 64, 96, 112):
        "128a7a19885524a0ce9fa799ed043632427f41ccc57125679ed1c8731111b0b8",
    ("LC", (), 10, 64, 96, 112):
        "e50352dd66f648767b2ba0db27abe0de5ea2d84ba69833bd04bf45cda28eb0a9",
    ("MDC", (("n_d", 2),), 10, 64, 96, 112):
        "a0b79336887669e71cdda132d01d28053ece0e00da8a9d39cf04a179ab566702",
    ("SLC", (("enhancements", 1),), 10, 64, 96, 112):
        "a8b87df1d1093acc9d733d96fe4be2bd895816956172a8e3494fb4f81fb94d6a",
    ("LC", (), 4, 16, 64, 64):
        "1fdfd67b1d2cd7420824076780bf8b33f7c1f2628dbb124ae7ff00fbc434b948",
}

# MDC:2 L=10 at C=64 with slices 3 and 8 lost: description 1 loses its
# tail from slice 3 on, description 2 from slice 8 on.
LOSSY_FLAGS = [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]
GOLDEN_LOSSY_IMAGE = (
    "a935b3e6e04d5298b6ed3868dddcd2092869de841c30f457250019a6031c2b27")
# LC L=10 at C=64, nothing lost.
GOLDEN_LOSSLESS_IMAGE = (
    "8472fa2abaa312eb754f60e7b1ad6309c8745dabba60b6a9db8b6c5455ee865d")


def _sha256(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _image_digest(image):
    return _sha256([np.ascontiguousarray(image).tobytes()])


def _config(kind, params, l, channels):
    return PipelineConfig(codec=CodecConfig(channels=channels), mode_kind=kind,
                          l=l, mode_params=dict(params))


@pytest.mark.parametrize("key", list(GOLDEN_PACKETS),
                         ids=lambda k: f"{k[0]}-L{k[2]}-C{k[3]}")
def test_packet_bytes_are_pinned(key):
    kind, params, l, channels, height, width = key
    image = synthetic_image(0, height=height, width=width)
    packets, _, _, _ = send(image, _config(kind, params, l, channels))
    assert _sha256(p.to_bytes() for p in packets) == GOLDEN_PACKETS[key]


def test_decoded_images_are_pinned():
    image = synthetic_image(0)
    cfg = _config("LC", (), 10, 64)
    packets, _, _, _ = send(image, cfg)
    result = receive(packets, [1] * 10, cfg, *image.shape)
    assert _image_digest(result.image) == GOLDEN_LOSSLESS_IMAGE

    cfg = _config("MDC", (("n_d", 2),), 10, 64)
    packets, _, _, _ = send(image, cfg)
    result = receive(packets, LOSSY_FLAGS, cfg, *image.shape)
    assert result.outcome == OUTCOME_CONCEALED
    assert _image_digest(result.image) == GOLDEN_LOSSY_IMAGE
