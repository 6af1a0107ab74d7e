"""Golden bitstreams: packet bytes and decoded pixels pinned by SHA-256.

Any change to the transform, the predictor, the density tables or the
range coder that alters a single output byte fails here; the packet
header carries PACKET_VERSION, so these digests pin it at 4 too.  A
deliberate format change must bump PACKET_VERSION and re-pin them.
The payload digests pin the coded bits alone: a header change leaves
them as they are.  Version 3 snaps the local mixture component to a
grid, which changed every payload that has a known neighbour.  Version
4 codes each position's channels as one block, up to its last symbol
that is not its table's likeliest, which changed every payload.  The
decoded tokens are the same, so the decoded-image digests are those of
version 3.
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
        "7934bb0029f182af79d728ee610e526b0ca38ff81ac83924eaaeafbbbb125a56",
    ("LC", (), 10, 64, 96, 112):
        "f9fd89d6ef4e1bad9cbc4c6239c2a586aee42ed31fd0e2de7d5e7ac22c109db6",
    ("MDC", (("n_d", 2),), 10, 64, 96, 112):
        "c355cb951b3a25e7c684fbe68cc516592ff6f6dbc92bff301feb1a1d40a6bf3e",
    ("SLC", (("enhancements", 1),), 10, 64, 96, 112):
        "38d6139c715e770560ed37b42c6a99ee517ec54c84de99b94cc2d4a38f6c8fef",
    ("LC", (), 4, 16, 64, 64):
        "4407a57adc8c1321c8ff8b7bd084549cb92b22be761d4da2b03b406b2f5080a1",
}

# Same keys -> digest of the concatenated payload bytes alone.  These
# pin the coded bits apart from the header, so a header format change
# leaves them as they are.
GOLDEN_PAYLOADS = {
    ("ISC", (), 10, 64, 96, 112):
        "43367d2b5b7ae1a91ce60555ab3770395f98ac44d36d221d2c881d8edab94f13",
    ("LC", (), 10, 64, 96, 112):
        "206fdebc8e07c6e935824076f370034e44bbd95884fadca0bdd031cd480cf946",
    ("MDC", (("n_d", 2),), 10, 64, 96, 112):
        "de73df92b356b038422d94354cdac0f416d757526879f35493f0ab1e78a408c9",
    # SLC:1 has LC's context matrix and default beta, so LC's bits.
    ("SLC", (("enhancements", 1),), 10, 64, 96, 112):
        "206fdebc8e07c6e935824076f370034e44bbd95884fadca0bdd031cd480cf946",
    ("LC", (), 4, 16, 64, 64):
        "2b4925290ff4b29f112afcf9474628fe1709c32e01787d805c8fb2bd39c2c66e",
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
    assert _sha256(p.payload.data for p in packets) == GOLDEN_PAYLOADS[key]


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
