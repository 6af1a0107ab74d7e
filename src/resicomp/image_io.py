"""PPM image I/O and quality metrics.

Binary PPM (P5 grayscale / P6 color, maxval 255) is the native format.
PNG works when Pillow is importable; it is an optional extra, not a
hard dependency.
"""

from __future__ import annotations

import numpy as np

PSNR_CAP_DB = 100.0


def _read_token(f):
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise ValueError("truncated PPM header")
        if ch.isspace():
            if tok:
                return tok
            continue
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        tok += ch


def read_ppm(path) -> np.ndarray:
    """Read binary PPM; returns (H, W) for P5 or (H, W, 3) for P6."""
    with open(path, "rb") as f:
        magic = _read_token(f)
        if magic not in (b"P5", b"P6"):
            raise ValueError(f"unsupported PPM magic {magic!r}")
        width = int(_read_token(f))
        height = int(_read_token(f))
        maxval = int(_read_token(f))
        if maxval != 255:
            raise ValueError("only maxval 255 is supported")
        planes = 1 if magic == b"P5" else 3
        data = f.read(width * height * planes)
        if len(data) != width * height * planes:
            raise ValueError("truncated PPM payload")
    pixels = np.frombuffer(data, dtype=np.uint8)
    if planes == 1:
        return pixels.reshape(height, width)
    return pixels.reshape(height, width, 3)


def write_ppm(path, pixels: np.ndarray):
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim == 2:
        magic, planes = b"P5", 1
    elif pixels.ndim == 3 and pixels.shape[2] == 3:
        magic, planes = b"P6", 3
    else:
        raise ValueError("expected (H, W) or (H, W, 3) uint8 array")
    height, width = pixels.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (width, height))
        f.write(pixels.tobytes())


def read_image(path) -> np.ndarray:
    """Read PPM natively; fall back to Pillow for other formats."""
    name = str(path).lower()
    if name.endswith((".ppm", ".pgm")):
        return read_ppm(path)
    try:
        from PIL import Image
    except ImportError as exc:
        raise ValueError(
            f"cannot read {path}: only PPM is supported without Pillow"
        ) from exc
    img = Image.open(path)
    if img.mode not in ("L", "RGB"):
        img = img.convert("RGB")
    return np.asarray(img)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error of two 8-bit images of one shape.

    The squared differences are summed as an exact integer and divided
    by the sample count once.  That is float64 `np.mean((a - b) ** 2)`
    bit for bit: below 2**37 samples each of its partial sums is an
    integer below 2**53.
    TypeError for samples that are not 8-bit integers.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    for image in (a, b):
        if image.dtype.kind not in "iu" or image.dtype.itemsize != 1:
            raise TypeError(f"mse needs 8-bit integer images, not "
                            f"{image.dtype}")
    diff = np.subtract(a, b, dtype=np.int32)
    return int(np.square(diff).sum(dtype=np.int64)) / diff.size


def psnr_db(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """PSNR in dB, capped so identical images stay finite."""
    err = mse(a, b)
    if err == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(peak * peak / err))
