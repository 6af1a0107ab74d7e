"""The three benchmark workloads: inputs from a seed, one item at a time.

Every workload is a closed loop over a fixed list of items (one pass),
made from the seed alone.  Each item returns its timings, the number of
token symbols it codes, its rate/quality samples and, if an output check
failed, why.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

import numpy as np

RESICOMP_MODULES = ("cli", "pipeline", "transport", "token_codec",
                    "synthetic", "density", "entropy_coder")


def load_resicomp():
    """Import resicomp afresh, so module-level work is paid on every call."""
    for name in [m for m in sys.modules
                 if m == "resicomp" or m.startswith("resicomp.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module(f"resicomp.{name}")
        for name in RESICOMP_MODULES
    })


@dataclass
class ItemResult:
    seconds: float  # wall time of the whole item
    send_s: float  # per send call, including serialization
    receive_s: float  # per receive call, including packet parsing
    receiver_s: float  # all receiver work of the item
    coded_s: float  # time inside send and receive calls
    symbols: int  # token positions x channels of the coded grid
    bpp: float  # payload bits per pixel of the item's packets
    psnr: list = field(default_factory=list)  # one per decode
    failed: list = field(default_factory=list)  # one per decode
    check: str | None = None  # why an output check failed


def _seeds(seed, tag, n):
    rng = np.random.default_rng([seed, tag])
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def _mosaic(rc, seeds, per_side, tile):
    """Square image of per_side**2 seeded synthetic fields, tile px each.

    Averaging many fields keeps content statistics (and so bpp) close
    from one seed to the next, which a single smooth field does not.
    """
    tiles = iter(seeds)
    rows = [np.hstack([rc.synthetic.synthetic_image(next(tiles), tile, tile)
                       for _ in range(per_side)]) for _ in range(per_side)]
    return np.vstack(rows)


def _grid_symbols(rc, height, width, channels):
    block = rc.token_codec.BLOCK
    return -(-height // block) * -(-width // block) * channels


def _config(rc, channels, spec, l, image_id=0):
    kind, params = rc.cli.parse_mode_spec(spec)
    return rc.pipeline.PipelineConfig(
        codec=rc.token_codec.CodecConfig(channels=channels),
        mode_kind=kind, l=l, mode_params=params, image_id=image_id)


def _send_serialized(rc, image, cfg):
    t0 = perf_counter()
    packets, grid, _, _ = rc.pipeline.send(image, cfg)
    wire = [p.to_bytes() for p in packets]
    return packets, grid, wire, perf_counter() - t0


def _parse(rc, wire):
    t0 = perf_counter()
    parsed = [rc.transport.packet_from_bytes(b) for b in wire]
    return parsed, perf_counter() - t0


def warm_up(rc, seed, channels):
    """A 64x64 episode through every layer: wire format, loss, concealment.

    Runs in set-up so lazy work is done before timing, and once more at
    the start of a traced run so each layer has at least one span.
    Returns a failed check's description, or None.
    """
    image = rc.synthetic.synthetic_image(_seeds(seed, 0, 1)[0], 64, 64)
    cfg = _config(rc, channels, "LC", 4)
    packets, grid, wire, _ = _send_serialized(rc, image, cfg)
    parsed, _ = _parse(rc, wire)
    trace = rc.cli.sample_trace(rc.transport.preset("EP6"), len(parsed), seed)
    flags = [True] * len(parsed)
    whole = rc.pipeline.receive(parsed, flags, cfg, 64, 64)
    flags[-1] = False
    lossy = rc.pipeline.receive(parsed, flags, cfg, 64, 64)
    if parsed != packets or len(trace) != len(parsed):
        return "warm-up: packet round trip or trace length"
    if (whole.outcome != rc.pipeline.OUTCOME_LOSSLESS
            or not np.array_equal(whole.grid.values, grid.values)):
        return "warm-up: lossless decode differs from the sender's tokens"
    if lossy.outcome != rc.pipeline.OUTCOME_CONCEALED:
        return f"warm-up: lossy decode gave {lossy.outcome}"
    return None


class Codec512:
    """Large-grid lossless path: send, serialize, parse, receive."""

    name = "codec-512"
    uses_call_timer = False
    SIZES = {
        "full": dict(side=512, tile=128, channels=64,
                     codings=[("LC", 10), ("ISC", 10), ("MDC:2", 10),
                              ("LC", 32)]),
        "tiny": dict(side=64, tile=32, channels=16,
                     codings=[("LC", 4), ("ISC", 4), ("MDC:2", 4), ("LC", 8)]),
    }

    def __init__(self, size):
        self.p = self.SIZES[size]

    def setup(self, rc, seed):
        p = self.p
        per_side = p["side"] // p["tile"]
        self.image = _mosaic(rc, _seeds(seed, 1, per_side ** 2), per_side,
                             p["tile"])
        self.items = [_config(rc, p["channels"], spec, l)
                      for spec, l in p["codings"]]
        self.channels = p["channels"]

    def run_item(self, rc, cfg, timer, call):
        image = self.image
        h, w = image.shape
        t0 = perf_counter()
        packets, grid, wire, send_s = _send_serialized(rc, image, cfg)
        t1 = perf_counter()
        parsed, _ = _parse(rc, wire)
        result = rc.pipeline.receive(parsed, [True] * len(parsed), cfg, h, w)
        t2 = perf_counter()
        psnr, bpp, _ = rc.pipeline.evaluate(image, result.image,
                                            result.outcome, packets)
        check = None
        if parsed != packets:
            check = f"{cfg.mode_kind} L={cfg.l}: packet bytes do not round-trip"
        elif result.outcome != rc.pipeline.OUTCOME_LOSSLESS:
            check = f"{cfg.mode_kind} L={cfg.l}: outcome {result.outcome}"
        elif not np.array_equal(result.grid.values, grid.values):
            check = f"{cfg.mode_kind} L={cfg.l}: tokens differ from sender's"
        return ItemResult(
            seconds=t2 - t0, send_s=send_s, receive_s=t2 - t1,
            receiver_s=t2 - t1, coded_s=t2 - t0,
            symbols=_grid_symbols(rc, h, w, self.channels), bpp=bpp,
            psnr=[psnr], failed=[result.outcome == rc.pipeline.OUTCOME_FAILED],
            check=check)

    def after(self, rc, seed, workdir, call):
        return []


class SweepLossy:
    """Many small lossy episodes through cli.run_episode, plus one sweep."""

    name = "sweep-lossy"
    uses_call_timer = True
    SIZES = {
        "full": dict(height=96, width=112, images=3, channels=64, l=10,
                     modes=["ISC", "LC", "MDC:2", "SLC:1"],
                     presets=["EP3", "EP6"], reps=5),
        "tiny": dict(height=64, width=64, images=1, channels=16, l=10,
                     modes=["ISC", "LC", "MDC:2", "SLC:1"],
                     presets=["EP3", "EP6"], reps=1),
    }

    def __init__(self, size):
        self.p = self.SIZES[size]

    def setup(self, rc, seed):
        p = self.p
        self.images = [
            rc.synthetic.synthetic_image(s, p["height"], p["width"])
            for s in _seeds(seed, 2, p["images"])
        ]
        models = {name: rc.transport.preset(name) for name in p["presets"]}
        n = p["images"] * len(p["modes"]) * len(p["presets"]) * p["reps"]
        trace_seeds = iter(_seeds(seed, 3, n))
        self.items = [
            (i, _config(rc, p["channels"], spec, p["l"], image_id=i),
             models[name], next(trace_seeds))
            for i in range(p["images"]) for spec in p["modes"]
            for name in p["presets"] for _ in range(p["reps"])
        ]
        self.channels = p["channels"]

    def run_item(self, rc, item, timer, call):
        i, cfg, model, trace_seed = item
        image = self.images[i]
        t0 = perf_counter()
        row = call("cli.run_episode", rc.cli.run_episode, image, cfg, model,
                   trace_seed)
        t1 = perf_counter()
        calls = timer.take()
        sends, receives = calls["pipeline.send"], calls["pipeline.receive"]
        missing = [f for f in rc.cli.CSV_FIELDS if f not in row]
        check = f"episode row lacks {missing}" if missing else None
        return ItemResult(
            seconds=t1 - t0, send_s=sum(sends) / len(sends),
            receive_s=sum(receives) / len(receives),
            receiver_s=sum(receives), coded_s=sum(sends) + sum(receives),
            symbols=_grid_symbols(rc, *image.shape, self.channels),
            bpp=row["bpp"], psnr=[row["psnr_db"]],
            failed=[row["outcome"] == rc.pipeline.OUTCOME_FAILED], check=check)

    def after(self, rc, seed, workdir, call):
        """One real `resicomp sweep --jobs 1` on a config from the seed.

        18 (image, rep, preset) episode seeds, one mode: the crash below
        depends on those seeds only, and a fixed sweep stays short.

        cli.derive_seed returns an unsigned 64-bit value that cmd_sweep
        feeds back into struct.pack("<q", ...), so most seeds crash with
        struct.error.  The crash is a failed operation, reported as such.
        Returns (problem or None, whether it is a failed output check).
        """
        p = self.p
        config = workdir / "sweep.cfg"
        output = workdir / "sweep.csv"
        config.write_text(
            "synthetic_images = 3\n"
            "modes = LC\n"
            f"l_values = {p['l']}\n"
            f"presets = {', '.join(p['presets'])}\n"
            "repetitions = 3\n"
            f"master_seed = {seed}\n"
            f"channels = {p['channels']}\n")
        argv = ["sweep", "--config", str(config), "--output", str(output),
                "--jobs", "1"]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = call("cli.main", rc.cli.main, argv)
        except Exception as exc:  # the benchmark boundary: count, report
            return [(f"resicomp sweep raised {type(exc).__module__}."
                     f"{type(exc).__name__}: {exc}", False)]
        if code != rc.cli.EXIT_OK:
            return [(f"resicomp sweep exited {code}", False)]
        with open(output) as f:
            header = f.readline().strip().split(",")
        if header != rc.cli.CSV_FIELDS:
            return [(f"resicomp sweep CSV header {header}", True)]
        return [(None, True)]


class Progressive256:
    """Every prefix of an LC L=32 stream decoded with progressive_receive."""

    name = "progressive-256"
    uses_call_timer = True
    SIZES = {
        "full": dict(side=256, tile=128, channels=16, l=32, images=4),
        "tiny": dict(side=64, tile=32, channels=16, l=8, images=1),
    }

    def __init__(self, size):
        self.p = self.SIZES[size]

    def setup(self, rc, seed):
        p = self.p
        per_side = p["side"] // p["tile"]
        seeds = _seeds(seed, 4, p["images"] * per_side ** 2)
        self.items = [
            _mosaic(rc, seeds[k * per_side ** 2:(k + 1) * per_side ** 2],
                    per_side, p["tile"])
            for k in range(p["images"])
        ]
        self.cfg = _config(rc, p["channels"], "LC", p["l"])
        self.channels = p["channels"]

    def run_item(self, rc, image, timer, call):
        cfg = self.cfg
        h, w = image.shape
        t0 = perf_counter()
        packets, grid, wire, send_s = _send_serialized(rc, image, cfg)
        t1 = perf_counter()
        parsed, parse_s = _parse(rc, wire)
        timer.take()
        steps = call("pipeline.progressive_receive",
                     rc.pipeline.progressive_receive, parsed, cfg, h, w)
        t2 = perf_counter()
        receives = timer.take()["pipeline.receive"]
        psnr = []
        for step in steps:
            psnr.append(rc.pipeline.evaluate(image, step.image, step.outcome,
                                             packets)[0])
        bpp = sum(p.payload.bit_length for p in packets) / (h * w)
        last = steps[-1]
        check = None
        if parsed != packets:
            check = "packet bytes do not round-trip"
        elif len(steps) != cfg.l:
            check = f"{len(steps)} prefixes decoded, expected {cfg.l}"
        elif (last.outcome != rc.pipeline.OUTCOME_LOSSLESS
              or not np.array_equal(last.grid.values, grid.values)):
            check = "last prefix is not bit-exact"
        return ItemResult(
            seconds=t2 - t0, send_s=send_s,
            receive_s=(parse_s + sum(receives)) / len(receives),
            receiver_s=t2 - t1, coded_s=send_s + sum(receives),
            symbols=_grid_symbols(rc, h, w, self.channels), bpp=bpp,
            psnr=psnr,
            failed=[s.outcome == rc.pipeline.OUTCOME_FAILED for s in steps],
            check=check)

    def after(self, rc, seed, workdir, call):
        return []


WORKLOADS = {w.name: w for w in (Codec512, SweepLossy, Progressive256)}
