"""Command-line surface: encode, decode, trace, simulate, sweep, modes.

Every run is reproducible from its flags and master seed; per-episode
seeds are derived with a documented hash split (see derive_seed).  Sweep
results go to CSV with a stable schema so plotting never parses logs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import struct
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import pipeline, transport
from .context_modes import MODE_IDS, MODE_PARAM, make_mode
from .image_io import read_image, write_ppm
from .pipeline import PipelineConfig
from .predictor import fit_prior, load_prior, save_prior
from .synthetic import synthetic_corpus
from .token_codec import CodecConfig, analyze
from .transport import preset, read_traces, sample_trace, write_traces

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

MODEL_ENV = "RESICOMP_MODEL"

CSV_FIELDS = [
    "image_id", "mode", "L", "beta", "loss_preset", "seed", "eps_target",
    "bits_payload", "bits_total", "bpp", "outcome", "psnr_db",
    "slices_decoded",
]


class ConfigError(Exception):
    pass


def derive_seed(master_seed: int, *indices) -> int:
    """Episode seed = low 64 bits of blake2b(master, indices...).

    Every input is hashed as its low 64 bits, little-endian, so a derived
    seed (which may exceed 2**63) can itself be split again.
    """
    h = hashlib.blake2b(digest_size=8)
    for value in (master_seed, *indices):
        h.update(struct.pack("<Q", value & (2**64 - 1)))
    return struct.unpack("<Q", h.digest())[0]


@dataclass
class SweepSpec:
    image_dir: str | None = None
    synthetic_images: int = 10
    modes: list = field(default_factory=lambda: ["LC", "ISC"])
    l_values: list = field(default_factory=lambda: [10])
    presets: list = field(default_factory=lambda: ["EP3"])
    fec_grid: list = field(default_factory=list)  # (n_data, n_parity)
    repetitions: int = 1
    output: str = "sweep.csv"
    master_seed: int = 0
    quality: float = 1.0
    channels: int = 64

    def validate(self):
        for name in ("modes", "l_values", "presets"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        for name in self.presets:
            if name not in transport.PRESET_TABLE:
                raise ConfigError(f"unknown loss preset {name!r}")
        codec = CodecConfig(channels=self.channels, quality=self.quality)
        for spec in self.modes:
            kind, params = parse_mode_spec(spec)
            if kind == "MDC" and "n_d" not in params:
                raise ConfigError("mode MDC needs N_d, e.g. MDC:2")
            if kind == "SLC" and "enhancements" not in params:
                raise ConfigError("mode SLC needs E, e.g. SLC:1")
            for l in self.l_values:
                try:
                    make_mode(kind, l, params)
                    # The header must hold L; any image size will do.
                    pipeline.stream_header(PipelineConfig(
                        codec=codec, mode_kind=kind, l=l, mode_params=params,
                        plan_seed=self.master_seed), 1, 1)
                except ValueError as exc:
                    raise ConfigError(f"mode {spec} at L={l}: {exc}")
        for pair in self.fec_grid:
            if len(pair) != 2 or pair[0] < 1 or pair[1] < 0:
                raise ConfigError(f"bad FEC pair {pair}")


def parse_mode_spec(spec: str):
    """'LC' -> ('LC', {}); 'MDC:2' -> ('MDC', {'n_d': 2}); 'SLC:1' likewise."""
    parts = spec.split(":")
    if len(parts) > 2:
        raise ConfigError(f"mode spec {spec!r} has more than one ':'")
    kind = parts[0].upper()
    params = {}
    if len(parts) > 1:
        try:
            value = int(parts[1])
        except ValueError:
            raise ConfigError(f"bad mode parameter in {spec!r}")
        key = MODE_PARAM.get(MODE_IDS.get(kind))
        if key is None:
            raise ConfigError(f"mode {kind} takes no parameter")
        params[key] = value
    return kind, params


_SPEC_KEYS = {
    "image_dir": str,
    "synthetic_images": int,
    "modes": "list",
    "l_values": "int_list",
    "presets": "list",
    "fec": "fec",
    "repetitions": int,
    "output": str,
    "master_seed": int,
    "quality": float,
    "channels": int,
}


def parse_config(path) -> SweepSpec:
    """Flat key-value sweep config; '# comments' and [sections] allowed."""
    spec = SweepSpec()
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line or (line.startswith("[") and line.endswith("]")):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in _SPEC_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            kind = _SPEC_KEYS[key]
            try:
                if kind == "list":
                    parsed = [v.strip() for v in value.split(",") if v.strip()]
                elif kind == "int_list":
                    parsed = [int(v) for v in value.split(",") if v.strip()]
                elif kind == "fec":
                    parsed = []
                    for item in value.split(","):
                        item = item.strip()
                        if not item:
                            continue
                        n_data, _, n_parity = item.partition("/")
                        parsed.append((int(n_data), int(n_parity)))
                else:
                    parsed = kind(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}")
            attr = {"fec": "fec_grid"}.get(key, key)
            setattr(spec, attr, parsed)
    spec.validate()
    return spec


def load_env_prior(channels):
    path = os.environ.get(MODEL_ENV)
    if path:
        prior = load_prior(path)
        if prior.channels != channels:
            raise ConfigError(
                f"model file has {prior.channels} channels, config has {channels}"
            )
        return prior
    return None


def _pipeline_config(args):
    """The config of `encode` and `simulate` from their flags."""
    kind, params = parse_mode_spec(args.mode)
    return PipelineConfig(
        codec=CodecConfig(channels=args.channels, quality=args.quality),
        mode_kind=kind, l=args.slices, mode_params=params, beta=args.beta,
        plan_seed=args.seed, prior=load_env_prior(args.channels))


def _read_image_dir(path):
    """The images in directory `path`, by file name; files without an
    image suffix are skipped.  ConfigError if none is left."""
    paths = [p for p in sorted(Path(path).iterdir())
             if p.suffix.lower() in (".ppm", ".pgm", ".png", ".jpg", ".jpeg")]
    if not paths:
        raise ConfigError(f"no images found in {path}")
    return [read_image(p) for p in paths]


def _load_images(image_dir, synthetic):
    """The images in `image_dir` if it is given, else `synthetic`
    synthetic ones.  ConfigError if that is none."""
    if image_dir:
        return _read_image_dir(image_dir)
    if synthetic < 1:
        raise ConfigError(f"no images: {synthetic} synthetic images "
                          "asked for")
    return synthetic_corpus(synthetic)


def _episode_row(image, cfg: PipelineConfig, model, trace_seed: int, mode,
                 packets, plan, out_image, outcome, slices_decoded,
                 rate=1.0):
    """The CSV row of one episode; `rate` scales its bits (FEC parity)."""
    psnr, bpp, _ = pipeline.evaluate(image, out_image, outcome, packets)
    bits_payload = sum(p.payload.bit_length for p in packets)
    bits_total = sum(p.wire_bits for p in packets)
    return {
        "image_id": cfg.image_id,
        "mode": mode,
        "L": cfg.l,
        "beta": plan.beta,
        "loss_preset": model.meta["preset"],
        "seed": trace_seed,
        "eps_target": model.meta["eps"],
        "bits_payload": int(bits_payload * rate),
        "bits_total": int(bits_total * rate),
        "bpp": round(bpp * rate, 6),
        "outcome": outcome,
        "psnr_db": round(psnr, 4),
        "slices_decoded": slices_decoded,
    }


def run_episode(image, cfg: PipelineConfig, model, trace_seed: int):
    """One send -> lossy channel -> receive episode; returns a CSV row."""
    planes = 1 if image.ndim == 2 else image.shape[2]
    packets, _, plan, _ = pipeline.send(image, cfg)
    trace = sample_trace(model, len(packets), trace_seed)
    _, flags = transport.apply_loss(packets, trace)
    result = pipeline.receive(packets, flags, cfg, image.shape[0],
                              image.shape[1], planes)
    mode = cfg.mode_kind + (
        f":{cfg.mode_params.get('n_d') or cfg.mode_params.get('enhancements')}"
        if cfg.mode_params else "")
    return _episode_row(image, cfg, model, trace_seed, mode, packets, plan,
                        result.image, result.outcome,
                        len(result.decoded_slices))


def run_fec_episode(image, cfg: PipelineConfig, model, trace_seed: int,
                    n_data: int, n_parity: int):
    """Ideal-FEC baseline: whole bitstream as n_data packets + parity.

    Decodes losslessly iff any n_data of n_data+n_parity packets arrive;
    rate is scaled by the parity bandwidth multiplier.
    """
    planes = 1 if image.ndim == 2 else image.shape[2]
    packets, _, plan, _ = pipeline.send(image, cfg)
    trace = sample_trace(model, n_data + n_parity, trace_seed)
    if transport.fec_channel(n_data, n_parity, trace):
        result = pipeline.receive(packets, [True] * len(packets), cfg,
                                  image.shape[0], image.shape[1], planes)
        out_image, outcome = result.image, result.outcome
        slices_decoded = len(result.decoded_slices)
    else:
        out_image, outcome, slices_decoded = image, pipeline.OUTCOME_FAILED, 0
    return _episode_row(image, cfg, model, trace_seed,
                        f"FEC:{n_data}/{n_parity}", packets, plan, out_image,
                        outcome, slices_decoded,
                        rate=(n_data + n_parity) / n_data)


def run_sweep(spec: SweepSpec, jobs: int = 1):
    """Run every episode of a sweep, write its CSV and print the summary.

    Episodes run in a fixed order (preset, image, repetition, then each
    mode at each L and each FEC pair at the first L) with seeds split
    from the master seed, so `jobs` worker processes give the same bytes
    as one.  ConfigError if `jobs` is below 1.  The prior is the
    `RESICOMP_MODEL` file's, if it is set.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, not {jobs}")
    images = _load_images(spec.image_dir, spec.synthetic_images)
    prior = load_env_prior(spec.channels)
    codec = CodecConfig(channels=spec.channels, quality=spec.quality)
    tasks = []  # (function, *args): each episode is the call it makes
    for preset_idx, preset_name in enumerate(spec.presets):
        model = preset(preset_name)
        for image_idx, image in enumerate(images):
            for rep in range(spec.repetitions):
                seed = derive_seed(spec.master_seed, image_idx, rep, preset_idx)
                for mode_idx, mode_spec in enumerate(spec.modes):
                    kind, params = parse_mode_spec(mode_spec)
                    for l in spec.l_values:
                        cfg = PipelineConfig(
                            codec=codec, mode_kind=kind, l=l,
                            mode_params=params, plan_seed=spec.master_seed,
                            image_id=image_idx, prior=prior,
                        )
                        tasks.append((run_episode, image, cfg, model,
                                      derive_seed(seed, mode_idx, l)))
                for fec_idx, (n_data, n_parity) in enumerate(spec.fec_grid):
                    cfg = PipelineConfig(
                        codec=codec, mode_kind="LC", l=spec.l_values[0],
                        plan_seed=spec.master_seed, image_id=image_idx,
                        prior=prior,
                    )
                    tasks.append((run_fec_episode, image, cfg, model,
                                  derive_seed(seed, 1000 + fec_idx),
                                  n_data, n_parity))
    # A fork pool starts all its workers at the first submit.
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(*task) for task in tasks]
            rows = [future.result() for future in futures]
    else:
        rows = [fn(*args) for fn, *args in tasks]
    with open(spec.output, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    _print_summary(rows)


def cmd_sweep(args):
    spec = parse_config(args.config)
    if args.output:
        spec.output = args.output
    run_sweep(spec, args.jobs)
    return EXIT_OK


def _print_summary(rows):
    """Mean PSNR and failure ratio per (scheme, preset)."""
    groups = {}
    for row in rows:
        key = (row["mode"], str(row["L"]), row["loss_preset"])
        groups.setdefault(key, []).append(row)
    print("scheme,L,preset,episodes,mean_psnr_db,mean_bpp,failure_ratio")
    for key in sorted(groups):
        g = groups[key]
        mean_psnr = sum(r["psnr_db"] for r in g) / len(g)
        mean_bpp = sum(r["bpp"] for r in g) / len(g)
        failures = sum(r["outcome"] == pipeline.OUTCOME_FAILED for r in g)
        print(f"{key[0]},{key[1]},{key[2]},{len(g)},{mean_psnr:.3f},"
              f"{mean_bpp:.4f},{failures / len(g):.4f}")


def cmd_encode(args):
    image = read_image(args.image)
    cfg = _pipeline_config(args)
    packets, _, _, _ = pipeline.send(image, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for packet in packets:
        path = out / f"slice_{packet.header.slice_index:03d}.pkt"
        path.write_bytes(packet.to_bytes())
    print(f"wrote {len(packets)} packets to {out}")
    return EXIT_OK


def cmd_decode(args):
    """Decode the stream of the first readable packet; its header says all."""
    pkt_dir = Path(args.packets)
    paths = sorted(pkt_dir.glob("slice_*.pkt"))
    if not paths:
        raise FileNotFoundError(f"no packets in {pkt_dir}")
    packets, damaged = [], []
    for path in paths:
        try:
            packets.append(transport.packet_from_bytes(path.read_bytes()))
        except transport.PacketFormatError as exc:
            damaged.append(f"warning: {path.name}: {exc}; "
                           "slice treated as lost")
    if not packets:
        raise transport.PacketFormatError(f"no readable packet in {pkt_dir}")
    for line in damaged:
        print(line, file=sys.stderr)
    first = packets[0].header
    session = pipeline.Receiver(first, load_env_prior(first.channels))
    total = session.l
    flags = [True] * total
    if args.trace:
        traces = read_traces(args.trace)
        if not traces:
            raise ConfigError(f"trace file {args.trace} holds no trace")
        flags = traces[0].flags
    if len(flags) != total:
        raise ConfigError("trace length does not match packet count")
    session.add(*(p for p in packets if p.header.slice_index < total
                  and flags[p.header.slice_index]))
    result = session.result()
    write_ppm(args.out, result.image)
    bits = sum(p.payload.bit_length for p in packets)
    print(f"outcome={result.outcome} decoded={len(result.decoded_slices)}/"
          f"{total} payload_bits={bits}")
    return EXIT_OK


def cmd_trace(args):
    if args.episodes < 1:
        raise ConfigError("--episodes must be at least 1")
    model = preset(args.preset)
    traces = [
        sample_trace(model, args.n, derive_seed(args.seed, episode))
        for episode in range(args.episodes)
    ]
    write_traces(args.out, traces)
    eps, gamma = transport.trace_stats(traces[0])
    print(f"wrote {args.episodes} episode(s) of {args.n} packets; "
          f"episode 0: eps={eps:.5f} gamma={gamma:.3f}")
    return EXIT_OK


def cmd_simulate(args):
    image = read_image(args.image) if args.image else synthetic_corpus(1)[0]
    cfg = _pipeline_config(args)
    model = preset(args.preset)
    row = run_episode(image, cfg, model, derive_seed(args.seed, 0))
    writer = csv.DictWriter(sys.stdout, fieldnames=CSV_FIELDS)
    writer.writeheader()
    writer.writerow(row)
    return EXIT_OK


def cmd_modes(args):
    for spec in args.mode:
        kind, params = parse_mode_spec(spec)
        mode = make_mode(kind, args.slices, params)
        print(f"{spec} (L={args.slices}, default beta={mode.default_beta}):")
        for row in mode.g.astype(int):
            print("  " + "".join(str(int(x)) for x in row))
    return EXIT_OK


def cmd_fit_model(args):
    images = _load_images(args.images, args.synthetic)
    codec = CodecConfig(channels=args.channels, quality=args.quality)
    grids = [analyze(img, codec) for img in images]
    prior = fit_prior(grids)
    save_prior(args.out, prior)
    print(f"wrote model for C={args.channels} to {args.out}")
    return EXIT_OK


def _add_codec_flags(p):
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--quality", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=None,
                   help="slice-size schedule exponent (default: per mode)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resicomp",
        description="Loss-resilient token codec: encode/decode images, "
                    "simulate lossy channels, and run sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode an image into packets")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True, help="output packet directory")
    p.add_argument("--mode", default="LC")
    p.add_argument("--L", dest="slices", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_codec_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode packets (optionally through a "
                                      "loss trace) into an image")
    p.add_argument("--packets", required=True)
    p.add_argument("--trace", default=None,
                   help="trace file; first line is used (1 = received)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("trace", help="sample loss traces from a preset")
    p.add_argument("--preset", required=True)
    p.add_argument("-n", type=int, required=True, help="packets per episode")
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("simulate", help="run one episode end to end")
    p.add_argument("--image", default=None,
                   help="input image (default: synthetic)")
    p.add_argument("--mode", default="LC")
    p.add_argument("--L", dest="slices", type=int, default=10)
    p.add_argument("--preset", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_codec_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a sweep config; write CSV + summary")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None, help="override CSV path")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("modes", help="print preset context matrices")
    p.add_argument("mode", nargs="+", help="e.g. LC ISC MDC:2 SLC:1")
    p.add_argument("--L", dest="slices", type=int, default=10)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("fit-model", help="fit and save a predictor model file")
    p.add_argument("--images", default=None)
    p.add_argument("--synthetic", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--quality", type=float, default=1.0)
    p.set_defaults(func=cmd_fit_model)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, ValueError, transport.PacketFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
