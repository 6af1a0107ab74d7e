#!/usr/bin/env python3
"""Sweep context modes against packet-loss presets.

A flag front end to `resicomp sweep`: the flags become a sweep config
(synthetic images, one L, no FEC pairs) that runs through the same
episodes, seeds, CSV and per-(scheme, L, preset) summary of mean PSNR,
mean bpp and failure ratio.

Example:
    python3 scripts/run_resilience_sweep.py --presets EP3 EP5 --reps 50
"""

import argparse
import sys

from resicomp.cli import ConfigError, SweepSpec, run_sweep


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--modes", nargs="+",
                        default=["ISC", "LC", "MDC:2", "SLC:1"],
                        help="mode specs, e.g. LC MDC:2 SLC:1")
    parser.add_argument("--presets", nargs="+", default=["EP3", "EP5"])
    parser.add_argument("--images", type=int, default=5,
                        help="synthetic corpus size")
    parser.add_argument("--reps", type=int, default=20,
                        help="loss traces per (image, mode, preset)")
    parser.add_argument("--L", type=int, default=10)
    parser.add_argument("--channels", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="resilience.csv")
    args = parser.parse_args(argv)

    spec = SweepSpec(synthetic_images=args.images, modes=args.modes,
                     l_values=[args.L], presets=args.presets,
                     repetitions=args.reps, output=args.output,
                     master_seed=args.seed, channels=args.channels)
    try:
        spec.validate()
        run_sweep(spec)
    except ConfigError as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
