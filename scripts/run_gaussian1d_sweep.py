#!/usr/bin/env python3
"""Reproduce the 1-D Gaussian rate sweep: excess risk and corrected W2 vs n.

Writes sweep.csv, sweep_failures.csv and sweep_fit.json into the output
directory. Expect a slope near -1 for excess risk and near -0.5 for the
baseline-corrected W2. Roughly a minute single-core at the default grid.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rflab.cli import main

_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                       "gaussian1d_sweep.json")

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", default=None)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()
    argv = ["--config", _CONFIG, "--jobs", str(args.jobs)]
    if args.out:
        argv += ["--out", args.out]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    sys.exit(main(argv + ["sweep"]))
