#!/usr/bin/env python3
"""Solve the curvature-coupling demo problems with `cartbeam solve`.

Each model file in the package's demos/ directory is solved into
OUT/<file stem>/ (centerline.csv, resultants.csv, summary.json), OUT
being --out. The README says what each demo shows.
"""
import argparse
import os
import sys

from cartbeam import cli
from cartbeam.benchmarks import demo_files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/demos")
    parser.add_argument("--samples", type=int, default=101, help="resultant sample count")
    args = parser.parse_args(argv)

    for name, path in demo_files().items():
        code = cli.main(["solve", path, "--out", os.path.join(args.out, name),
                         "--samples", str(args.samples)])
        if code:
            return code
        print(f"solved {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
