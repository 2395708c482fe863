#!/usr/bin/env python3
"""Run the shipped convergence and locking studies and print order tables.

Reproduces the cantilever experiments: straight beam (full integration) and
quarter arc (reduced integration) at t = 0.1 and t = 0.001, plus the
full-vs-reduced locking comparison on the thin arc.
"""
import argparse
import os

from cartbeam.benchmarks import (
    StudySpec,
    print_order_table,
    run_convergence,
    write_convergence_csv,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/studies")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    straight = StudySpec("straight", ["timoshenko_p2p1", "timoshenko_h3p2"], ["full"],
                         [1, 2, 4, 8, 16, 32], [0.1, 0.001])
    arc = StudySpec("quarter_arc", ["timoshenko_p2p1", "timoshenko_h3p2"],
                    ["reduced"], [1, 2, 4, 8, 16, 32], [0.1, 0.001])

    for study, name in ((straight, "straight"), (arc, "quarter_arc")):
        report = run_convergence(study)
        print_order_table(report)
        write_convergence_csv(report, os.path.join(args.out, f"convergence_{name}.csv"))

    print("\nlocking comparison: quarter arc, 8 elements, t = 0.001")
    lock = run_convergence(StudySpec("quarter_arc",
                                     ["timoshenko_p2p1", "timoshenko_h3p2"],
                                     ["full", "reduced"], [8], [0.001]))
    for form in ("timoshenko_p2p1", "timoshenko_h3p2"):
        full = lock.rel_error(form, "full", 0.001, 8)
        red = lock.rel_error(form, "reduced", 0.001, 8)
        print(f"  {form}: rel error full {full:.3e}, reduced {red:.3e} "
              f"(ratio {full / red:.0f}x)")
    print(f"\nCSV written to {args.out}/")


if __name__ == "__main__":
    main()
