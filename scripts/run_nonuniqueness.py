#!/usr/bin/env python3
"""Approximation-dependence exhibit: two regularizations, two jump datas.

The Yosida run and the dead-zone family run solve the same limit
problem but sample different velocities at the impact time; both stay
energy-admissible.  This is the nonuniqueness mechanism of the limit
problem made concrete.
"""

import argparse
import json
import sys
from pathlib import Path

import dampedwave as dw
from dampedwave.cli import exit_code


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=1e-3)
    ap.add_argument("--out", default="out/nonuniqueness")
    args = ap.parse_args()
    report = dw.nonuniqueness_exhibit(epsilon=args.epsilon)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "nonuniqueness_report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    sys.exit(exit_code(main))
