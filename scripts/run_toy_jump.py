#!/usr/bin/env python3
"""Toy jump experiment: one wall impact, oracle comparison, reaction atom.

Runs the homogeneous model with data (0, 1) at a small regularization,
detects the velocity jump, reports the concentrated reaction mass, and
prints the deviation from the closed-form boundary-layer solution.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import dampedwave as dw
from dampedwave.cli import exit_code, toy_run_config
from dampedwave.toy import yosida_layer_toy


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=1e-6)
    ap.add_argument("--T", type=float, default=2.0)
    ap.add_argument("--out", default="out/toy_jump")
    args = ap.parse_args()

    eps = args.epsilon
    cfg = toy_run_config(eps, args.T, label="toy-jump")
    traj = dw.simulate(cfg)
    xi = dw.accumulate_xi(traj)
    events = dw.detect_jumps(traj)

    err = 0.0
    stride = max(1, traj.n_steps // 4000)
    for i in range(0, len(traj.times), stride):
        uo, vo = yosida_layer_toy(eps, float(traj.times[i]))
        err = max(err, abs(uo - traj.U[i, 0]), abs(vo - traj.V[i, 0]))

    profile = xi.window_profile(1.0, math.sqrt(eps))  # windows of 8, 4, 2 and 1 layer widths
    report = {
        "epsilon": eps,
        "dt": cfg.dt,
        "jumps": [
            {"t": e.t, "v_before": float(e.v_before[0]),
             "v_after": float(e.v_after[0]), "impulse": e.impulse}
            for e in events
        ],
        "xi_total_mass": xi.total_l1,
        "mass_within_8_layer_widths_of_t1": profile[8],
        "window_profile": {str(k): v for k, v in profile.items()},
        "max_oracle_deviation": err,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "toy_jump_report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    sys.exit(exit_code(main))
