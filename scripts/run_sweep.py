#!/usr/bin/env python3
"""Regularization continuation study on the toy and 1D contact problems.

Audits the uniform bounds (velocity sup, potential sup, reaction L1
mass, BV proxy, operator norm), the overshoot bound, and the
reaction/state pairing identity across the sweep.
"""

import argparse
import json
from pathlib import Path

import dampedwave as dw
from dampedwave.cli import sweep_payload
from dampedwave.sweep import mu_vanishing_sequence


def run(base: dw.SimConfig, eps_list):
    payload, report, _ = sweep_payload(base, eps_list)
    payload["mu_vanishing"] = {str(k): v for k, v in mu_vanishing_sequence(report).items()}
    return payload


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", default="1e-2,1e-3,1e-4,1e-5")
    ap.add_argument("--out", default="out/sweep")
    args = ap.parse_args()
    eps_list = [float(v) for v in args.eps.split(",")]

    toy = dw.SimConfig(
        n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=eps_list[0],
        T=2.0, dt=1e-3, theta=0.5, u0="zero", u1="constant:1", label="toy",
    )
    oneD = dw.SimConfig(
        length=1.0, n_nodes=65, bc="neumann", graph_kind="indicator",
        epsilon=eps_list[0], T=2.0, dt=1e-3, theta=1.0,
        u0="cosine:1:0.01", u1="constant:1", label="contact-1d",
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, cfg in (("toy", toy), ("contact_1d", oneD)):
        payload = run(cfg, eps_list)
        (out / f"sweep_{name}.json").write_text(json.dumps(payload, indent=2))
        print(f"{name}: ratios = {payload['ratios']}")
        print(f"{name}: limsup gap = {payload['limsup_audit']['rel_gap']:.3e}")


if __name__ == "__main__":
    main()
