#!/usr/bin/env python3
"""Fit the projected-state decay rate against the golden-rule prediction.

For a wide band (delta >> gamma) the weight |c_kproj|^2 of a state coupled
to n_band flat levels decays exponentially at 2*gamma = 2*pi*u^2/delta.
The sweep in scripts/configs/sweep_decay.cfg holds the band fixed and
varies u over a factor of 4; this runs it in memory (it writes no file),
reads each point's fitted ``decay_rate`` and prints it against 2*gamma.
The log-log slope of rate vs u should be 2.
"""

import csv
from pathlib import Path

import numpy as np

from gravodyn.analytic import gamma_from
from gravodyn.cli import run_scenario
from gravodyn.config import load_config

CONFIG = Path(__file__).resolve().parent / "configs" / "sweep_decay.cfg"


def main():
    cfg = load_config(CONFIG)
    delta, n_band = cfg.parameters["delta"], cfg.parameters["n_band"]
    (text,) = run_scenario(cfg).values()
    rows = list(csv.DictReader(text.splitlines()))
    u_values = np.array([float(row["u"]) for row in rows])
    rates = np.array([float(row["decay_rate"]) for row in rows])
    print(f"delta={delta:g} n_band={n_band}")
    print("\n   u          rate        2*gamma     ratio")
    for u, rate in zip(u_values, rates):
        gamma = gamma_from(u, delta)
        print(f"  {u:.3e}  {rate:.4e}  {2 * gamma:.4e}  {rate / (2 * gamma):.4f}")
    slope = np.polyfit(np.log(u_values), np.log(rates), 1)[0]
    print(f"\nlog-log slope of rate vs u: {slope:.4f} (golden rule: 2)")


if __name__ == "__main__":
    main()
