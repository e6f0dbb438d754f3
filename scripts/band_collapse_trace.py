#!/usr/bin/env python3
"""Trace the band-collapse run and decompose its deviation from the
plain-exponential curve 1 - exp(-2*gamma*t) - (w/u)^2.

At the self-consistent band width (delta = pi*gamma) the band spans only
+-(pi/2)*gamma, so a Lorentzian of width gamma keeps
1 - (2/pi)*arctan(pi/2) ~ 36% of its weight outside the band. The exact
transfer into the band therefore starts slower than the undelayed
exponential and then overshoots it: the effective decay rate of the
projected state ramps up from 0 instead of being 2*gamma from t = 0.

The finite-band column is ``analytic.finite_band_weight``: the same model
with a continuum flat band of width delta (flat-band self-energy on
|Kproj>, bound states outside the band plus the branch cut across it).
The gap to the plain exponential splits into two parts:

* discreteness: exact trace (n_band levels) vs the continuum curve,
  ~1.6e-3 at n_band = 200 and falling as 1/n_band;
* finite band: continuum curve vs the plain exponential, ~0.180, which
  no band discretization removes.

Run this to see the numbers behind that statement. It runs
scripts/configs/chooser_collapse.cfg in memory (it writes no file) and
reads the width and band width from its report and the zero state's
trace from its CSV, so the trace is the runner's own.
"""

import csv
import math
from pathlib import Path

import numpy as np

from gravodyn.analytic import band_weight, finite_band_weight
from gravodyn.cli import run_scenario
from gravodyn.config import load_config

CONFIG = Path(__file__).resolve().parent / "configs" / "chooser_collapse.cfg"


def main():
    cfg = load_config(CONFIG)
    u, w, v, n_band = (cfg.parameters[key] for key in ("u", "w", "v", "n_band"))
    csv_text, report = run_scenario(cfg).values()
    stated = dict(line.split(" = ") for line in report.splitlines())
    delta, gamma = float(stated["delta"]), float(stated["gamma"])
    print(f"u={u:g} w={w:g} v={v:g} n_band={n_band} delta={delta:.4e} "
          f"gamma={gamma:.4e}")

    rows = list(csv.reader(csv_text.splitlines()[1:]))
    t, w_q0, _, w_kproj, w_band = np.array(rows, dtype=float).T
    # the run's grid, np.linspace(0, t_final, n_times): the printed t has 12
    # digits, which the finite-band curve's uniform-grid check refuses
    times = np.linspace(0.0, t[-1], len(t))
    analytic = band_weight(times, u, w, gamma)
    finite = finite_band_weight(times, u, v, w, delta)

    print("\n   t*gamma    band      finite    analytic  deviation  kproj     q0")
    for frac in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
        i = np.searchsorted(times, frac / gamma) - (frac == 5.0)
        print(f"  {times[i] * gamma:8.3f}  {w_band[i]:.6f}  {finite[i]:.6f}"
              f"  {analytic[i]:.6f}  {w_band[i] - analytic[i]:+.6f}"
              f"  {w_kproj[i]:.6f}  {w_q0[i]:.6f}")

    window = times >= 1.0 / gamma
    sup = np.max(np.abs(w_band[window] - analytic[window]))
    arg = np.argmax(np.abs(w_band[window] - analytic[window]))
    print(f"\nsup deviation on [1/gamma, 5/gamma]: {sup:.4f} "
          f"at t*gamma = {times[window][arg] * gamma:.3f}, of which")
    discrete = np.max(np.abs(w_band[window] - finite[window]))
    print(f"  discreteness (exact vs finite band, n_band={n_band}): "
          f"{discrete:.2e}")
    continuum = np.max(np.abs(finite[window] - analytic[window]))
    print(f"  finite band (finite band vs plain exponential): "
          f"{continuum:.4f}")

    tail = times >= 4.0 / gamma
    plateau = np.mean(w_band[tail])
    print(f"plateau (mean over t >= 4/gamma): {plateau:.4f} "
          f"vs 1-(w/u)^2 = {1 - (w / u) ** 2:.4f}, "
          f"finite band {np.mean(finite[tail]):.4f}")

    # effective lag: fit ln|c_kproj|^2 ~ -rate*(t - t0) after the ramp-up
    fit = (times >= 0.5 / gamma) & (times <= 1.5 / gamma)
    slope, intercept = np.polyfit(times[fit], np.log(w_kproj[fit]), 1)
    lag = intercept / -slope * gamma  # time where the fitted line crosses 1
    print(f"projected-state weight decays at {-slope / gamma:.3f}*gamma "
          f"with onset lag t0 = {lag:.3f}/gamma")

    out_frac = 1.0 - (2.0 / math.pi) * math.atan(math.pi / 2.0)
    print(f"Lorentzian weight outside the band at delta = pi*gamma: "
          f"{out_frac:.3f}")


if __name__ == "__main__":
    main()
