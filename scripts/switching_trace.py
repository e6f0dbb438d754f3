#!/usr/bin/env python3
"""ASCII trace of the two-site switching run.

Loads the documented configuration from scripts/configs/ (pass another
config path to experiment), prints the two site-resolved gravonon-band
channels over time, and marks where their dominance alternates. Each
site's channel collapses to its own plateau and revives at its band's
recurrence time 2*pi*(n-1)/delta; because the two bands have different
widths the revivals interleave and the difference channel flips sign.
"""

import sys
from pathlib import Path

import numpy as np

from gravodyn.cli import crossings, telegraph_channels, telegraph_params_from
from gravodyn.config import load_config

DEFAULT = Path(__file__).resolve().parent / "configs" / "telegraph_switching.cfg"


def main():
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT
    cfg = load_config(path)
    params = telegraph_params_from(cfg.parameters, cfg.sampling)
    times = np.linspace(0.0, cfg.sampling["t_final"], cfg.sampling["n_times"])
    band_1, band_2, loc_1, loc_2 = telegraph_channels(
        params, cfg.parameters["weight_site1"], times
    )

    print(f"config: {path}")
    width = 56
    print("\n   t        site1    site2    " + "1".rjust(1) + " = site1, 2 = site2")
    step = max(1, len(times) // 64)
    for i in range(0, len(times), step):
        col1 = int(band_1[i] * (width - 1))
        col2 = int(band_2[i] * (width - 1))
        row = [" "] * width
        row[col2] = "2"
        row[col1] = "1"  # site 1 wins the cell on collision
        print(f"  {times[i]:7.2f}  {band_1[i]:.4f}   {band_2[i]:.4f}   |{''.join(row)}|")

    flips = crossings(band_1, band_2)
    print(f"\ncrossings: {len(flips)} at t = "
          + ", ".join(f"{times[i]:.1f}" for i in flips))
    for name, channel in (("site1", band_1), ("site2", band_2)):
        high, low = np.percentile(channel, 95), np.percentile(channel, 5)
        near = (np.abs(channel - high) <= 0.15) | (np.abs(channel - low) <= 0.15)
        print(f"{name}: plateaus {low:.3f}/{high:.3f}, "
              f"dwell within 0.15 of a plateau: {np.mean(near):.3f}")


if __name__ == "__main__":
    main()
