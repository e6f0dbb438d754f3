#!/usr/bin/env python3
"""Fit the projected-state decay rate against the golden-rule prediction.

For a wide band (delta >> gamma) the weight |c_kproj|^2 of a state coupled
to n_band flat levels decays exponentially at 2*gamma = 2*pi*u^2/delta.
This sweep holds the band fixed and varies u over a factor of 4; the
log-log slope of rate vs u should be 2.
"""

import numpy as np

from gravodyn.analytic import gamma_from
from gravodyn.models import ChooserParams
from gravodyn.propagator import SpectralDecomposition, diagonalize, evolve


def fitted_rate(u, delta, n_band):
    gamma = gamma_from(u, delta)
    params = ChooserParams(v=0.0, w=0.0, n_band=n_band, delta=delta, u=u)
    dec = diagonalize(params)  # solved as a star, never as a dense matrix
    psi0 = np.zeros(3 + n_band, dtype=complex)
    psi0[2] = 1.0
    times = np.linspace(0.5 / gamma, 2.5 / gamma, 400)
    # only the Kproj row, on which psi0 lies
    kproj = SpectralDecomposition(dec.eigenvalues, dec.eigenvectors[[2]])
    weight = np.abs(evolve(kproj, psi0[[2]], times)[:, 0]) ** 2
    slope, _ = np.polyfit(times, np.log(weight), 1)
    return -slope, gamma


def main():
    delta, n_band, u0 = 0.02, 1024, 1e-3
    u_values = np.array([0.5 * u0, u0, 2.0 * u0])
    print(f"delta={delta:g} n_band={n_band}")
    print("\n   u          rate        2*gamma     ratio")
    rates = []
    for u in u_values:
        rate, gamma = fitted_rate(u, delta, n_band)
        rates.append(rate)
        print(f"  {u:.3e}  {rate:.4e}  {2 * gamma:.4e}  {rate / (2 * gamma):.4f}")
    slope = np.polyfit(np.log(u_values), np.log(rates), 1)[0]
    print(f"\nlog-log slope of rate vs u: {slope:.4f} (golden rule: 2)")


if __name__ == "__main__":
    main()
