"""Closed-form reference results for the band-coupled level scheme.

These formulas are the weak-coupling solution of the chooser model: the
golden-rule width, the three-state zero-eigenvector and the exponential
band-weight law. The exponential law is the wide-band limit (delta >>
gamma): exact propagation follows it up to band-discreteness oscillations
only there. At the self-consistent width delta = pi*gamma decay into the
band is not Markovian and the exact band weight lags the exponential by
up to ~0.18; ``finite_band_weight`` gives the band weight for a continuum
flat band of any width, which exact propagation follows up to a gap of
order 1/n_band.

``band_weight`` takes the decay width ``gamma`` explicitly instead of
recomputing it internally, so both free parameterizations and the
self-consistent choice delta = pi*gamma (which forces gamma = u) can be
exercised. ``finite_band_weight`` takes the model's (u, v, w, delta,
alpha) instead, since its self-energy fixes gamma = pi*u^2/delta.
"""

from __future__ import annotations

import math

import numpy as np

from .propagator import _phase_sum


def gamma_from(u, delta):
    """Golden-rule width of the projected band state: pi*u^2/delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return math.pi * u * u / delta


def self_consistent_width(u):
    """Width and band width under the closure delta = pi*gamma.

    Substituting delta = pi*gamma into gamma = pi*u^2/delta gives
    gamma^2 = u^2, so gamma = |u| and delta = pi*|u|.
    """
    gamma = abs(u)
    return gamma, math.pi * gamma


def zero_state_coeffs(v, w):
    """Coefficients (C_Q0, C_R0, C_K) of the zero-energy eigenstate.

    The zero eigenvector of the 3-state matrix with couplings (+v, +w) is
    (w, 0, -v)/sqrt(v^2+w^2): the screen state carries no weight, the
    source and projected-band components have magnitudes w/r and v/r, and
    their relative sign is negative (required by v*C_Q0 + w*C_K = 0).
    For w/v -> 0 all weight sits on the projected band state.
    """
    r = math.hypot(v, w)
    if r == 0.0:
        raise ValueError("v = w = 0 leaves the zero eigenvector undefined")
    return w / r, 0.0, -v / r


def band_weight(t, u, w, gamma):
    """Summed band weight 1 - e^{-2*gamma*t} - w^2/u^2.

    This is the wide-band (delta >> gamma), weak-coupling limit. Valid for
    t of order 1/gamma and beyond; at t = 0 the formula is negative (equal
    to -w^2/u^2), an artifact of the weak-coupling derivation, so
    comparisons against exact propagation start at t = 1/gamma.

    At the self-consistent width delta = pi*gamma the band edges sit at
    +-1.57*gamma and the exact transfer lags this exponential by up to
    ~0.18 (for u = 1e-3, w/u = 0.1, v = 10*gamma); ``finite_band_weight``
    is the curve for a band of finite width.
    """
    if u == 0:
        raise ValueError("u must be nonzero")
    return 1.0 - np.exp(-2.0 * gamma * np.asarray(t)) - (w / u) ** 2


# ---------------------------------------------------------------------------
# finite flat band: continuum-limit resolvent of the 3-state core

_GL_ORDER = 8  # Gauss-Legendre nodes per quadrature panel
_ABS_TOL = 1e-14  # accepted error per panel, absolute ...
_REL_TOL = 1e-9  # ... or relative to the panel's integral
_MIN_WIDTH = 1e-13  # narrowest panel, in units of delta
_MAX_PANELS = 1 << 14  # open or final panels before the quadrature gives up


def _core_resolvent(e, sigma, v, w, alpha, psi0):
    """adj(M) @ psi0 and det(M) for M = E - H3 - sigma*|Kproj><Kproj|.

    H3 is the chain |Q0> -v- |R0> -w- |Kproj> with alpha on |Kproj>, so
    det(M) = (E - alpha - sigma)*(E^2 - v^2) - w^2*E, and M^-1 psi0 is the
    adjugate product over the determinant.
    """
    q, r, k = psi0
    ek = e - alpha - sigma
    adj = np.stack([
        (e * ek - w * w) * q + v * ek * r + v * w * k,
        v * ek * q + e * ek * r + w * e * k,
        v * w * q + w * e * r + (e * e - v * v) * k,
    ], axis=-1)
    return adj, ek * (e * e - v * v) - w * w * e


def _bound_states(u, v, w, delta, alpha, psi0):
    """Energies and core amplitudes P_b psi0 of the real poles outside the band.

    The poles are the roots of E - alpha - Sigma(E) = w^2 E/(E^2 - v^2),
    with Sigma(E) = (u^2/delta)*ln|(E + delta/2)/(E - delta/2)| outside
    the band. Between its singularities (the band edges and, for w != 0,
    E = +-v) the left side minus the right side rises strictly from -inf
    to +inf, so each such interval outside the band holds exactly one
    root; all are bisected together. The residue of the resolvent there
    is adj(M) psi0 / det'(M).
    """
    half = 0.5 * delta
    # beyond +-e_far the secular function has the sign of E
    e_far = 2.0 * (half + abs(v) + abs(alpha) + abs(u) + abs(w))
    cuts = [half, e_far]
    if w != 0.0 and abs(v) > half:
        cuts.insert(1, abs(v))
    lo = np.array(cuts[:-1] + [-c for c in cuts[1:]])
    hi = np.array(cuts[1:] + [-c for c in cuts[:-1]])

    def self_energy(e):
        return u * u / delta * np.log(np.abs((e + half) / (e - half)))

    with np.errstate(divide="ignore"):  # brackets already closed on a cut
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.all((mid == lo) | (mid == hi)):
                break
            secular = mid - alpha - self_energy(mid)
            if w != 0.0:
                secular -= w * w * mid / (mid * mid - v * v)
            lo = np.where(secular < 0.0, mid, lo)
            hi = np.where(secular < 0.0, hi, mid)
    poles = 0.5 * (lo + hi)
    # a pole that bisection cannot tell from a band edge carries no weight
    poles = poles[np.abs(poles) > half]
    sigma = self_energy(poles)
    sigma_slope = -u * u / ((poles - half) * (poles + half))
    det_slope = (
        (1.0 - sigma_slope) * (poles * poles - v * v)
        + 2.0 * poles * (poles - alpha - sigma) - w * w
    )
    adj, _ = _core_resolvent(poles, sigma, v, w, alpha, psi0)
    return poles, adj / det_slope[:, None]


def _split(side, a, b, pieces):
    """Cut each panel [a_i, b_i] into pieces_i panels of equal width."""
    if pieces.sum() > _MAX_PANELS:
        raise ValueError(
            f"band quadrature needs more than {_MAX_PANELS} panels "
            "(band too wide for gamma, or times too long)"
        )
    pieces = pieces.astype(int)
    step = np.repeat((b - a) / pieces, pieces)
    start = np.repeat(a, pieces)
    index = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    return np.repeat(side, pieces), start + index * step, start + (index + 1) * step


def _band_quadrature(u, v, w, delta, alpha, psi0, t_max):
    """Energies, and weight times spectral density -Im(G psi0)/pi, across the band.

    Each half of the band is parametrized by the distance d from its edge
    (E = side*(delta/2 - d)), so that nodes next to an edge, where Sigma
    has a log singularity, are placed to full relative precision.
    Adaptive composite Gauss-Legendre: panels start at the band edges, the
    band centre and the bare levels (alpha, +-v, +-sqrt(v^2 + w^2)), no
    wider than gamma/2, and a panel is halved until its 8-node sum agrees
    with the sum over its halves to _ABS_TOL or _REL_TOL, or it is
    _MIN_WIDTH*delta wide. Every panel is then cut to width <= 4/t_max,
    so that the phase e^{-iEt} is resolved too. That takes about
    2*delta/gamma + delta*t_max/4 panels; ValueError is raised beyond
    _MAX_PANELS panels.
    """
    half = 0.5 * delta
    x, wts = np.polynomial.legendre.leggauss(_GL_ORDER)

    def grid(a, b):
        h = 0.5 * (b - a)[:, None]
        return 0.5 * (a + b)[:, None] + h * x, h * wts

    def density(side, d):
        sigma = u * u / delta * (side * np.log((delta - d) / d) - 1j * math.pi)
        adj, det = _core_resolvent(side * (half - d), sigma, v, w, alpha, psi0)
        return -(adj / det[..., None]).imag / math.pi

    def panel_sums(side, a, b):
        d, weights = grid(a, b)
        return np.einsum("pk,pkj->pj", weights, density(side[:, None], d))

    r = math.hypot(v, w)
    levels = np.array([alpha, v, -v, r, -r])
    panels = []
    for s in (1.0, -1.0):
        d = half - s * levels  # distance from the edge at s*delta/2
        breaks = np.unique(np.concatenate([[0.0, half], d[(d > 0.0) & (d < half)]]))
        panels.append((np.full(breaks.size - 1, s), breaks[:-1], breaks[1:]))
    side, a, b = (np.concatenate(z) for z in zip(*panels))
    side, a, b = _split(side, a, b, np.ceil((b - a) / (0.5 * gamma_from(u, delta))))

    done = []
    while a.size:
        if a.size > _MAX_PANELS:
            raise ValueError("band quadrature did not converge")
        mid = 0.5 * (a + b)
        fine = panel_sums(side, a, mid) + panel_sums(side, mid, b)
        err = np.abs(panel_sums(side, a, b) - fine).max(axis=1)
        tol = _ABS_TOL + _REL_TOL * np.abs(fine).max(axis=1)
        ok = (err <= tol) | (b - a <= _MIN_WIDTH * delta)
        done.append((side[ok], a[ok], b[ok]))
        side, a, b, mid = side[~ok], a[~ok], b[~ok], mid[~ok]
        side = np.tile(side, 2)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    side, a, b = (np.concatenate(z) for z in zip(*done))
    side, a, b = _split(side, a, b, np.maximum(np.ceil((b - a) * t_max / 4.0), 1))

    d, weights = grid(a, b)
    energies = side[:, None] * (half - d)
    amplitudes = weights[..., None] * density(side[:, None], d)
    return energies.ravel(), amplitudes.reshape(-1, 3)


def finite_band_weight(t, u, v, w, delta, alpha=0.0):
    """Band weight of the chooser model with a continuum flat band of width delta.

    The band couples to |Kproj> through the retarded self-energy
    Sigma(E) = (u^2/delta)*[ln|(E + delta/2)/(E - delta/2)| - i*pi*theta(delta/2 - |E|)],
    the n_band -> infinity limit of ``models.build_chooser``. The initial
    state is the zero state (w, 0, -v)/r, or pure |Kproj> when v = w = 0,
    as in the chooser runner. The 3-state core amplitudes are the sum over
    the real poles outside the band (bound states) and the branch cut
    across it (quadrature); the band weight is 1 minus their squared norm.

    Unlike ``band_weight`` this holds for any delta/gamma. At delta =
    pi*gamma (u = 1e-3, w/u = 0.1, v = 10*gamma) the exact propagation
    follows it to 1.6e-3 at n_band = 200, a gap that halves each time
    n_band doubles, while it stays up to 0.18 away from the plain
    exponential. For v = w = 0 and delta >> gamma it tends to
    1 - e^{-2*gamma*t}.

    ``t`` is a scalar or a uniform grid t_k = t_0 + k*h, summed over the
    poles and nodes by ``propagator._phase_sum``. Raises ValueError for a
    non-uniform t (but v = 0 < |w| gives zeros for any t), non-finite
    input, u = 0, delta <= 0, or when the band quadrature would need more
    than 16384 panels (roughly delta/gamma above 8000, or |t| above 6e4/delta),
    and ConfigError when the phases overflow or keep too few digits (the
    rules of ``_phase_sum``).
    """
    t = np.asarray(t, dtype=float)
    finite = all(map(math.isfinite, (u, v, w, delta, alpha)))
    if not (finite and np.all(np.isfinite(t))):
        raise ValueError("t, u, v, w, delta and alpha must be finite")
    if u == 0:
        raise ValueError("u must be nonzero")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if v == 0.0 and w != 0.0:
        # the zero state is then |Q0>, which nothing couples to
        return np.zeros(t.shape)
    psi0 = (0.0, 0.0, 1.0) if v == 0.0 and w == 0.0 else zero_state_coeffs(v, w)

    poles, bound = _bound_states(u, v, w, delta, alpha, psi0)
    t_max = float(np.max(np.abs(t), initial=0.0))
    nodes, band = _band_quadrature(u, v, w, delta, alpha, psi0, t_max)
    amplitudes = np.concatenate([bound, band]).T
    core = _phase_sum(np.concatenate([poles, nodes]), amplitudes, 1.0, t.ravel())
    return (1.0 - np.sum(np.abs(core) ** 2, axis=0)).reshape(t.shape)
