"""Exact-diagonalization time evolution.

The solution of i dΨ/dt = HΨ is evaluated as the spectral sum
Ψ(t) = Σ_k e^{−iλ_k t} v_k ⟨v_k|Ψ(0)⟩ over the full eigendecomposition,
on every basis row or only on the rows a reduction reads, at the times
tₖ = t₀ + k·h of a uniform grid: coarse phase steps are folded into the
rows' eigenvectors, and one matrix product applies the fine ones (``_phase_sum``).
All model bases here are at most a few thousand states, so full
diagonalization is cheaper and more accurate than step integration
(a small-step integrator survives only as a test oracle).

Every eigensolve of the package runs here, on a real-symmetric matrix, in
real arithmetic: real ``eigh``, real contract checks (exact symmetry,
residual, orthonormality), and ``evolve`` projects on the real eigenvectors
with a real matrix product; only the states are complex.

The chooser model is never formed as a matrix on the run path: given its
``ChooserParams``, ``diagonalize`` solves it as a star (the hub |Kproj>
coupled to the band levels and to the rotated Q0–R0 pair) in O(N²)
instead of O(N³). Weights and coincident levels are deflated first; the
other eigenvalues are the roots of the secular equation, found by a
vectorized rational iteration (R.-C. Li, LAPACK Working Note 89, 1994;
the few roots its two-pole models do not suit take a three-pole model, as
in LAPACK ``dlaed6``), and their eigenvectors follow in closed form with Löwner weights
(Gu & Eisenstat 1994; Stor, Slapničar & Barlow, arXiv:1302.7203). The
residual contract is measured by applying H through the star, the
orthonormality contract by the same VᵀV product as for dense input.
Each O(N²) kernel (a secular sweep's sums, the Löwner products, the
eigenvector rows, the star residual) runs over blocks of ``_BLOCK`` roots
in one small workspace allocated once per solve, and writes each block's
eigenvector rows straight into the one dim × dim array of eigenvectors:
the per-root bookkeeping stays vectorized over all roots. The contract
checks, for dense input too, form VᵀV and H·V − V·Λ by blocks of
``_CHECK_BLOCK`` eigenvectors, so a star solve holds no dim × dim array
but its eigenvectors (peak ~1.2 × 8·dim²). Every ``SpectralDecomposition``
that ``diagonalize`` returns carries both measured margins.

Everything is deterministic: there is no random number generator anywhere
in this package, and repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolationError
from .models import ChooserParams, HamiltonianMatrix, TelegraphSite, build_telegraph

NORM_TOL = 1e-10
ORTHO_TOL = 1e-12
RESIDUAL_TOL = 1e-10


@dataclass
class SpectralDecomposition:
    """Eigenpairs of a real-symmetric matrix: ascending eigenvalues, orthonormal
    real columns.

    ``residual`` is the worst measured ‖H·v − λv‖ over ‖H‖ = max |λ| and
    ``ortho_defect`` the largest entry of |VᵀV − 1|, as ``diagonalize``
    checked them (NaN for a decomposition made elsewhere).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float = math.nan
    ortho_defect: float = math.nan

    @property
    def dim(self):
        return len(self.eigenvalues)


def diagonalize(
    h: HamiltonianMatrix | np.ndarray | ChooserParams | TelegraphSite,
) -> SpectralDecomposition:
    """Eigendecompose a real-symmetric matrix, verifying the spectral contract.

    A ``ChooserParams`` is solved as a star from its secular equation (see
    ``_star``) without forming the matrix, a ``TelegraphSite`` as its dense
    block. A bare array is wrapped in a ``HamiltonianMatrix`` (square,
    exactly real symmetric) of a copy. Raises ContractViolationError if that
    check fails, if eigenvector residuals exceed 1e-10 times the spectral
    norm, or if the eigenbasis is not orthonormal to 1e-12; raises
    ConfigError if an entry or an eigenvalue of a dense matrix is not finite
    (entries near the float limit).
    """
    if isinstance(h, ChooserParams):
        return _verified(*_star(h))
    if isinstance(h, TelegraphSite):
        h = build_telegraph(h)
    elif not isinstance(h, HamiltonianMatrix):
        h = HamiltonianMatrix(np.array(h))  # a copy: the caller's array stays writable
    eigenvalues, eigenvectors = np.linalg.eigh(h.entries)
    if not np.isfinite(eigenvalues).all():  # before the residual: inf·0 is NaN
        raise ConfigError(
            f"the eigenvalues overflow: the largest entry {np.max(np.abs(h.entries)):.3e} "
            "leaves no float range for them"
        )
    return _verified(
        eigenvalues, eigenvectors, dense_residual(h.entries, eigenvalues, eigenvectors)
    )


def _relative(column_residuals, eigenvalues):
    """The worst column residual over ‖H‖ = max |λ|."""
    if not len(eigenvalues):
        return 0.0
    scale = float(np.max(np.abs(eigenvalues)))
    return float(np.max(column_residuals)) / max(scale, 1e-300)


def dense_residual(entries, eigenvalues, eigenvectors) -> float:
    """Worst eigenpair residual ‖H·v − λv‖ over ‖H‖ = max |λ|, from the dense H,
    a block of ``_CHECK_BLOCK`` eigenvectors at a time: H·V is never formed whole."""
    # in units of a power of two near ‖H‖ (exact), so no square over- or underflows
    scale = math.ldexp(0.5, math.frexp(np.max(np.abs(eigenvalues), initial=0.0))[1])
    norms = np.empty(len(eigenvalues))
    for s, e in _blocks(len(eigenvalues), _CHECK_BLOCK):
        vectors = eigenvectors[:, s:e]
        residual = (entries @ vectors - vectors * eigenvalues[s:e]) / scale
        norms[s:e] = np.linalg.norm(residual, axis=0)
        del residual  # before the next block's product
    return _relative(norms, eigenvalues / scale)


def _verified(eigenvalues, eigenvectors, residual) -> SpectralDecomposition:
    """The decomposition with its measured margins, once both contracts hold.

    The orthonormality defect max |VᵀV − 1| is taken over the Gram's upper
    triangle, a block of ``_CHECK_BLOCK`` rows V[:, s:e]ᵀ·V[:, s:] at a time,
    so no dim × dim Gram is formed.
    """
    if not residual <= RESIDUAL_TOL:  # NaN fails too
        raise ContractViolationError(
            f"eigenpair residual {residual:.3e}·‖H‖ exceeds {RESIDUAL_TOL:.0e}·‖H‖"
        )
    blocks = _blocks(len(eigenvalues), _CHECK_BLOCK)
    defects = [_gram_defect(eigenvectors, s, e) for s, e in blocks]
    ortho_defect = float(np.max(defects, initial=0.0))  # a NaN propagates
    if not ortho_defect <= ORTHO_TOL:
        raise ContractViolationError(
            f"eigenbasis orthonormality defect {ortho_defect:.3e} exceeds {ORTHO_TOL:.0e}"
        )
    return SpectralDecomposition(eigenvalues, eigenvectors, residual, ortho_defect)


def _gram_defect(vectors, s, e):
    """max |G − 1| over rows s:e of the Gram's upper triangle, G = V[:, s:e]ᵀ·V[:, s:]."""
    gram = vectors[:, s:e].T @ vectors[:, s:]
    diagonal = np.arange(e - s)
    gram[diagonal, diagonal] -= 1.0
    return np.maximum(gram.max(), 0.0 - gram.min())  # no |G| copy; a NaN propagates


# ---------------------------------------------------------------------------
# the chooser as a star


_EPS = float(np.finfo(float).eps)
_DEFLATE_TOL = 8.0 * _EPS  # relative to the largest entry
# a root whose model step is below this, relative to its offset, has converged:
# the step's own error is of its square (the model matches F and F')
_STEP_TOL = 1e-9
_MAX_SWEEPS = 64  # secular root-finder sweeps before a contract violation


def _star(p: ChooserParams):
    """Eigenpairs of the chooser model and their residual, in O(N²).

    Rotating the Q0–R0 pair into its eigenbasis (Q0 ± R0)/√2 at ±v turns
    the model into a star: the hub |Kproj> (diagonal α) coupled to leaves,
    the pair's two vectors with weights ±w/√2 (Q0 and R0 themselves when
    v = 0) and the band levels with weight u/√N. After deflation
    (``_deflate``) every eigenvalue is a leaf's level or a root λ of the
    secular equation (``_secular_roots``), whose eigenvector has hub
    component −1 and leaf components z_j/(d_j − λ) (``_root_rows``).
    Everything is solved in units of an exact power of two, so no step
    over- or underflows. Returns ascending eigenvalues, the eigenvectors in
    the basis [Q0, R0, Kproj, band...] and the worst relative residual of H
    applied to them through the star, never as a dense product.

    Every O(N²) kernel runs over blocks of ``_BLOCK`` roots (or eigenvector
    rows) in one workspace allocated here.
    """
    dim = 3 + p.n_band
    band = p.band_energies()
    coupling = p.u / math.sqrt(p.n_band) if p.n_band else 0.0
    half = math.sqrt(0.5)
    if p.v == 0.0:
        pair_poles, pair_weights = (0.0, 0.0), (0.0, p.w)
    else:
        pair_poles, pair_weights = (p.v, -p.v), (half * p.w, -half * p.w)
    rows = np.r_[0, 1, 3:dim]  # each leaf's basis row
    poles = np.concatenate([pair_poles, band])
    weights = np.concatenate([pair_weights, np.full(p.n_band, coupling)])
    top = max(abs(p.alpha), float(np.max(np.abs(poles))), float(np.max(np.abs(weights))))
    scale = math.ldexp(0.5, math.frexp(top)[1]) if top > 0.0 else 1.0  # top/scale in [1, 2)
    poles /= scale
    weights /= scale
    alpha = p.alpha / scale

    work = np.empty((2, (_BLOCK + 1) * dim))  # two blocks of up to _BLOCK + 1 rows
    kept, d, z, deflated, levels, rotations = _deflate(poles, weights)
    origins, tau, lowner = _secular_roots(d, np.abs(z), alpha, work)
    values = np.concatenate([origins + tau, levels])
    order = np.argsort(values, kind="stable")
    values = values[order]
    column = np.empty(dim, dtype=int)
    column[order] = np.arange(dim)
    roots, others = column[: len(tau)], column[len(tau):]

    # built by eigenvector rows; the eigenvectors are the columns of its transpose
    vectors = np.zeros((dim, dim))
    # a leaf with weight −|z| is the leaf of +|z|, negated
    _root_rows(d, lowner * np.sign(z), origins, tau, vectors, roots, rows[kept], work)
    vectors[others, rows[deflated]] = 1.0
    for a, b, c, s in reversed(rotations):
        ra, rb = vectors[:, rows[a]], vectors[:, rows[b]]
        vectors[:, rows[a]], vectors[:, rows[b]] = c * ra + s * rb, c * rb - s * ra
    if p.v != 0.0:
        plus, minus = vectors[:, 0], vectors[:, 1]
        vectors[:, 0], vectors[:, 1] = half * (plus + minus), half * (plus - minus)

    # (H − λ)·v in units of ``scale``, row by row of the star, for every v
    v, w, u = p.v / scale, p.w / scale, coupling / scale
    q0, r0, k = vectors[:, 0], vectors[:, 1], vectors[:, 2]
    squares = (v * r0 - values * q0) ** 2
    squares += (v * q0 + w * k - values * r0) ** 2
    squares += (w * r0 + (alpha - values) * k + u * vectors[:, 3:].sum(axis=1)) ** 2
    minus_band = -band / scale
    for s, e in _blocks(dim):  # the band rows, a block of eigenvectors at a time
        rest = _block(work, 0, e - s, p.n_band)
        np.subtract(-values[s:e, np.newaxis], minus_band, out=rest)
        rest *= vectors[s:e, 3:]
        rest += u * k[s:e, np.newaxis]
        squares[s:e] += np.einsum("ij,ij->i", rest, rest)
    return values * scale, vectors.T, _relative(np.sqrt(squares), values)


def _deflate(poles, weights):
    """Sort the leaves and set apart those the root search must not see.

    A leaf whose weight is at most ``_DEFLATE_TOL`` keeps its level as an
    eigenvalue, and so does one of two leaves whose levels are too close to
    tell apart: a Givens rotation of the pair (as in LAPACK ``dlaed2``)
    moves all their weight onto the other, neglecting an off-diagonal
    element below the same tolerance. Returns the remaining leaves (indices,
    ascending levels, weights), the set-apart leaves and their levels, and
    the rotations (leaf a, leaf b, c, s) in the order they were made.
    """
    order = np.argsort(poles, kind="stable").tolist()
    d, z = poles.tolist(), weights.tolist()
    kept, deflated, rotations = [], [], []
    for j in order:
        if abs(z[j]) <= _DEFLATE_TOL:
            deflated.append(j)
            continue
        if kept:
            i = kept[-1]
            r = math.hypot(z[i], z[j])
            c, s = z[j] / r, z[i] / r
            if abs((d[j] - d[i]) * c * s) <= _DEFLATE_TOL:
                d[i], d[j] = c * c * d[i] + s * s * d[j], s * s * d[i] + c * c * d[j]
                z[i], z[j] = 0.0, r
                rotations.append((i, j, c, s))
                deflated.append(kept.pop())
        kept.append(j)
    d, z = np.array(d), np.array(z)
    return kept, d[kept], z[kept], deflated, d[deflated], rotations


_BLOCK = 64  # roots (or eigenvector rows) per block of the O(N²) kernels
_CHECK_BLOCK = 2 * _BLOCK  # eigenvectors per block of the contract checks' products


def _blocks(count, size=_BLOCK):
    """(start, stop) of consecutive blocks of at most ``size`` rows."""
    return ((s, min(s + size, count)) for s in range(0, count, size))


def _block(work, k, rows, cols):
    """Workspace ``k`` as a contiguous (rows × cols) array."""
    return work[k, : rows * cols].reshape(rows, cols)


def _differences(d, origins, tau, out):
    """d_j − λ for λ = origin + τ (rows: roots), taken as (d_j − origin) − τ,
    which keeps its relative accuracy next to the origin."""
    np.subtract(d, origins[:, np.newaxis], out=out)
    out -= tau[:, np.newaxis]
    return out


def _sums(d, z, origins, tau, work):
    """ψ = Σ_j z_j²/(d_j − λ), its part over the poles d_j > λ, and the same
    two parts of ψ' = Σ_j z_j²/(d_j − λ)², for the roots λ = origin + τ,
    a block of roots at a time."""
    n = len(d)
    sums = np.empty((4, len(tau)))
    for s, e in _blocks(len(tau)):
        diff = _differences(d, origins[s:e], tau[s:e], _block(work, 0, e - s, n))
        leaves = np.divide(z, diff, out=diff)
        above = np.maximum(leaves, 0.0, out=_block(work, 1, e - s, n))
        sums[0, s:e], sums[1, s:e] = leaves @ z, above @ z
        sums[2, s:e] = np.einsum("ij,ij->i", leaves, leaves)
        sums[3, s:e] = np.einsum("ij,ij->i", above, above)
    return sums


def _secular_roots(d, z, alpha, work):
    """Roots of F(λ) = λ − α + Σ_j z_j²/(d_j − λ) for ascending poles d and
    positive weights z.

    F rises from −∞ to +∞ between neighbouring poles and beyond each end,
    so there is one root below d[0], one in each gap and one above d[-1].
    Each root is found as an offset τ from the pole it is nearest (an
    interior root's midpoint value tells which). Every sweep evaluates F
    and F' on the roots not yet converged (``_sums``) and steps to the root
    of a rational model matching both (``_model_root``). A root whose
    last step did not halve |F| takes the three-pole model
    (``_three_pole_steps``) from then on. A root bisects its bracket
    instead when the model's root leaves the bracket or a three-pole step
    did not halve |F|. A root has converged when |F| is within its rounding
    bound or the model step is below ``_STEP_TOL``. Returns each root's
    origin and offset, and the weights ẑ for which the computed roots are
    exact (``_lowner_weights``): with them the eigenvectors are orthogonal
    to working accuracy even where F's rounding leaves λ accurate to ~ε‖H‖
    only.
    """
    n = len(d)
    if n == 0:
        return np.array([alpha]), np.zeros(1), np.empty(0)
    index = np.arange(n + 1)
    left, right = np.maximum(index - 1, 0), np.minimum(index, n - 1)  # neighbour poles
    interior = (index > 0) & (index < n)
    origin = left.copy()
    gap = d[right] - d[left]
    lo, hi, tau = np.zeros(n + 1), gap.copy(), 0.5 * gap
    # outside the poles, all weight at the end pole gives a bound and a first guess
    for end, sign in ((0, -1.0), (n, 1.0)):
        tau[end] = sign * _positive_root(sign * (d[origin[end]] - alpha), float(z @ z))
        lo[end], hi[end] = sorted((0.0, tau[end]))
    last_f = np.full(n + 1, np.inf)
    three = np.zeros(n + 1, dtype=bool)  # roots on the three-pole model

    active = index
    for sweep in range(_MAX_SWEEPS):
        i = active
        psi, psi_above, dpsi, dpsi_above = _sums(d, z, d[origin[i]], tau[i], work)
        f = (d[origin[i]] - alpha + tau[i]) + psi
        if sweep == 0:  # interior roots start at the midpoint, from the left pole
            move = interior & (f < 0.0)
            origin[move] = right[move]
            tau[move] -= gap[move]
            lo[move], hi[move] = -gap[move], 0.0
        o, t = origin[i], tau[i]
        c0 = d[o] - alpha
        lo[i] = np.where(f < 0.0, t, lo[i])
        hi[i] = np.where(f < 0.0, hi[i], t)
        far = np.where(o == left[i], right[i], left[i])
        dpsi_below = np.maximum(dpsi - dpsi_above, 0.0)
        model = _model_root(
            d[left[i]] - d[o], d[right[i]] - d[o], t, c0, psi,
            dpsi_below, dpsi_above, z[o], z[far], i == 0, i == n,
        )
        # a two-pole step that did not halve |F| moves its root to the
        # three-pole model for good, whose first step skips that test
        halved = np.abs(f) <= 0.5 * last_f[i]
        fresh = ~(halved | three[i])
        three[i] |= ~halved
        k = np.flatnonzero(three[i])
        if len(k):
            model[k] = _three_pole_steps(d, z, o[k], t[k], f[k], dpsi_below[k], dpsi_above[k])
        inside = (model > lo[i]) & (model < hi[i])
        bound = np.abs(c0) + np.abs(t) + (2.0 * psi_above - psi)  # Σ of |terms| of F
        exact = np.abs(f) <= 8.0 * _EPS * bound
        small = np.abs(model - t) <= _STEP_TOL * np.abs(t)
        # the model's root, unless a three-pole step did not halve |F|: then
        # bisect once and retry the model
        take = inside & (small | halved | fresh)
        step = np.where(take, model, 0.5 * (lo[i] + hi[i]))
        tau[i] = np.where(exact | (small & ~inside), t, step)
        last_f[i] = np.where(take, np.abs(f), np.inf)
        active = i[~(exact | small)]
        if not len(active):
            origins = d[origin]
            return origins, tau, _lowner_weights(d, origins, tau, work)
    raise ContractViolationError(
        f"{len(active)} secular roots did not converge in {_MAX_SWEEPS} sweeps"
    )


def _three_pole_steps(d, z, origins, tau, f, dpsi_below, dpsi_above):
    """Roots of the three-pole model of F at offsets ``tau`` from the poles
    ``origins``, for the few roots where the two-pole model is too coarse.

    A root next to the end of a dense run of poles, facing a wide gap,
    sees the run as more than one pole: the origin's own term stays exact,
    the rest of its side becomes one pole at the next pole beyond it, and
    the far side with λ − α one pole at the far neighbour (λ − α alone
    outside the poles), each matched in value and slope at ``tau``.
    """
    n = len(d)
    steps = []
    for o, t, value, below, above in zip(
        origins.tolist(), tau.tolist(), f.tolist(), dpsi_below.tolist(), dpsi_above.tolist()
    ):
        up = 1 if t > 0.0 else -1  # the root's side of its origin
        side, other = (below, above) if up > 0 else (above, below)
        ratio = float(z[o]) / t
        own = ratio * ratio  # the slope of the origin's term
        poles, weights = [0.0], [float(z[o]) ** 2]
        if 0 <= o - up < n:
            poles.append(float(d[o - up] - d[o]))
            weights.append((poles[-1] - t) ** 2 * max(side - own, 0.0))
        if 0 <= o + up < n:
            far, slope = float(d[o + up] - d[o]), 0.0
            poles.append(far)
            far_term = float(z[o + up]) / (far - t)
            weights.append((far - t) ** 2 * (max(other, far_term * far_term) + 1.0))
        else:
            far, slope = math.copysign(math.inf, t), other + 1.0
        rho = value - slope * t - sum(w / (p - t) for p, w in zip(poles, weights))
        steps.append(_three_pole_root(rho, slope, poles, weights, far, t))
    return steps


def _three_pole_root(rho, slope, poles, weights, far, x):
    """Root between the origin 0 and ``far`` (±inf: no far pole) of
    G(η) = ρ + slope·η + Σ_k w_k/(p_k − η), which rises there from −∞, by
    the Gragg–Thornton–Warner iteration of LAPACK ``dlaed6`` from η = x:
    each step is the root of the two-pole model with poles 0 and ``far``
    that matches G, G' and G''."""
    lo, hi = sorted((0.0, far))
    sign = math.copysign(1.0, far)
    for _ in range(40):  # dlaed6's MAXIT
        g, dg, ddg, size = rho + slope * x, slope, 0.0, abs(rho) + abs(slope * x)
        for p, w in zip(poles, weights):
            r = 1.0 / (p - x)
            term = w * r
            g, dg, ddg, size = g + term, dg + term * r, ddg + term * r * r, size + abs(term)
        if abs(g) <= 4.0 * _EPS * size:
            break
        lo, hi = (x, hi) if g < 0.0 else (lo, x)
        if hi - lo <= 4.0 * _EPS * abs(x):
            break
        # c·η² − a·η + b = 0 over |far − x|, with the origin at −x
        u = 1.0 / (far - x)
        a = sign * ((1.0 - x * u) * g + x * dg)
        b = -sign * x * g
        c = sign * (g * u - (1.0 - x * u) * dg - x * ddg)
        top = max(abs(a), abs(b), abs(c))
        a, b, c = a / top, b / top, c / top
        root = math.sqrt(abs(a * a - 4.0 * b * c))
        if c != 0.0:
            eta = (a - root) / (2.0 * c) if a <= 0.0 else 2.0 * b / (a + root)
        else:
            eta = b / a if a != 0.0 else 0.0
        if g * eta >= 0.0:  # not towards the root: a Newton step
            eta = -g / dg
        x_new = x + eta
        if lo < x_new < hi:
            x = x_new
        else:
            x = 0.5 * (lo + hi) if hi - lo < math.inf else 2.0 * x
    return x


def _lowner_weights(d, origins, tau, work):
    """The positive weights ẑ for which the roots λ = origin + τ are exact.

    The n + 1 roots λ_i interlace the n poles d_j. By Löwner's formula
    (M. Gu & S. C. Eisenstat, SIAM J. Matrix Anal. Appl. 15, 1266 (1994))
    ẑ_j² = Π_i |d_j − λ_i| / Π_{k≠j} |d_j − d_k|. Each interior root λ_i
    is paired with its neighbouring pole on d_j's side (d_{i−1} when j ≥ i,
    d_i when j < i), so no partial product over- or underflows. The product
    runs over the interior roots in order, a block of roots at a time: the
    poles left of the block's roots take d_i, those right of them d_{i−1},
    and only the block's own triangle of poles needs both.
    """
    n = len(d)
    product = np.ones(n)
    for s, e in _blocks(n - 1):  # the interior roots s + 1 ... e
        ratio = _block(work, 1, e - s + 1, n)  # row 0 carries the product so far
        ratio[0] = product
        np.subtract(d[: s + 1], d[s + 1:e + 1, np.newaxis], out=ratio[1:, : s + 1])  # d_j − d_i
        np.subtract(d[e:], d[s:e, np.newaxis], out=ratio[1:, e:])  # d_j − d_{i−1}
        triangle = ratio[1:, s + 1:e]  # j < i below its diagonal
        np.subtract(d[s + 1:e], d[s:e, np.newaxis], out=triangle)
        below = np.tri(e - s, e - s - 1, -1, dtype=bool)
        np.subtract(d[s + 1:e], d[s + 1:e + 1, np.newaxis], out=triangle, where=below)
        diff = _differences(d, origins[s + 1:e + 1], tau[s + 1:e + 1], _block(work, 0, e - s, n))
        np.divide(diff, ratio[1:], out=ratio[1:])
        np.prod(ratio, axis=0, out=product)
    ends = _differences(d, origins[[0, n]], tau[[0, n]], np.empty((2, n)))
    return np.sqrt(np.abs(product * ends[0] * ends[1]))


def _root_rows(d, weights, origins, tau, vectors, roots, columns, work):
    """Write each root's eigenvector into row ``roots[i]`` of ``vectors``:
    hub (column 2) −1 and leaves (``columns``) weights_j/(d_j − λ_i),
    normalized, a block of roots at a time. The leaves are written by runs
    of consecutive columns, each as one slice."""
    n = len(d)
    starts = [0, *(np.flatnonzero(np.diff(columns) != 1) + 1).tolist()]
    runs = [(a, b, columns[a]) for a, b in zip(starts, [*starts[1:], n]) if a < b]
    for s, e in _blocks(len(tau)):
        diff = _differences(d, origins[s:e], tau[s:e], _block(work, 0, e - s, n))
        leaves = np.divide(weights, diff, out=diff)
        norm = 1.0 / np.sqrt(1.0 + np.einsum("ij,ij->i", leaves, leaves))
        rows = roots[s:e]
        vectors[rows, 2] = -norm
        leaves *= norm[:, np.newaxis]
        for a, b, c in runs:
            vectors[rows, c:c + b - a] = leaves[:, a:b]


def _positive_root(b, s):
    """The positive root of μ² + bμ − s = 0 for s > 0, free of cancellation."""
    sq = np.sqrt(b * b + 4.0 * s)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b >= 0.0, 2.0 * s / (b + sq), 0.5 * (sq - b))


def _model_root(dl, dr, t, c0, psi, dpsi_l, dpsi_r, z_origin, z_far, first, last):
    """Root of the rational model of F at offset ``t`` from the origin pole.

    ``dl``, ``dr`` are the neighbouring poles' offsets (one of them 0, the
    origin), ``z_origin`` and ``z_far`` their weights, ``c0 + t + psi`` is
    F, and ``dpsi_l``, ``dpsi_r`` are the two sides' parts of F' − 1 (each
    at least its neighbour's own term, which rounding in the split may
    lose). Between the neighbours each side's sum becomes a + S/(d_side − η),
    value and slope matched at ``t``, with λ − α joining the side away from
    the origin (Li's middle way). Where the origin's own term is under half of its
    side's slope, the rest of that side does not act like a pole at the
    origin: the origin's term stays exact and the rest of F becomes one
    pole at the other neighbour (Li's fixed weight). Outside the poles
    (``first``, ``last``) the sum becomes a + S/(0 − η) and λ − α stays.
    """
    with np.errstate(all="ignore"):
        from_left = dl == 0.0
        far = np.where(from_left, dr, dl)
        own = (z_origin / t) ** 2  # the slope of the origin's term
        slope_origin = np.maximum(np.where(from_left, dpsi_l, dpsi_r), own)
        slope_far = np.maximum(np.where(from_left, dpsi_r, dpsi_l), (z_far / (far - t)) ** 2) + 1.0
        fixed = own < 0.5 * slope_origin
        slope_far = np.where(fixed, slope_far + slope_origin - own, slope_far)
        s_origin = np.where(fixed, z_origin * z_origin, t * t * slope_origin)
        a = c0 + t + psi - (far - t) * slope_far
        a = np.where(fixed, a + z_origin * z_origin / t, a + t * slope_origin)
        # a − s_origin/η + s_far/(far − η) = 0 is a·η² − b·η + c = 0
        b = a * far + s_origin + (far - t) ** 2 * slope_far
        c = s_origin * far
        q = 0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
        eta, other = c / q, q / a  # the root between 0 and ``far`` is one of these
        eta = np.where((eta > np.minimum(far, 0.0)) & (eta < np.maximum(far, 0.0)), eta, other)
        # outside: η² + b·η − s = 0 on the root's side, from (c0 + psi + t·dpsi)
        # + η − t²·dpsi/η = 0, or, where the origin's term is under half of
        # F' − 1, from that term exact and the rest of F linear in η
        dpsi = dpsi_l + dpsi_r
        rest_slope = 1.0 + dpsi - own
        fixed = own < 0.5 * dpsi
        b = np.where(
            fixed, (c0 + psi + 2.0 * z_origin * z_origin / t - t * dpsi) / rest_slope,
            c0 + psi + t * dpsi,
        )
        s = np.where(fixed, z_origin * z_origin / rest_slope, t * t * dpsi)
        sign = np.where(last, 1.0, -1.0)
        outer = sign * _positive_root(sign * b, s)
    return np.where(first | last, outer, eta)


# ---------------------------------------------------------------------------
# time evolution


_GRID_TOL = 8.0 * _EPS  # a uniform grid's drift from t₀ + k·h, relative to max |t|
_GRID_FLOOR = 2.0 * float(np.finfo(float).smallest_subnormal)  # per time: a subnormal h rounds


def _uniform_grid(times):
    """First time and step (t₀, h) of a grid tₖ = t₀ + k·h, to rounding.

    Any one or two times qualify (h = 0 for one). Raises ValueError for a
    non-uniform grid, and for a non-finite time, whose drift is NaN.
    """
    n = len(times)
    t0 = float(times[0]) if n else 0.0
    with np.errstate(invalid="ignore"):  # inf − inf
        h = float(times[-1] - t0) / (n - 1) if n > 1 else 0.0
        drift = np.max(np.abs(times - (t0 + np.arange(n) * h)), initial=0.0)
    bound = max(_GRID_TOL * np.max(np.abs(times), initial=0.0), _GRID_FLOOR * n)
    if not drift <= bound:  # NaN fails too
        raise ValueError("a phase sum needs a finite, uniform time grid t_k = t_0 + k*h")
    return t0, h


_PHASE_TOL = 8.0 * NORM_TOL  # a phase sum's largest drift bound D (``_phase_sum``)


def _phase_sum(energies, rows, weights, times):
    """Σ_k rows_rk·w_k·e^{−iE_k t}, w = ``weights``, for each row at each time: (rows × n).

    The one phase sum of ``evolve`` and ``analytic.finite_band_weight``, on
    a uniform grid tₖ = t₀ + k·h: ``np.linspace`` output, or any one or two
    times (ValueError for any other grid, see ``_uniform_grid``). A grid
    whose phases overflow, max|E|·max|t| not finite, is refused with a
    ConfigError before any phase is formed, and so is one whose phases keep
    too few digits. A phase E_k·t is rounded by about eps·|E_k|·max|t|, so
    row r's sum drifts by up to about D_r = Σ_k |a_rk|·min(2, eps·|E_k|·max|t|),
    a = rows·w: an energy moves it only by the amplitude it carries in that
    row. The grid is refused when max_r D_r > ``_PHASE_TOL`` = 8·NORM_TOL.
    Against mpmath phases, the float64 weights of a dim-35 chooser (n_band =
    32; seven choices of v, w, u and alpha; float eigenpairs taken as exact)
    are off by at most 0.11·max D_r for max D_r from 1e-12 to 2e-7, so at
    the bound by under NORM_TOL; they keep no digit once D_r saturates.

    With k = a·B + b the phases factor:
    Σ_k rows_rk·w_k·e^{−iE_k(t₀+kh)} = Σ_k [rows_rk·w_k·e^{−iE_k(t₀+aBh)}]·e^{−iE_k·bh}.
    The brackets of ``_CHECK_BLOCK`` rows r and every coarse step a form
    one (rows·⌈n/B⌉ × dim) matrix, and one product with the fine phases
    (dim × B) gives those rows' sums. B ≈ √(n·(rows+1)) for the rows of
    one block, evened out to ⌈n/⌈n/B⌉⌉ ≤ n, balances the ``exp`` blocks
    against the brackets: a few rows need no (dim × n) block.
    """
    times = np.asarray(times, dtype=float)
    t0, h = _uniform_grid(times)
    scale = float(np.max(np.abs(energies), initial=0.0))
    span = float(np.max(np.abs(times), initial=0.0))
    if not math.isfinite(scale * span):  # before any exp block: e^{-i inf} is NaN
        raise ConfigError(
            f"the phases lambda*t overflow: max|lambda| = {scale:.3e} "
            f"times max|t| = {span:.3e} is not finite"
        )
    drift = np.abs(weights).reshape(-1) * np.minimum(2.0, _EPS * span * np.abs(energies))
    blocks = _blocks(len(rows), _CHECK_BLOCK)
    worst = max(((np.abs(rows[s:e]) @ drift).max() for s, e in blocks), default=0.0)
    if worst > _PHASE_TOL:
        raise ConfigError(
            f"the phases lambda*t lose their digits: their rounding may move a "
            f"sum by {worst:.3e} > {_PHASE_TOL:.0e} (max|lambda| = {scale:.3e}, "
            f"max|t| = {span:.3e})"
        )
    n = len(times)
    block = min(len(rows), _CHECK_BLOCK)
    coarse = -(-n // (math.isqrt(n * (block + 1) - 1) + 1)) if n else 0
    fine = -(-n // coarse) if n else 1  # B
    rate = -1j * energies
    # one coarse step starts at t₀ alone, and then B·h = n·h may overflow
    coarse_step = fine * h if coarse > 1 else 0.0
    starts = np.exp(np.outer(t0 + coarse_step * np.arange(coarse), rate)) * weights
    steps = np.exp(np.outer(rate, h * np.arange(fine)))
    sums = np.empty((len(rows), n), dtype=complex)
    for s, e in _blocks(len(rows), _CHECK_BLOCK):
        bracket = (rows[s:e, np.newaxis, :] * starts).reshape(-1, len(energies))
        sums[s:e] = (bracket @ steps).reshape(e - s, coarse * fine)[:, :n]
        del bracket  # before the next block's
    return sums


def evolve(d: SpectralDecomposition, psi0, times) -> np.ndarray:
    """Propagate: rows are states Ψ(t) on the supplied uniform time grid.

    Ψ(t) = Σ_k e^{−iλ_k t} v_k ⟨v_k|Ψ(0)⟩ on the eigenvector rows ``d``
    carries, by ``_phase_sum`` (its grid, overflow and digit rules). Ψ(0), given on
    those rows, must be normalized (contract violation otherwise). The
    eigenvectors must be real (ValueError otherwise); the states are complex.

    ``d`` may carry a subset of a decomposition's rows, built as
    ``SpectralDecomposition(dec.eigenvalues, dec.eigenvectors[rows])``: exact
    when Ψ(0) lies on those rows, for ⟨v_k|Ψ(0)⟩ then sums over them alone,
    and the norm check of Ψ(0) on them refuses any state that does not. The
    full state keeps ‖Ψ(0)‖ up to the orthonormality defect (``--check``
    measures it), so the other rows hold ‖Ψ(0)‖² minus the subset's weight.
    """
    vectors = d.eigenvectors
    if np.iscomplexobj(vectors):
        raise ValueError("evolve needs the real eigenvectors of a real-symmetric matrix")
    psi0 = np.asarray(psi0, dtype=complex)
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > NORM_TOL:
        raise ContractViolationError(f"initial state norm {norm} is not 1 within {NORM_TOL:.0e}")
    # ⟨v_k|Ψ(0)⟩ by one real product: Ψ(0) read as float64 interleaves its
    # real and imaginary parts, so no complex copy of V is made
    overlaps = (vectors.T @ psi0[:, np.newaxis].view(float)).view(complex).T
    return _phase_sum(d.eigenvalues, vectors, overlaps, times).T


def total_norms(states) -> np.ndarray:
    """Total norm Σ_i |Ψ_i|² at each sampled time."""
    return np.sum(np.abs(np.asarray(states)) ** 2, axis=1)
