"""Exact compound-risk computations for finite mixing distributions.

A mean parameter theta drawn from a discrete distribution G and observed
through X ~ N(theta, 1) yields the marginal density

    phi_G(x) = sum_i w_i phi(x - u_i),

whose score determines the posterior-mean (Tweedie) rule
t*(x) = x + phi_G'(x) / phi_G(x).  This module computes that rule, the
risk of any separable rule against G, the corresponding Bayes risk, the
signal-mass functionals used by the hybrid branch decision, and the risk
lost to flooring the density.  Everything here is deterministic
quadrature-grade arithmetic; it serves as the reference oracle for the
estimation code.

The posterior-mean rule, the integrands of :func:`bayes_risk`,
:func:`rule_risk` and :func:`density_floor_loss`, and the floor-crossing
scan evaluate one exponential per (point, atom) pair and walk the points
in blocks of at most ``_BLOCK_PAIRS`` pairs, so their temporaries stay
bounded whatever the atom count.  Every rule's risk without a closed form
is priced by one loss sweep on the oracle's exponentials (:func:`_rule_loss`):
a rule t enters as the offset t(x) - x, and the prior's own posterior-mean
rule takes its offset, the shift, from the same exponentials.

:func:`bayes_risks` prices a batch of priors in one lockstep quadrature
(:func:`quadrature.integrate_batch`): one integrand call per round for the
whole batch.  Priors with equal atom counts share one (point, atom) sweep,
each point reading its own prior's row of a stacked table, so each risk is
bit-identical to :func:`bayes_risk` of that prior alone, whatever the batch.

The floor-crossing scan is coarse to fine: because |phi_G'| <= 1/sqrt(2 pi e)
< 0.25 for every G, a coarse cell whose end values sit on one side of rho,
farther from it than 0.25 times the cell width in sum, holds no crossing,
and only the other cells are scanned point by point.  It finds the flips of
the dense scan, at worst (no cell certified) with 1/16 more points; its
bisection stops once no bracket end moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kde import KernelDensityEstimate, kde_eval
from .quadrature import integrate, integrate_batch
from .thresholds import soft_threshold_risk, threshold

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
DENSITY_FLOOR_LIMIT = _INV_SQRT_2PI  # valid floors satisfy 0 < rho < this
_TAIL_PAD = 8.0  # integration window extends this many sigmas past the atoms
_WEIGHT_TOL = 1e-12
_RISK_TOL = 1e-8  # quadrature tolerance of every exact risk and floor loss
_BLOCK_PAIRS = 1 << 15  # (point, atom) pairs per temporary: 256 KB of float64
_SCAN = 4096  # grid points of the floor-crossing scan
_SCAN_CELL = 16  # grid steps per coarse cell of that scan
_SLOPE_BOUND = 0.25  # exceeds sup |phi_G'| = 1/sqrt(2 pi e) = 0.2420 for every G


# ---------------------------------------------------------------------------
# mixing distributions


@dataclass(frozen=True, eq=False)
class MixingDistribution:
    """Finitely supported mixing distribution.

    Atoms are sorted by location, duplicates merged, weights nonnegative
    and summing to one within 1e-12.  Instances are immutable; build them
    through :func:`from_atoms` or :func:`empirical_mixing`.
    """

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        locs = np.array(self.locations, dtype=float)  # a copy: the caller's arrays stay writable
        wts = np.array(self.weights, dtype=float)
        if locs.ndim != 1 or locs.shape != wts.shape or locs.size == 0:
            raise ValueError("locations and weights must be matching nonempty 1-d arrays")
        if not (np.all(np.isfinite(locs)) and np.all(np.isfinite(wts))):
            raise ValueError("atoms must be finite")
        if np.any(wts < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(wts.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {float(wts.sum())}, expected 1 within {_WEIGHT_TOL}")
        if np.any(locs[1:] <= locs[:-1]):  # no subtraction: far atoms' gaps overflow
            raise ValueError("locations must be strictly increasing; use from_atoms to merge")
        locs.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", wts)

    @property
    def atom_count(self) -> int:
        return self.locations.size

    def support_window(self) -> tuple[float, float]:
        """Window [min atom - _TAIL_PAD, max atom + _TAIL_PAD] carrying the marginal mass."""
        return float(self.locations[0]) - _TAIL_PAD, float(self.locations[-1]) + _TAIL_PAD


def from_atoms(locations, weights) -> MixingDistribution:
    """Build a mixing distribution, sorting atoms and merging duplicates."""
    locs = np.asarray(locations, dtype=float).ravel()
    wts = np.asarray(weights, dtype=float).ravel()
    if locs.size != wts.size:
        raise ValueError("locations and weights must have equal length")
    order = np.argsort(locs, kind="stable")
    locs = locs[order]
    # an atom starts where the sorted value changes (-0.0 == 0.0, so those merge);
    # bincount adds each run's weights in index order (np.add.reduceat sums pairwise)
    first = np.empty(locs.size, dtype=bool)
    first[:1] = True
    np.not_equal(locs[1:], locs[:-1], out=first[1:])
    merged = np.bincount(np.cumsum(first) - 1, weights=wts[order])
    return MixingDistribution(locs[first], merged)


def empirical_mixing(values, scale) -> MixingDistribution:
    """Empirical distribution of ``values / scale``.

    Each of the n values contributes weight 1/n; coincident rescaled
    values merge into a single atom.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0:
        raise ValueError("cannot build an empirical mixing distribution from no values")
    scale = float(scale)
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    return from_atoms(vals / scale, np.full(vals.size, 1.0 / vals.size))


def gaussian_grid_prior(tau=1.0, atoms=201, span=6.0) -> MixingDistribution:
    """Grid discretization of N(0, tau^2) on [-span*tau, span*tau]."""
    if atoms < 2:
        raise ValueError("need at least 2 grid atoms")
    u = np.linspace(-span * tau, span * tau, atoms)
    w = np.exp(-0.5 * (u / tau) ** 2)
    return from_atoms(u, w / w.sum())


# ---------------------------------------------------------------------------
# marginal density and the posterior-mean shift


def mixture_density(prior: MixingDistribution, points):
    """Marginal density of X ~ N(theta, 1), theta ~ prior, and its x-derivative.

    Returns ``(value, derivative)`` with the shape of ``points``.  Raw
    Gaussian sums; far from every atom both outputs underflow to zero.
    """
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 0
    x = np.atleast_1d(pts).astype(float)
    d = x[:, None] - prior.locations[None, :]
    kern = _INV_SQRT_2PI * np.exp(-0.5 * d * d)
    value = kern @ prior.weights
    deriv = (-d * kern) @ prior.weights
    if scalar:
        return float(value[0]), float(deriv[0])
    return value.reshape(pts.shape), deriv.reshape(pts.shape)


class _AtomTable(NamedTuple):
    """Equal-count priors stacked: row i of each (priors, atoms) array is one prior."""

    locations: np.ndarray
    weights: np.ndarray


def _atom_blocks(prior, x, buffers, rows=None):
    """Yield ``(block, d, *rest)`` over the flat points ``x`` in blocks of at
    most ``_BLOCK_PAIRS`` (point, atom) pairs: d = x[block] - atom, and
    ``buffers - 1`` more (rows, atoms) scratch arrays.

    ``prior`` is a :class:`MixingDistribution`, or with ``rows`` an
    :class:`_AtomTable` whose row ``rows[i]`` holds point i's atoms.

    All of them are views into one workspace allocated per call, each
    starting on a 64-byte boundary.  Fresh temporaries per block would land
    wherever the allocator puts them, and the in-place sweeps below run
    10-20% slower from a misaligned start (4096-atom blocks, AVX-512 Xeon),
    so their speed would depend on the process's heap layout.
    """
    atoms = prior.locations.shape[-1]
    step = max(1, min(_BLOCK_PAIRS // atoms, x.size))
    stride = -(-step * atoms // 8) * 8  # whole 64-byte lines per buffer
    raw = np.empty(buffers * stride + 7)
    work = raw[(-raw.ctypes.data % 64) // 8 :]
    for start in range(0, x.size, step):
        block = slice(start, start + step)
        points = min(step, x.size - start)
        views = [
            work[k * stride : k * stride + points * atoms].reshape(points, atoms)
            for k in range(buffers)
        ]
        if rows is None:
            np.subtract(x[block, None], prior.locations[None, :], out=views[0])
        else:
            np.take(prior.locations, rows[block], axis=0, out=views[0])
            np.subtract(x[block, None], views[0], out=views[0])
        yield (block, *views)


def _weigh(d, e, weights):
    """e = w exp(-(d^2/2 - e_min)) in place, from the (points, atoms) offsets
    ``d``; returns e_min, each point's smallest d^2/2.

    Re-centring the exponents per point keeps the largest term of each row
    at its weight, however far the point sits from every atom.
    """
    np.multiply(d, d, out=e)
    e *= 0.5
    e_min = e.min(axis=1)
    np.subtract(e_min[:, None], e, out=e)  # -(e - e_min) to the bit: rounding is symmetric
    np.exp(e, out=e)
    e *= weights  # in place: temporaries cost more than flops
    return e_min


def _shift_and_density(prior, x, rows=None):
    """``(phi_G'(x)/phi_G(x), phi_G(x))`` at the flat points ``x``.

    ``prior`` and ``rows`` are as for :func:`_atom_blocks`.  One exponential
    per (point, atom).  The exponents are re-centered per point before
    exponentiation (:func:`_weigh`), so the shift never degenerates to 0/0,
    even where the raw density underflows; the density is rescaled by the
    point's own factor exp(-e_min) and comes out 0 where that underflows.
    """
    shift = np.empty(x.size)
    value = np.empty(x.size)
    # atoms about 1e154 apart overflow d^2 and make inf - inf: the quadrature
    # reports the non-finite values once, so numpy does not warn of them
    with np.errstate(over="ignore", invalid="ignore"):
        for block, d, e, *spare in _atom_blocks(prior, x, 2 + (rows is not None), rows):
            weights = prior.weights
            if rows is not None:
                weights = np.take(weights, rows[block], axis=0, out=spare[0])
            e_min = _weigh(d, e, weights)
            den = e.sum(axis=1)
            value[block] = _INV_SQRT_2PI * np.exp(-e_min) * den
            d *= e
            shift[block] = -d.sum(axis=1) / den
    return shift, value


def _rule_loss(prior, x, offset=None):
    """The pointwise risk sum_i w_i phi(x - u_i) (t(x) - u_i)^2 of a rule t at
    the flat points ``x``, from the per-point ``offset`` t(x) - x.

    The exponentials of :func:`_shift_and_density`, with t(x) - u_i formed
    as (x - u_i) + offset; phi_G itself is not formed.  With ``offset``
    None, t is the posterior-mean rule of ``prior`` and its offset, the
    shift phi_G'/phi_G, comes from the same exponentials.
    """
    risk = np.empty(x.size)
    own = offset is None
    with np.errstate(over="ignore", invalid="ignore"):  # as in _shift_and_density
        for block, d, e, *spare in _atom_blocks(prior, x, 2 + own):
            e_min = _weigh(d, e, prior.weights)
            if own:
                de = np.multiply(d, e, out=spare[0])
                off = -de.sum(axis=1) / e.sum(axis=1)
            else:
                off = offset[block]
            d += off[:, None]
            d *= d
            d *= e
            risk[block] = _INV_SQRT_2PI * np.exp(-e_min) * d.sum(axis=1)
    return risk


def _density_values(prior: MixingDistribution, x):
    """phi_G at the flat points ``x``: the value half of :func:`mixture_density`."""
    value = np.empty(x.size)
    for block, d in _atom_blocks(prior, x, 1):
        d *= d
        d *= -0.5
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        value[block] = d @ prior.weights
    return value


# ---------------------------------------------------------------------------
# separable rules


class ScalarRule:
    """A deterministic coordinatewise estimator map.

    Subclasses implement ``__call__`` accepting any finite real (scalar or
    array) and returning values of the same shape.  ``breakpoints`` lists
    points where the map is not smooth, for quadrature splitting.
    """

    def __call__(self, x):
        raise NotImplementedError

    def breakpoints(self) -> tuple:
        return ()

    def _wrap(self, pts, values):
        return float(values[0]) if np.ndim(pts) == 0 else values.reshape(np.shape(pts))

    def _flat(self, pts):
        x = np.atleast_1d(np.asarray(pts, dtype=float)).ravel()
        if not np.all(np.isfinite(x)):
            raise ValueError("rule inputs must be finite")
        return x


@dataclass(frozen=True)
class IdentityRule(ScalarRule):
    def __call__(self, x):
        return self._wrap(x, self._flat(x).copy())


@dataclass(frozen=True)
class SoftThresholdRule(ScalarRule):
    level: float

    def __call__(self, x):
        return self._wrap(x, threshold(self._flat(x), self.level, "soft"))

    def breakpoints(self):
        return (-self.level, self.level)


@dataclass(frozen=True)
class HardThresholdRule(ScalarRule):
    level: float

    def __call__(self, x):
        return self._wrap(x, threshold(self._flat(x), self.level, "hard"))

    def breakpoints(self):
        return (-self.level, self.level)


@dataclass(frozen=True)
class LinearShrinkRule(ScalarRule):
    """x -> factor * x; the per-block form of spherical shrinkage."""

    factor: float

    def __call__(self, x):
        return self._wrap(x, self.factor * self._flat(x))


@dataclass(frozen=True, eq=False)
class OracleRule(ScalarRule):
    """Posterior-mean rule for a known mixing distribution."""

    prior: MixingDistribution

    def __call__(self, x):
        flat = self._flat(x)
        return self._wrap(x, flat + _shift_and_density(self.prior, flat)[0])


@dataclass(frozen=True, eq=False)
class GebRule(ScalarRule):
    """Plug-in posterior-mean rule from a fitted kernel density.

    x -> x + f_hat'(x) / max(f_hat(x), floor).  The fitted density may go
    negative; only the floor guards the denominator, and the output is
    not clipped.
    """

    density: KernelDensityEstimate
    floor: float

    def __call__(self, x):
        flat = self._flat(x)
        value, deriv = kde_eval(self.density, flat)
        return self._wrap(x, flat + deriv / np.maximum(value, self.floor))


def oracle_rule(prior: MixingDistribution) -> OracleRule:
    """Posterior-mean rule t*(x) = x + phi_G'(x)/phi_G(x) for ``prior``."""
    return OracleRule(prior)


# ---------------------------------------------------------------------------
# risks


def rule_risk(rule: ScalarRule, prior: MixingDistribution) -> float:
    """Compound risk of a separable rule: E (rule(X) - theta)^2, theta ~ prior.

    Soft-threshold rules use the exact per-atom risk formula, over all atoms
    in one array pass, added in atom order.  Every other rule is integrated
    over the mass window [min atom - 8, max atom + 8], with panel edges at
    the rule's breakpoints, on the oracle's exponentials: one per (point,
    atom), in one loss sweep (:func:`_rule_loss`).  The oracle rule of
    ``prior`` itself takes its offset, the shift, from those exponentials;
    any other rule is evaluated once per point and enters as the offset
    rule(x) - x, and neither phi_G nor the shift is formed for it.
    """
    if isinstance(rule, SoftThresholdRule):
        # added in atom order, one at a time, as a loop would: np.sum adds pairwise
        risks = prior.weights * soft_threshold_risk(prior.locations, rule.level)
        return float(np.add.accumulate(risks)[-1])
    own = isinstance(rule, OracleRule) and rule.prior is prior

    def integrand(x):
        return _rule_loss(prior, x, None if own else np.asarray(rule(x), dtype=float) - x)

    lo, hi = prior.support_window()
    return integrate(integrand, lo, hi, tol=_RISK_TOL, breakpoints=rule.breakpoints())


def bayes_risk(prior: MixingDistribution) -> float:
    """Risk of the posterior-mean rule: 1 - E (phi_G'/phi_G)^2(X).

    Exactly zero for a point mass.  The quadrature result is clamped to
    [0, 1]; tiny negatives from roundoff are zeroed.
    """
    (risk,) = bayes_risks([prior])
    return risk


def bayes_risks(priors) -> list:
    """:func:`bayes_risk` of each prior, bit for bit, priced in one lockstep
    quadrature: one integrand call per round for the whole batch.

    Priors with equal atom counts are stacked into one table and share one
    (point, atom) sweep per round, in blocks of at most ``_BLOCK_PAIRS``
    pairs; a count that only one prior has sweeps that prior directly.  A
    failing integral raises the error the first failing prior, in order,
    would raise alone.
    """
    priors = list(priors)
    risks = [0.0] * len(priors)
    pending = [k for k, prior in enumerate(priors) if prior.atom_count > 1]
    if not pending:
        return risks
    by_count = {}
    for i, k in enumerate(pending):
        by_count.setdefault(priors[k].atom_count, []).append(i)
    # one sweep per atom count: the prior itself, or the stacked table with
    # each integral's row in it
    sweeps = []
    sweep_of = np.empty(len(pending), dtype=np.intp)
    for s, members in enumerate(by_count.values()):
        sweep_of[members] = s
        group = [priors[pending[i]] for i in members]
        if len(group) == 1:
            sweeps.append((group[0], None))
            continue
        row = np.full(len(pending), -1)
        row[members] = np.arange(len(members))
        table = _AtomTable(
            np.array([g.locations for g in group]), np.array([g.weights for g in group])
        )
        sweeps.append((table, row))

    def integrand(x, which):
        out = np.empty(x.size)
        owner_sweep = sweep_of[which] if len(sweeps) > 1 else None
        for s, (source, row) in enumerate(sweeps):
            points = slice(None) if owner_sweep is None else np.flatnonzero(owner_sweep == s)
            rows = None if row is None else row[which[points]]
            shift, value = _shift_and_density(source, x[points], rows)
            out[points] = shift * shift * value
        return out

    fishers = integrate_batch(integrand, [priors[k].support_window() for k in pending], tol=_RISK_TOL)
    for k, fisher in zip(pending, fishers):
        risks[k] = min(max(1.0 - fisher, 0.0), 1.0)
    return risks


# ---------------------------------------------------------------------------
# signal-mass summaries


@dataclass(frozen=True)
class MixtureSummary:
    """Signal-mass functionals of a mixing distribution.

    kappa       = sum w (u^2 and 1, whichever is smaller)
    kappa_tilde = 1 - sum w exp(-u^2/4)

    The exact sandwich (e-1)/(4e) * kappa <= kappa_tilde <= kappa holds
    for every instance.
    """

    kappa: float
    kappa_tilde: float


def mixture_summaries(prior: MixingDistribution) -> MixtureSummary:
    """Compute the signal-mass summary of ``prior``."""
    u = prior.locations
    w = prior.weights
    with np.errstate(over="ignore"):  # u^2 of far atoms overflows to inf
        kappa = float(w @ np.minimum(u * u, 1.0))
        kappa_tilde = float(1.0 - w @ np.exp(-0.25 * u * u))
    return MixtureSummary(kappa=kappa, kappa_tilde=kappa_tilde)


# ---------------------------------------------------------------------------
# density-floor loss


def density_floor_loss(rho, prior: MixingDistribution) -> float:
    """Risk lost to flooring the marginal density at ``rho``.

    integral of (phi_G'/phi_G)^2 (1 - phi_G/(phi_G v rho))^2 phi_G over
    the mass window.  The integrand has kinks where phi_G crosses rho;
    those crossings are located by scan-and-bisect and passed to the
    quadrature as panel edges.  The scan skips every coarse cell that the
    slope bound |phi_G'| < 0.25 certifies free of crossings, and finds the
    same crossings as a scan of every grid point (see
    :func:`_floor_crossings`).
    """
    rho = float(rho)
    if not 0.0 < rho < DENSITY_FLOOR_LIMIT:
        raise ValueError(
            f"density floor must lie in (0, {DENSITY_FLOOR_LIMIT:.6f}), got {rho}"
        )
    lo, hi = prior.support_window()

    def factor(x):
        shift, value = _shift_and_density(prior, x)
        damp = 1.0 - value / np.maximum(value, rho)
        return shift * shift * damp * damp * value

    return integrate(
        factor, lo, hi, tol=_RISK_TOL, breakpoints=_floor_crossings(prior, rho, lo, hi)
    )


def _floor_crossings(prior, rho, lo, hi):
    """Solutions of phi_G(x) = rho located by bisection on a scan grid.

    Each point of ``np.linspace(lo, hi, _SCAN)`` is classed by whether
    phi_G - rho < 0 there, so a root makes exactly one flip even where a
    grid value equals rho; every bracket between neighbours of different
    class is bisected, all brackets together.

    The grid is scanned coarse to fine.  phi_G - rho is evaluated at every
    ``_SCAN_CELL``-th point and the last one.  Since the weights are
    nonnegative and sum to one, |phi_G'| <= sup|phi'| = 1/sqrt(2 pi e) =
    0.2420 < ``_SLOPE_BOUND``; so a coarse cell [g_j, g_k] whose ends f_j,
    f_k are of one class with |f_j| + |f_k| > _SLOPE_BOUND (g_k - g_j)
    keeps phi_G - rho away from zero by at least 0.004 (g_k - g_j) inside
    (Shubert's Lipschitz bound), far beyond rounding, and its interior
    points share the ends' class.  Only the other cells' interior points
    are evaluated, so the flips are those of the dense scan.  At worst, when
    no cell is certified (rho within _SLOPE_BOUND (g_k - g_j) of phi_G
    everywhere, e.g. rho near 1e-300 over wide tails), every point is
    evaluated once plus the coarse pass.

    The bisection halves each bracket up to 60 times and stops early once
    no end moves: when a and b are adjacent doubles their midpoint rounds to
    one of them, so neither can move again and the result keeps its bits.
    """
    grid = np.linspace(lo, hi, _SCAN)
    ends = np.append(np.arange(0, _SCAN - 1, _SCAN_CELL), _SCAN - 1)
    f = _density_values(prior, grid[ends]) - rho
    below_end = f < 0
    span = np.diff(ends)
    certified = (below_end[:-1] == below_end[1:]) & (
        np.abs(f[:-1]) + np.abs(f[1:]) > _SLOPE_BOUND * np.diff(grid[ends])
    )
    below = np.append(np.repeat(below_end[:-1], span), below_end[-1])
    refine = np.append(np.repeat(~certified, span), False)
    refine[ends] = False
    below[refine] = _density_values(prior, grid[refine]) - rho < 0
    flips = np.flatnonzero(below[:-1] != below[1:])
    if flips.size == 0:
        return ()
    a, b = grid[flips], grid[flips + 1]
    fa = _density_values(prior, a) - rho
    for _ in range(60):
        m = 0.5 * (a + b)
        fm = _density_values(prior, m) - rho
        same = (fa < 0) == (fm < 0)
        a_next, b_next = np.where(same, m, a), np.where(same, b, m)
        if np.array_equal(a_next, a) and np.array_equal(b_next, b):
            break
        a, fa, b = a_next, np.where(same, fm, fa), b_next
    return tuple((0.5 * (a + b)).tolist())
