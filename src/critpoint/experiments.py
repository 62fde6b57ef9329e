"""The five desk-scale verification experiments.

Single-trajectory experiments (convergence, growth, log^- law of large
numbers) extend ONE sample path through the whole n schedule, mirroring
statements that hold along a fixed realization.  Monte Carlo experiments
(Jensen, anti-concentration) draw fresh trials keyed by (seed, trial_id),
so any execution order reproduces the same report.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import mobius as mb
from .critical import DEFAULT_TOL, critical_points
from .errors import (ConvergenceError, NonDegeneracyError, ParameterError,
                     PoleOnContourError, as_complex, as_count, as_list, as_positive, as_real)
from .logderiv import (Circle, _blocked, _circle_field, cauchy_sums, circle_sup_norm,
                       eval_S, log_minus, log_plus)
from .measures import (log_minus_integral, reference_quantization, sliced_w1,
                       sliced_w1_many, quadrant_discrepancy)
from .report import Report
from .sampler import TRANSFORM_BLOCK, BaseMeasure, SeedSpec, sample

# substream purposes (never reuse a number)
_P_TRAJECTORY = 1
_P_REFERENCE = 2
_P_JENSEN_ROOTS = 3
_P_JENSEN_MOBIUS = 4
_P_ANTICONC = 5
_P_GROWTH_GEOM = 6
_P_LLN_MOBIUS = 7

_MOBIUS_ATTEMPTS = 100

# verdict thresholds and row parameters, which no config sets
R_INFTY = 10.0  # convergence: |z| beyond which a point is escaped mass
JENSEN_PASS_RATE = 0.99  # jensen: the fraction of valid trials that must pass
SLOPE_MIN, SLOPE_MAX = -1.9, -1.2  # anticoncentration: the fitted slope's band
MIN_HITS = 10  # anticoncentration: the hits an n needs to enter the slope fit
GROWTH_RATIO_MAX = 6.0  # growth: the largest log^+ sup |S| / log n that passes


# ---------------------------------------------------------------------------
# settings: each field names its checker, used by Python construction and JSON


def _optional(check):
    return lambda v, name: None if v is None else check(v, name)


def _instance(cls):
    return lambda v, name: v if isinstance(v, cls) else cls.from_json(v)


def _list_of(check, rule, valid):
    """A list checked entry by entry, then as a whole by valid()."""
    def parse(v, name):
        items = tuple(as_list(v, check, name))
        if not valid(items):
            raise ParameterError(f"{name} must be {rule}, got {v!r}")
        return items
    return parse


def _schedule(low):
    return _list_of(as_count, f"a nonempty increasing list of integers >= {low}",
                    lambda ns: len(ns) > 0 and ns[0] >= low and all(a < b for a, b in zip(ns, ns[1:])))


_probes = _list_of(as_complex, "a nonempty list of distinct points",
                   lambda ps: len(ps) > 0 and len(set(ps)) == len(ps))
_projection = _list_of(as_real, "[a, b]", lambda ab: len(ab) == 2)


def _setting(check, default=MISSING):
    return field(default=default, metadata={"check": check})


#: fields kept at the top level of the JSON config; the rest go under "tolerances"
_TOP_LEVEL = ("measure", "n_schedule", "trials", "seed")


@dataclass(frozen=True)
class BaseConfig:
    """The settings every experiment reads.  Each subclass names its
    experiment and adds the settings its runner reads."""

    measure: BaseMeasure = _setting(_instance(BaseMeasure))
    n_schedule: tuple = _setting(_schedule(1))
    seed: SeedSpec = _setting(_instance(SeedSpec), SeedSpec(0, 0))

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, f.metadata["check"](getattr(self, f.name), f.name))

    def to_json(self) -> dict:
        """The config document `parse_config` reads back into an equal config."""
        doc = {"experiment": self.experiment, "tolerances": {}}
        for f in fields(self):
            part = doc if f.name in _TOP_LEVEL else doc["tolerances"]
            part[f.name] = _to_json(getattr(self, f.name))
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "BaseConfig":
        """Build from a config document without its "experiment" key."""
        top = {k: v for k, v in doc.items() if k != "tolerances"}
        tol = doc.get("tolerances", {})
        if not isinstance(tol, dict):
            raise ParameterError("tolerances must be a JSON object")
        names = {f.name for f in fields(cls)}
        unknown = (set(top) - (names & set(_TOP_LEVEL))) | (set(tol) - (names - set(_TOP_LEVEL)))
        if unknown:
            raise ParameterError(
                f"unknown or misplaced {cls.experiment} settings: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in top]
        if missing:
            raise ParameterError(f"config requires {missing}")
        return cls(**top, **tol)


def _to_json(v):
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, tuple):
        return [_to_json(x) for x in v]
    return v


@dataclass(frozen=True)
class ConvergenceConfig(BaseConfig):
    experiment = "convergence"
    n_schedule: tuple = _setting(_schedule(2))  # the solver needs two roots
    directions: int = _setting(as_count, 64)
    k_reference: int = _setting(as_count, 100_000)
    improvement_factor: float | None = _setting(_optional(as_real), 4.0)
    quadrant_max: float | None = _setting(_optional(as_real), 0.05)


@dataclass(frozen=True)
class JensenConfig(BaseConfig):
    experiment = "jensen"
    n_schedule: tuple = _setting(_schedule(2))  # the solver needs two roots
    trials: int = _setting(as_count, 1)
    m_circle: int = _setting(as_count, 4096)
    jensen_slack: float = _setting(as_real, 0.05)


@dataclass(frozen=True)
class AnticoncentrationConfig(BaseConfig):
    experiment = "anticoncentration"
    trials: int = _setting(as_count, 1)
    probes: tuple = _setting(_probes, (2 + 0j, 3j, -2 - 2j))
    projection: tuple = _setting(_projection, (1.0, 0.0))
    r_ball: float | None = _setting(_optional(as_positive), None)  # None: sqrt(#probes)


@dataclass(frozen=True)
class GrowthConfig(BaseConfig):
    experiment = "growth"
    n_schedule: tuple = _setting(_schedule(2))  # the ratios divide by log n
    m_circle: int = _setting(as_count, 4096)
    circle_center: complex | None = _setting(_optional(as_complex), None)
    circle_radius: float | None = _setting(_optional(as_positive), None)

    def __post_init__(self):
        super().__post_init__()
        if (self.circle_center is None) != (self.circle_radius is None):
            raise ParameterError("set both circle_center and circle_radius, or neither")


@dataclass(frozen=True)
class LLNConfig(BaseConfig):
    experiment = "lln"
    k_reference: int = _setting(as_count, 1_000_000)
    u_transform: mb.MobiusTransform | None = _setting(
        _optional(_instance(mb.MobiusTransform)), None)

    def __post_init__(self):
        super().__post_init__()
        u = self.u_transform
        if (u is not None and self.measure.has_finite_support
                and np.any(mb.apply(u, self.measure.atoms_and_weights()[0]) == 0)):
            raise ParameterError(f"u_transform {u.to_json()} sends a support atom to 0, so "
                                 "the log^- integral is infinite and the run undefined")


def _escaped_mass(points: np.ndarray, radius: float) -> float:
    return np.count_nonzero(np.abs(points) > radius) / len(points)


def _start_solves(rep: Report, n: int) -> None:
    """An empty `Report.solver` entry for n."""
    rep.solver[f"n={n}"] = {"solves": 0, "near_duplicate_clusters": 0, "points_above_tol": 0,
                            "sweeps": 0, "active": [], "direct_pairs": 0, "far_pairs": 0,
                            "nudges": 0}


def _count_solve(rep: Report, n: int, cs) -> None:
    """Add one returned solve to the `Report.solver` entry of n: the roots
    it merged as near-duplicates, its points whose certificate is above
    the solver's DEFAULT_TOL (certified only at the double-precision
    floor), its sweeps, its active points per sweep (summed sweep by sweep),
    the pairs its Cauchy sums summed directly and by the far route, and
    its nudged iterates."""
    entry = rep.solver[f"n={n}"]
    entry["solves"] += 1
    entry["near_duplicate_clusters"] += cs.near_duplicate_clusters
    entry["points_above_tol"] += int(np.count_nonzero(cs.residuals > DEFAULT_TOL))
    entry["sweeps"] += cs.sweeps
    entry["direct_pairs"] += cs.direct_pairs
    entry["far_pairs"] += cs.far_pairs
    entry["nudges"] += cs.nudges
    active = entry["active"]
    active += [0] * (cs.sweeps - len(active))
    for s, a in enumerate(cs.active):
        active[s] += a


# ---------------------------------------------------------------------------
# convergence


def run_convergence(config: ConvergenceConfig) -> Report:
    """Distances between the critical-point measure and the root measure
    along one trajectory, at each n of the schedule.  Every n is solved
    first, so that one pass over the reference's sorted projections gives
    its distance to every nu_n."""
    rep = Report("convergence", config.to_json())
    t_all = time.perf_counter()
    ref = reference_quantization(config.measure, config.k_reference,
                                 config.seed.substream(_P_REFERENCE))
    traj = sample(config.measure, config.seed.substream(_P_TRAJECTORY),
                  config.n_schedule[-1])
    solved = {}  # n -> CriticalSet, or the ConvergenceError of its solve
    for n in config.n_schedule:
        t_n = time.perf_counter()
        try:
            solved[n] = critical_points(traj.samples[:n])
        except ConvergenceError as exc:
            solved[n] = exc
        rep.wall_clock[f"n={n}"] = time.perf_counter() - t_n
    nus = {n: cs.points for n, cs in solved.items() if not isinstance(cs, ConvergenceError)}
    t_ref = time.perf_counter()
    to_ref = dict(zip(nus, sliced_w1_many(nus.values(), ref, config.directions)))
    rep.wall_clock["sliced_w1_nu_ref"] = time.perf_counter() - t_ref
    for n, cs in solved.items():
        _start_solves(rep, n)
        if n not in nus:
            rep.add_row(n, "solver_failed", 1.0)
            rep.add_row(n, "solver_worst_residual", cs.worst_residual or math.nan)
            continue
        _count_solve(rep, n, cs)
        t_n = time.perf_counter()
        mu_n, nu_n = traj.samples[:n], nus[n]
        rep.add_row(n, "sliced_w1_nu_mu", sliced_w1(nu_n, mu_n, config.directions))
        rep.add_row(n, "sliced_w1_nu_ref", to_ref[n])
        rep.add_row(n, "quadrant_nu_mu", quadrant_discrepancy(nu_n, mu_n))
        rep.add_row(n, "escaped_mass_nu", _escaped_mass(nu_n, R_INFTY))
        rep.add_row(n, "escaped_mass_mu", _escaped_mass(mu_n, R_INFTY))
        rep.add_row(n, "max_residual", float(cs.residuals.max(initial=0.0)))
        rep.wall_clock[f"n={n}"] += time.perf_counter() - t_n
    failures = len(solved) - len(nus)
    rep.add_verdict("all_solves_converged", failures == 0, 0, failures)
    first, last = config.n_schedule[0], config.n_schedule[-1]
    if failures == 0:
        if config.improvement_factor is not None:
            f = config.improvement_factor
            for stat in ("sliced_w1_nu_mu", "sliced_w1_nu_ref"):
                d0, d1 = rep.stat(first, stat), rep.stat(last, stat)
                # a string, not inf, when d1 = 0: report.json stays strict JSON
                rep.add_verdict(f"{stat}_improves", d1 * f <= d0, f"x{f}",
                                d0 / d1 if d1 > 0 else "zero final distance",
                                f"{stat}: {d0:.5g} -> {d1:.5g}")
        if config.quadrant_max is not None:
            q = rep.stat(last, "quadrant_nu_mu")
            rep.add_verdict("quadrant_final", q <= config.quadrant_max,
                            config.quadrant_max, q)
    rep.wall_clock["total"] = time.perf_counter() - t_all
    return rep


# ---------------------------------------------------------------------------
# Jensen


def _valid_jensen_transform(u, roots, crit_pts, m):
    """The inequality needs a = u^{-1}(0) off the roots and the critical
    points (by `eval_S`'s pole test) and a compact contour C' = u^{-1}(C) clear
    of the roots.  Returns (sup_{C'} |S| on the m grid, S(a)), or None."""
    contour = mb.preimage_unit_circle(u)
    if contour is None or u.a == 0:  # u^{-1}(0) = -b/a is at infinity when u.a == 0
        return None
    a_pt = -u.b / u.a
    s_at_a = eval_S(roots, a_pt)
    if not (cmath.isfinite(s_at_a) and cmath.isfinite(eval_S(crit_pts, a_pt))):
        return None
    try:
        return circle_sup_norm(roots, contour, m), s_at_a
    except PoleOnContourError:
        return None


def run_jensen(config: JensenConfig) -> Report:
    """Per fresh trial: sampled roots, sampled transform, check
    sum log^-|u(crit)| - sum log^-|u(root)| <= log sup_{C'} |S| - log |S(a)|
    up to the sup-norm discretization slack.

    The normalized comparison of the two empirical measures,
    (1 - 1/n) nu_int <= mu_int + (rhs + slack)/n with nu_int the mean of
    log^-|u| over the n-1 critical points and mu_int the mean over the n
    roots, is the same inequality divided by n, so its row,
    normalized_pass_rate, is pass_rate."""
    rep = Report("jensen", config.to_json())
    t_all = time.perf_counter()
    for n in config.n_schedule:
        t_n = time.perf_counter()
        passed = 0
        gaps = []
        _start_solves(rep, n)
        # one transform block of roots at a time: each batch is held through
        # its trials' solves
        batch = max(1, TRANSFORM_BLOCK // n)
        for t in range(config.trials):
            if t % batch == 0:  # the roots of trials t.. t + batch - 1, one row each
                streams = config.seed.substreams(
                    _P_JENSEN_ROOTS, np.arange(t, min(t + batch, config.trials)))
                drawn = sample(config.measure, config.seed, n, streams).samples
            roots = drawn[t % batch]
            cs = critical_points(roots)
            _count_solve(rep, n, cs)
            chosen = None
            for attempt in range(_MOBIUS_ATTEMPTS):
                u = mb.sample_mobius(
                    config.seed.substream(_P_JENSEN_MOBIUS, t * 128 + attempt))
                got = _valid_jensen_transform(u, roots, cs.points, config.m_circle)
                if got is not None:
                    chosen = (u,) + got
                    break
            if chosen is None:
                continue
            u, sup, s_at_a = chosen
            crit_sum = float(np.sum(log_minus(np.abs(mb.apply(u, cs.points)))))
            root_sum = float(np.sum(log_minus(np.abs(mb.apply(u, roots)))))
            lhs = crit_sum - root_sum
            rhs = math.log(sup) - math.log(abs(s_at_a))
            gaps.append(rhs - lhs)
            if lhs <= rhs + config.jensen_slack:
                passed += 1
        rate = passed / len(gaps) if gaps else 0.0
        rep.add_row(n, "trials_valid", len(gaps))
        rep.add_row(n, "trials_skipped", config.trials - len(gaps))
        rep.add_row(n, "pass_rate", rate)
        rep.add_row(n, "normalized_pass_rate", rate)
        if gaps:
            rep.add_row(n, "min_gap", min(gaps))
            rep.add_row(n, "mean_gap", sum(gaps) / len(gaps))
        rep.add_verdict(f"jensen_pass_rate_n{n}", rate >= JENSEN_PASS_RATE,
                        JENSEN_PASS_RATE, rate,
                        f"{passed}/{len(gaps)} valid trials within slack {config.jensen_slack}")
        rep.wall_clock[f"n={n}"] = time.perf_counter() - t_n
    rep.wall_clock["total"] = time.perf_counter() - t_all
    return rep


# ---------------------------------------------------------------------------
# anti-concentration


def _check_probes_nondegenerate(measure: BaseMeasure, probes) -> None:
    """For a finite-support measure the probe vector (1/(z_i - Z))_i is
    degenerate iff some combination sum_i a_i/(z_i - Z) + b vanishes on every
    atom, i.e. the atoms-by-(probes, 1) matrix has deficient rank."""
    if not measure.has_finite_support:
        return
    atoms, _ = measure.atoms_and_weights()
    probes = np.asarray(probes, dtype=complex)
    if np.min(np.abs(probes[:, None] - atoms[None, :])) == 0.0:
        raise ParameterError("probes must avoid the support atoms")
    M = np.concatenate([1.0 / (probes[None, :] - atoms[:, None]),
                        np.ones((len(atoms), 1), dtype=complex)], axis=1)
    if np.linalg.matrix_rank(M) < len(probes) + 1:
        raise NonDegeneracyError(
            "probe vector admits an almost-sure linear relation over the atoms; "
            "the anti-concentration bound needs a non-degenerate vector "
            "(infinite support, or more atoms than probes)")


def _probe_sums(paths, ns, probes, aproj, bproj) -> np.ndarray:
    """acc[k, r, i] = a Re S + b Im S at probes[i] of the first ns[k] points
    of path row r, (a, b) = (aproj, bproj), accumulated segment by segment,
    each segment's sums from the row form of `cauchy_sums`."""
    acc = np.empty((len(ns), len(paths), len(probes)))
    run, prev = np.zeros((len(paths), len(probes))), 0
    for k, n in enumerate(ns):
        (S,) = cauchy_sums(np.broadcast_to(probes, run.shape), paths[:, prev:n])
        run += aproj * S.real + bproj * S.imag
        acc[k], prev = run, n
    return acc


def run_anticoncentration(config: AnticoncentrationConfig) -> Report:
    """Concentration-function decay of (S_n(z_1), ..., S_n(z_d)).

    Each trial draws two independent sample paths and tests whether the
    projected difference a Re Delta + b Im Delta lands in the r-ball; this
    pair probability lower-bounds the concentration function sup_x P(||.||
    <= r) of the projected sums, the quantity the n^{-d/2} bound controls.
    A ball around a fixed point would be useless here: the raw sums drift
    at speed n, so that event has exponentially vanishing probability.

    The trials run as one blocked pass (`logderiv._blocked`), each CPU over
    its own range of trials: a block draws its trials' paths and sums their
    probes in the thread that runs it.  `wall_clock`'s "sample" and
    "probe_sums" are busy seconds summed over those threads, so together
    they may exceed "total".
    """
    _check_probes_nondegenerate(config.measure, config.probes)
    rep = Report("anticoncentration", config.to_json())
    t_all = time.perf_counter()
    probes = np.asarray(config.probes, dtype=complex)
    d = len(probes)
    r_ball = config.r_ball if config.r_ball is not None else math.sqrt(d)
    aproj, bproj = config.projection
    ns = config.n_schedule
    nmax = ns[-1]
    trials = config.trials
    # hit[k, t]: trial t's projected difference at ns[k] is in the ball;
    # busy[:, a]: the seconds of sampling and summing of the block from trial a
    hit = np.zeros((len(ns), trials), bool)
    busy = np.zeros((2, trials))

    def block(a, b, work):
        t_sample = time.perf_counter()
        # row 2 i + half: path `half` of trial a + i
        streams = config.seed.substreams(_P_ANTICONC, np.arange(2 * a, 2 * b))
        paths = sample(config.measure, config.seed, nmax, streams).samples
        t_sums = time.perf_counter()
        acc = _probe_sums(paths, ns, probes, aproj, bproj)
        for k in range(len(ns)):
            delta = acc[k, 0::2] - acc[k, 1::2]
            hit[k, a:b] = np.sqrt((delta * delta).sum(axis=1)) <= r_ball
        busy[:, a] = t_sums - t_sample, time.perf_counter() - t_sums

    _blocked(trials, 2 * nmax, 0, block)
    hits = dict(zip(ns, map(int, np.count_nonzero(hit, axis=1))))
    rep.wall_clock["sample"], rep.wall_clock["probe_sums"] = map(float, busy.sum(axis=1))
    fit_pts = []
    for n in ns:
        p = hits[n] / trials
        rep.add_row(n, "phat", p)
        rep.add_row(n, "hits", hits[n])
        rep.add_row(n, "stderr", math.sqrt(max(p * (1 - p), 0.0) / trials))
        if hits[n] >= MIN_HITS:
            fit_pts.append((math.log(n), math.log(p)))
    if len(fit_pts) >= 2:
        xs = np.array([p[0] for p in fit_pts])
        ys = np.array([p[1] for p in fit_pts])
        A = np.vstack([xs, np.ones_like(xs)]).T
        slope = float(np.linalg.lstsq(A, ys, rcond=None)[0][0])
        rep.add_row(0, "slope", slope)
        rep.add_row(0, "fit_rows", len(fit_pts))
        rep.add_verdict("slope_upper", slope <= SLOPE_MAX, SLOPE_MAX, slope)
        rep.add_verdict("slope_lower", slope >= SLOPE_MIN, SLOPE_MIN, slope)
    else:
        rep.add_row(0, "fit_rows", len(fit_pts))
        rep.add_verdict("slope_upper", False, SLOPE_MAX, "inconclusive",
                        f"fewer than 2 rows reached {MIN_HITS} hits; raise trials")
    rep.wall_clock["total"] = time.perf_counter() - t_all
    return rep


# ---------------------------------------------------------------------------
# circle-norm growth


def run_growth(config: GrowthConfig) -> Report:
    """log^+ of the discrete circle sup norm, against log n, along one
    trajectory on a fixed generic circle.

    The 2m grid is a running sum along the trajectory: each n adds S of
    the roots that entered since the previous n (`logderiv._circle_field`,
    one block) into the previous n's grid, so each root is summed once.
    Once a root lies on the circle, every later n reports only
    `pole_on_contour`.  Per n, `wall_clock` is the time of that n's block
    and its rows, and `Report.series` records how the grid of the prefix
    was summed: the roots summed directly and by each side's series,
    counted over the prefix's blocks, and each side's longest series
    length among them."""
    rep = Report("growth", config.to_json())
    t_all = time.perf_counter()
    if config.circle_center is not None:
        a, r = config.circle_center, config.circle_radius
    else:
        g = config.seed.substream(_P_GROWTH_GEOM).generator()
        v = g.standard_normal(3)
        a = complex(v[0], v[1])
        r = 0.5 + abs(v[2])
    circle = Circle(a, r)
    traj = sample(config.measure, config.seed.substream(_P_TRAJECTORY),
                  config.n_schedule[-1])
    # the m grid is the even-indexed half of the 2m grid
    x = circle.points(2 * config.m_circle)
    S = np.zeros(len(x), complex)  # S on x of the first `done` roots
    ratios, split, done, pole = [], {}, 0, False
    for n in config.n_schedule:
        t_n = time.perf_counter()
        if not pole:
            try:
                fine, block = _circle_field(traj.samples[done:n], circle, x, n, S)
            except PoleOnContourError:
                pole = True
            else:
                done = n
                split = {k: max(split.get(k, 0), v) if k.startswith("series_length")
                         else split.get(k, 0) + v for k, v in block.items()}
        if pole:
            rep.add_row(n, "pole_on_contour", 1.0)
        else:
            rep.series[f"n={n}"] = split
            sup, sup2 = float(np.max(fine[::2])), float(np.max(fine))
            ratio = log_plus(sup) / math.log(n)
            ratio2 = log_plus(sup2) / math.log(n)
            ratios.append(ratio)
            rep.add_row(n, "sup_norm", sup)
            rep.add_row(n, "ratio", ratio)
            rep.add_row(n, "ratio_refined", ratio2)
            rep.add_row(n, "refine_delta", abs(ratio2 - ratio))
        rep.wall_clock[f"n={n}"] = time.perf_counter() - t_n
    if ratios:
        worst = max(ratios)
        rep.add_verdict("growth_ratio", worst <= GROWTH_RATIO_MAX, GROWTH_RATIO_MAX, worst,
                        f"circle C({a}, {r}), m={config.m_circle}")
    else:
        rep.add_verdict("growth_ratio", False, GROWTH_RATIO_MAX, "inconclusive",
                        f"a root lies on the circle C({a}, {r}) at every n")
    rep.wall_clock["total"] = time.perf_counter() - t_all
    return rep


# ---------------------------------------------------------------------------
# law of large numbers for the log^- integral


def run_lln_logminus(config: LLNConfig) -> Report:
    """int log^-|u| d mu_n along one trajectory against a large-sample
    reference quantization of the base measure."""
    rep = Report("lln", config.to_json())
    t_all = time.perf_counter()
    k_ref = config.k_reference
    traj = sample(config.measure, config.seed.substream(_P_TRAJECTORY),
                  config.n_schedule[-1])
    ref = reference_quantization(config.measure, k_ref,
                                 config.seed.substream(_P_REFERENCE))
    resamples = 0
    u = config.u_transform
    values = ref_vals = None
    for attempt in range(_MOBIUS_ATTEMPTS):
        if config.u_transform is None:
            u = mb.sample_mobius(config.seed.substream(_P_LLN_MOBIUS, attempt))
        ref_vals = log_minus(np.abs(mb.apply(u, ref)))
        values = [log_minus_integral(traj.samples[:n], u)
                  for n in config.n_schedule]
        finite = (all(math.isfinite(v) for v in values)
                  and bool(np.all(np.isfinite(ref_vals))))
        if finite or config.u_transform is not None:
            break  # a fixed transform cannot be resampled; report as-is
        resamples += 1
    rep.add_row(0, "u_resamples", resamples)
    for n, v in zip(config.n_schedule, values):
        rep.add_row(n, "log_minus_mu_n", v)
    ref_value = float(ref_vals.mean())
    sigma = float(ref_vals.std())
    n_final = config.n_schedule[-1]
    # the 1e-12 floor keeps zero-variance cases from failing on one ulp
    threshold = 3.0 * sigma * math.sqrt(1.0 / n_final + 1.0 / k_ref) + 1e-12
    diff = abs(values[-1] - ref_value)
    rep.add_row(0, "reference_value", ref_value)
    rep.add_row(0, "reference_sigma", sigma)
    rep.add_row(0, "abs_diff_final", diff)
    rep.add_row(0, "threshold", threshold)
    rep.add_verdict("lln_final_diff", bool(diff <= threshold), threshold, diff,
                    f"3 sigma sqrt(1/n + 1/k), sigma from the k={k_ref} reference sample")
    rep.wall_clock["total"] = time.perf_counter() - t_all
    return rep


#: experiment name -> (config class, runner)
EXPERIMENTS = {cls.experiment: (cls, run) for cls, run in (
    (ConvergenceConfig, run_convergence),
    (JensenConfig, run_jensen),
    (AnticoncentrationConfig, run_anticoncentration),
    (GrowthConfig, run_growth),
    (LLNConfig, run_lln_logminus),
)}


def run_experiment(config: BaseConfig) -> Report:
    """The report of the experiment that config names."""
    cls, run = EXPERIMENTS.get(getattr(config, "experiment", None), (None, None))
    if type(config) is not cls:
        raise ParameterError(f"run_experiment takes an experiment config, got {config!r}")
    return run(config)
