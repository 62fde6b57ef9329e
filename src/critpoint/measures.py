"""Empirical measures, log^- integrals, and weak-convergence diagnostics.

Two diagnostics are provided because convergence in distribution fixes no
metric: sliced Wasserstein-1 (metrizes weak convergence on tight families)
and a scale-free quadrant discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mobius as mb
from .errors import ParameterError
from .logderiv import BLOCK_ELEMS, log_minus
from .sampler import BaseMeasure, SeedSpec, as_complex, sample


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finitely supported probability measure: atoms with positive weights."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.ascontiguousarray(np.atleast_1d(np.asarray(self.atoms, dtype=complex)))
        weights = np.ascontiguousarray(np.atleast_1d(np.asarray(self.weights, dtype=float)))
        if atoms.size == 0:
            raise ParameterError("empirical measure needs at least one atom")
        if atoms.shape != weights.shape:
            raise ParameterError("atoms and weights must have equal length")
        if np.any(weights <= 0):
            raise ParameterError("weights must be strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ParameterError(f"weights must sum to 1 within 1e-12, got {weights.sum()!r}")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return len(self.atoms)

    def to_json(self) -> dict:
        return {"atoms": [[z.real, z.imag] for z in self.atoms],
                "weights": [float(w) for w in self.weights]}

    @classmethod
    def from_json(cls, obj: dict) -> "EmpiricalMeasure":
        return cls([as_complex(a, "atom") for a in obj["atoms"]], obj["weights"])


def from_points(points) -> EmpiricalMeasure:
    """Uniform measure on a finite multiset (1/N each, repetition allowed)."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if pts.size == 0:
        raise ParameterError("cannot build an empirical measure from no points")
    return EmpiricalMeasure(pts, np.full(pts.size, 1.0 / pts.size))


def log_minus_integral(m: EmpiricalMeasure, u: mb.MobiusTransform) -> float:
    """sum_i w_i log^-|u(atom_i)|; +inf if an atom maps exactly to 0."""
    images = mb.apply_array(u, m.atoms)
    mags = np.abs(images)  # inf at poles of u; log^-(inf) = 0
    if np.any(mags == 0.0):
        return math.inf
    return float(np.dot(m.weights, log_minus(mags)))


def sliced_w1(m1: EmpiricalMeasure, m2: EmpiricalMeasure, directions: int = 64) -> float:
    """Average over theta_j = pi j / directions of the exact 1-d W1 distance
    between the pushforwards under z -> Re(e^{-i theta_j} z).

    Per direction, W1 = integral |F - G| dx for the two distribution
    functions.  One sort of the merged projections, carrying weight +w
    from m1 and -w from m2, gives F - G between consecutive sorted values
    as a cumulative sum, so W1 = sum |F - G| * gap.  Directions are
    processed in blocks of at most BLOCK_ELEMS (direction, atom) elements
    (one direction when there are more atoms).
    """
    if directions < 1:
        raise ParameterError("directions must be a positive integer")
    atoms = np.concatenate([m1.atoms, m2.atoms])
    signed = np.concatenate([m1.weights, -m2.weights])
    block = max(1, BLOCK_ELEMS // len(atoms))
    total = 0.0
    for a in range(0, directions, block):
        theta = math.pi * np.arange(a, min(a + block, directions)) / directions
        proj = np.cos(theta)[:, None] * atoms.real + np.sin(theta)[:, None] * atoms.imag
        order = np.argsort(proj, axis=1)
        x = np.take_along_axis(proj, order, axis=1)
        f_minus_g = np.cumsum(signed[order], axis=1)[:, :-1]
        total += float(np.sum(np.abs(f_minus_g) * np.diff(x, axis=1)))
    return total / directions


def quadrant_discrepancy(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """max_p |m1(Q_p) - m2(Q_p)| over p in the atom union,
    Q_p = {z : Re z <= Re p, Im z <= Im p}, in blocks of at most BLOCK_ELEMS
    (p, atom) pairs (one p when there are more atoms)."""
    pts = np.concatenate([m1.atoms, m2.atoms])
    worst = 0.0
    chunk = max(1, BLOCK_ELEMS // max(1, len(m1) + len(m2)))
    for a in range(0, len(pts), chunk):
        p = pts[a:a + chunk]
        in1 = (m1.atoms.real[None, :] <= p.real[:, None]) & (m1.atoms.imag[None, :] <= p.imag[:, None])
        in2 = (m2.atoms.real[None, :] <= p.real[:, None]) & (m2.atoms.imag[None, :] <= p.imag[:, None])
        mass1 = in1 @ m1.weights
        mass2 = in2 @ m2.weights
        worst = max(worst, float(np.max(np.abs(mass1 - mass2))))
    return worst


def reference_quantization(measure: BaseMeasure, k: int, seed: SeedSpec) -> EmpiricalMeasure:
    """Empirical measure of k fresh i.i.d. samples: a sqrt(k)-accurate finite
    proxy for the base measure in distance computations."""
    if k < 1:
        raise ParameterError("k must be a positive integer")
    return from_points(sample(measure, seed, int(k)).samples)
