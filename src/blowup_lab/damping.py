"""Scattering-class damping coefficients and their multipliers.

A damping profile is a nonnegative summable b(t); its multiplier
m(t) = exp(-int_t^inf b) is the integrating factor that turns the damped
functional ODEs into the undamped iteration frame.  Three kinds are
supported: identically zero, the canonical polynomial tail
b(t) = mu (1+t)^(-beta) with beta > 1, and tabulated samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


class NonSummableError(ValueError):
    """The coefficient is not integrable on [0, inf)."""


@dataclass(frozen=True)
class DampingProfile:
    """Nonnegative coefficient b(t) with closed-form or tabulated tail.

    kind: "zero" | "poly" | "tabulated"
    poly: b(t) = mu (1+t)^(-beta), tail(t) = mu (1+t)^(1-beta) / (beta-1)
    tabulated: piecewise-linear interpolant of (ts, bs); zero beyond the
    last node, so the tail integral is the exact integral of the table.
    """

    kind: str
    mu: float = 0.0
    beta: float = 2.0
    ts: np.ndarray | None = field(default=None, repr=False)
    bs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "zero":
            return
        if self.kind == "poly":
            if not 0 <= self.mu < math.inf:
                raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
            if not self.beta > 1:
                raise NonSummableError(f"polynomial tail needs beta > 1, got {self.beta}")
            return
        if self.kind == "tabulated":
            ts, bs = np.asarray(self.ts, dtype=float), np.asarray(self.bs, dtype=float)
            if ts.ndim != 1 or ts.shape != bs.shape or ts.size < 2:
                raise ValueError("tabulated profile needs matching 1-d arrays, >= 2 nodes")
            if not np.all(np.diff(ts) > 0):
                raise ValueError("tabulated times must be strictly increasing")
            if not (ts[0] >= 0 and np.all(bs >= 0) and np.isfinite([ts, bs]).all()):
                raise ValueError("tabulated profile must be finite, with t >= 0 and b >= 0")
            object.__setattr__(self, "ts", ts)
            object.__setattr__(self, "bs", bs)
            # cumulative trapezoid measured from the right end (tail of the table)
            seg = 0.5 * (bs[1:] + bs[:-1]) * np.diff(ts)
            tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
            object.__setattr__(self, "_tail_at_nodes", tail)
            return
        raise ValueError(f"unknown damping kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "DampingProfile":
        return cls(kind="zero")

    @classmethod
    def polynomial_tail(cls, mu: float, beta: float) -> "DampingProfile":
        return cls(kind="poly", mu=mu, beta=beta)

    @classmethod
    def tabulated(cls, ts, bs) -> "DampingProfile":
        return cls(kind="tabulated", ts=np.asarray(ts, float), bs=np.asarray(bs, float))

    @classmethod
    def from_csv(cls, path) -> "DampingProfile":
        """Two-column CSV (t, b) with strictly increasing t; header optional."""
        ts, bs = [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                try:
                    t, b = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    continue  # header row, or a row without two fields
                ts.append(t)
                bs.append(b)
        return cls.tabulated(ts, bs)

    def b(self, t):
        """Coefficient value b(t), vectorized over t >= 0.  A Python float t
        takes Python float arithmetic for the zero and poly kinds, bit-equal
        to numpy's 0-d evaluation and without its array detour."""
        if type(t) is float and self.kind != "tabulated":
            return 0.0 if self.kind == "zero" else self.mu * (1.0 + t) ** (-self.beta)
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(t)
        elif self.kind == "poly":
            out = self.mu * (1.0 + t) ** (-self.beta)
        else:
            out = np.interp(t, self.ts, self.bs, left=self.bs[0], right=0.0)
        return out if out.ndim else float(out)

    def tail(self, t):
        """tail(t) = int_t^inf b(tau) dtau, vectorized."""
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(t)
        elif self.kind == "poly":
            out = self.mu * (1.0 + t) ** (1.0 - self.beta) / (self.beta - 1.0)
        else:
            out = self._tabulated_tail(t)
        return out if out.ndim else float(out)

    def _tabulated_tail(self, t: np.ndarray) -> np.ndarray:
        ts, bs, tails = self.ts, self.bs, self._tail_at_nodes
        shape = np.shape(t)
        t = np.atleast_1d(t)
        idx = np.searchsorted(ts, t, side="right") - 1
        idx = np.clip(idx, 0, ts.size - 2)
        # exact integral of the linear piece from t to the next node
        t0, t1 = ts[idx], ts[idx + 1]
        b0, b1 = bs[idx], bs[idx + 1]
        tc = np.clip(t, t0, t1)
        bt = b0 + (b1 - b0) * (tc - t0) / (t1 - t0)
        piece = 0.5 * (bt + b1) * (t1 - tc)
        out = piece + tails[idx + 1]
        out = np.where(t >= ts[-1], 0.0, out)
        out = np.where(t <= ts[0], tails[0], out)
        return out.reshape(shape)

    @property
    def l1(self) -> float:
        """Total mass int_0^inf b; membership in the scattering class."""
        return float(self.tail(0.0))


def multiplier_eval(profile: DampingProfile, t) -> float:
    """Evaluate m(t) = exp(-tail(t)) in (0, 1]: m(0) = exp(-l1) <= m(t) <= 1,
    nondecreasing in t."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("multiplier is defined for t >= 0")
    out = np.exp(-profile.tail(t_arr))
    return out if out.ndim else float(out)


def verify_multiplier_ode(profile: DampingProfile, grid) -> float:
    """Max relative residual of m'(t) = b(t) m(t) over interior grid nodes,
    using centered differences.  Used as a self-test of the tail evaluators."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 3:
        raise ValueError("need at least 3 grid nodes for a centered difference")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    m = multiplier_eval(profile, grid)
    h = np.diff(grid)
    if not np.allclose(h, h[0], rtol=1e-12):
        raise ValueError("grid must be uniform")
    dm = (m[2:] - m[:-2]) / (grid[2:] - grid[:-2])
    rhs = profile.b(grid[1:-1]) * m[1:-1]
    return float(np.max(np.abs(dm - rhs) / m[1:-1]))
