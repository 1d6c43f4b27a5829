"""Radially symmetric finite-difference solver for the coupled damped system

    u_tt - lap(u) + b1(t) u_t = |v|^p,
    v_tt - lap(v) + b2(t) v_t = |u|^q,

with compact bump data, plus functional extraction, inequality
verification, blow-up detection and lifespan sweeps.

Scheme: explicit leapfrog with the radial Laplacian u_rr + (n-1) u_r / r
(n u_rr at the origin via the symmetric ghost node), time-centered damping
solved pointwise, nonlinear sources at the current level, CFL <= 0.5.
Finite propagation speed is enforced: only the cone prefix r <= t + R + 2 dr
is stepped, sampled and searched for blow-up, and every node past it stays
zero (the exact solution vanishes there; the scheme's own dispersive
leakage would otherwise pollute the support cone).  A time level is one
buffer of 2N slots, u_i at slot 2i and v_i at 2i+1: each step operation is
one numpy pass over the window prefix for both components.  The sources sit
in their own component's slots, |u|^q and |v|^p: one contiguous power when
p = q (np.square for exponent 2), and each update adds its partner's.  2 w
is formed once per step for the Laplacian and the update; an undamped update
skips + 0 w_prev and / 1, exact identities there.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from blowup_lab.auxiliary import (
    KernelConfig,
    KernelQuadrature,
    check_kernel_config,
    critical_kernel_orders,
    sinhc,
    sphere_area,
)
from blowup_lab.damping import DampingProfile
from blowup_lab.exponents import SystemParams, lifespan_law
from blowup_lab.plotting import write_csv


@dataclass(frozen=True)
class InitialData:
    """Amplitudes of the built-in smooth compact bump (1 - (r/R)^2)^4 on
    r < R, one per data component; everything is scaled by eps at init."""

    u0_amp: float = 1.0
    u1_amp: float = 0.0
    v0_amp: float = 1.0
    v1_amp: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.u0_amp, self.u1_amp, self.v0_amp, self.v1_amp))):
            raise ValueError(f"data amplitudes must be finite, got {self}")

    @classmethod
    def zero(cls) -> "InitialData":
        return cls(0.0, 0.0, 0.0, 0.0)

    def speed_flags(self) -> tuple[bool, bool]:
        return self.u1_amp != 0.0, self.v1_amp != 0.0


@dataclass(frozen=True)
class GridConfig:
    dr: float = 0.02
    cfl: float = 0.5
    horizon: float = 10.0
    threshold: float = 1e10
    rmax: float | None = None
    sample_every: int = 1
    snapshot_every: int | None = None
    linear_mode: bool = False
    enforce_cone: bool = True

    def __post_init__(self):
        # the cone window takes floor((t + R) / dr): no grid value may be non-finite
        for name in ("dr", "horizon", "threshold", "rmax"):
            if not math.isfinite(getattr(self, name) or 0.0):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dr <= 0:
            raise ValueError(f"dr must be positive, got {self.dr}")
        if not 0 < self.cfl <= 0.5 or self.dt == 0.0:
            raise ValueError(f"CFL must lie in (0, 0.5] and dt = CFL * dr above 0, got {self.cfl}")
        if self.horizon <= 0 or self.threshold <= 0:
            raise ValueError("horizon and threshold must be positive")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")

    @property
    def dt(self) -> float:
        return self.cfl * self.dr

    @property
    def n_steps(self) -> int:
        """Leapfrog steps from t = 0 to the horizon."""
        return int(round(self.horizon / self.dt))


class Detection(Enum):
    THRESHOLD = "ThresholdCross"
    NONFINITE = "NonFinite"
    SURVIVED = "Survived"


@dataclass(frozen=True)
class LifespanRecord:
    eps: float
    t_blow: float
    detection: Detection
    meta: dict = field(default_factory=dict)


@dataclass
class FunctionalTrace:
    """Sampled spatial functionals along a run; uniform cadence in time."""

    t: np.ndarray
    U: np.ndarray
    V: np.ndarray
    Nu: np.ndarray
    Nv: np.ndarray
    sup: np.ndarray

    def __len__(self) -> int:
        return self.t.size


MAX_NODES, MAX_SNAPSHOT_BYTES = 2 ** 20, 2 ** 28  # a run's budget (README)


def grid_extent(params: SystemParams, grid: GridConfig) -> float:
    return grid.rmax if grid.rmax is not None else grid.horizon + params.R + max(0.5, 10 * grid.dr)


def check_run(params: SystemParams, data: InitialData, grid: GridConfig) -> None:
    """Raise ValueError, without building the grid, for a run that cannot start: a
    sphere measure out of float range, an rmax inside the support cone, a
    threshold at or below the initial sup norm eps * max(|u0|, |v0|), or a run
    over budget."""
    sphere_area(params.n - 1)
    if grid.rmax is not None and grid.rmax < grid.horizon + params.R + 4 * grid.dr:
        raise ValueError(f"rmax={grid.rmax:g} too small: the support cone reaches "
                         f"{grid.horizon + params.R:g} by the horizon")
    if max(abs(params.eps * data.u0_amp), abs(params.eps * data.v0_amp)) >= grid.threshold:
        raise ValueError("threshold must exceed the initial sup norm")
    nodes = grid_extent(params, grid) / grid.dr + 1.0  # a float, never an oversized int
    if not nodes <= MAX_NODES:
        raise ValueError(f"{nodes:.4g} grid nodes exceed the budget of {MAX_NODES}")
    shots = 0 if grid.snapshot_every is None else grid.n_steps // grid.snapshot_every + 1
    if shots * 2 * nodes * 8 > MAX_SNAPSHOT_BYTES:
        raise ValueError(f"{shots} snapshots exceed the budget of {MAX_SNAPSHOT_BYTES} bytes")


class GridState:
    """One radial solution snapshot (two time levels, t = 0 before the first
    `step`) plus grid metadata; u, v, u_prev and v_prev are strided views of
    the interleaved levels.  Both are zero at every node past the window m."""

    def __init__(self, params: SystemParams, profiles, data: InitialData, grid: GridConfig):
        check_run(params, data, grid)
        self.params, self.data, self.grid = params, data, grid
        self.b1, self.b2 = profiles
        n, R, dr = params.n, params.R, grid.dr
        self.dr, self.dt, self.rmax = dr, grid.dt, grid_extent(params, grid)
        self.r = np.arange(int(round(self.rmax / dr)) + 1) * dr
        # trapezoid weights against the surface measure |S^(n-1)| r^(n-1) dr
        w = np.full(self.r.size, dr)
        w[0] = w[-1] = 0.5 * dr
        self.weights = sphere_area(n - 1) * self.r ** (n - 1) * w

        bump = np.where(self.r < R, (1.0 - np.minimum(self.r / R, 1.0) ** 2) ** 4, 0.0)
        self.u_init, self.ut_init, self.v_init, self.vt_init = (
            params.eps * amp * bump for amp in (data.u0_amp, data.u1_amp, data.v0_amp, data.v1_amp))

        # `step` writes the new level into _z_prev
        self._z, self._z_prev = np.zeros(2 * self.r.size), np.zeros(2 * self.r.size)
        self.u[:], self.v[:] = self.u_init, self.v_init
        self.t, self.step_index = 0.0, 0
        self.m = self._window(0.0)
        self._p, self._q = float(params.p), float(params.q)
        self._dr2 = dr ** 2
        self._two_dr_r = np.repeat(2.0 * dr * self.r, 2)
        # work buffers of _laplacian, _advance and functionals
        self._lap, self._work, self._tmp = (np.zeros_like(self._z) for _ in range(3))
        # |z| of the level at _abs_index, on its window; it shares the Laplacian's
        # buffer, which a step writes only after the sources have read |z|
        self._abs, self._abs_index = self._lap, -1
        # |u|^q, |v|^p of the level at _src_index, in their own slots; zero past the window
        self._src, self._src_index = np.zeros_like(self._z), -1

    u = property(lambda self: self._z[0::2])
    v = property(lambda self: self._z[1::2])
    u_prev = property(lambda self: self._z_prev[0::2])
    v_prev = property(lambda self: self._z_prev[1::2])

    def _window(self, t: float) -> int:
        """Length of the grid prefix that can be nonzero at time t: the exact
        solution is supported in r <= t + R; allow a 2 dr buffer."""
        if not self.grid.enforce_cone:
            return self.r.size
        return min(self.r.size, int(math.floor((t + self.params.R) / self.dr + 2.0)) + 1)

    def _abs_level(self):
        """|z| of the current level on its window, computed once per level."""
        k = 2 * self.m
        if self._abs_index != self.step_index:
            np.abs(self._z[:k], out=self._abs[:k])
            self._abs_index = self.step_index
        return self._abs[:k]

    def _sources(self):
        """|u|^q at the u slots, |v|^p at the v slots, once per level; one
        contiguous power when p = q."""
        if self._src_index != self.step_index and not self.grid.linear_mode:
            k, z_abs, src = 2 * self.m, self._abs_level(), self._src
            if self._p == self._q:
                _power(z_abs, self._p, src[:k])
            else:
                _power(z_abs[0::2], self._q, src[0:k:2])
                _power(z_abs[1::2], self._p, src[1:k:2])
            self._src_index = self.step_index
        return self._src

    def _laplacian(self, k: int, two_z):
        """Radial Laplacian of u and v at the nodes [0, k), k < r.size, into a
        work buffer, given 2 z on [0, 2k): the operations of (u[2:] - 2 u[1:] +
        u[:-2]) / dr^2 + (n-1) (u[2:] - u[:-2]) / (2 dr r) in order (no factor
        1 at n = 2), and n u_rr at the origin via the symmetric ghost node."""
        n, dr2, z, j = self.params.n, self._dr2, self._z, 2 * k
        out = self._lap[:j]
        inner, tmp = out[2:], self._tmp[2:j]
        np.subtract(z[4:j + 2], two_z[2:], out=inner)
        np.add(inner, z[:j - 2], out=inner)
        np.divide(inner, dr2, out=inner)
        if n > 1:
            np.subtract(z[4:j + 2], z[:j - 2], out=tmp)
            if n > 2:
                np.multiply(n - 1, tmp, out=tmp)
            np.divide(tmp, self._two_dr_r[2:j], out=tmp)
            np.add(inner, tmp, out=inner)
        z0, z1, z2, z3 = z[:4].tolist()
        out[0] = n * 2.0 * (z2 - z0) / dr2
        out[1] = n * 2.0 * (z3 - z1) / dr2
        return out

    def integral(self, f) -> float:
        """Trapezoid integral of f, given on the grid or on a prefix of it."""
        return float(self.weights[: f.size] @ f)

    def functionals(self) -> tuple[float, float, float, float, float]:
        # U, V, Nu, Nv; a contiguous copy keeps the dot's sum order
        k, buf, sums = 2 * self.m, self._work[:self.m], []
        with np.errstate(over="ignore", invalid="ignore"):
            src = self._sources()
            for f in (self._z[0:k:2], self._z[1:k:2], src[0:k:2], src[1:k:2]):
                np.copyto(buf, f)
                sums.append(self.integral(buf))
        return (*sums, self.sup_norm())

    def sup_norm(self) -> float:
        # a NaN anywhere propagates through the max
        return float(self._abs_level().max())


def _power(x, e, out):
    # np.square is bit-equal to np.power(x, 2.0) and about twice as fast
    return np.square(x, out=out) if e == 2.0 else np.power(x, e, out=out)


def _advance(state: GridState, k: int, b1: float, b2: float) -> None:
    """Write the next level on the nodes [0, k) into _z_prev; the old level
    there was zero past k, as windows never shrink and the last node stays 0."""
    dt, z, j = state.dt, state._z, 2 * k
    new, src = state._z_prev[:j], state._src[:j]
    acc = np.multiply(2.0, z[:j], out=state._work[:j])
    lap = state._laplacian(k, acc)
    u_slots, v_slots = slice(0, j, 2), slice(1, j, 2)
    if state.step_index == 0:
        # second-order Taylor start from the PDE at t = 0
        for b, sl, src_sl, w_t0 in ((b1, u_slots, v_slots, state.ut_init[:k]),
                                    (b2, v_slots, u_slots, state.vt_init[:k])):
            new[sl] = z[sl] + dt * w_t0 + 0.5 * dt * dt * (lap[sl] - b * w_t0 + src[src_sl])
        return
    # (2 w - w_prev + half w_prev + dt^2 (lap + src)) / (1 + half), one
    # operation at a time in that order; w_prev is read before it is written
    np.add(lap[u_slots], src[v_slots], out=lap[u_slots])
    np.add(lap[v_slots], src[u_slots], out=lap[v_slots])
    np.multiply(dt * dt, lap, out=lap)
    np.subtract(acc, new, out=acc)
    if b1 == 0.0 and b2 == 0.0:
        # + 0 w_prev and / 1 are exact for finite w_prev, as lap + src is never -0
        np.add(acc, lap, out=new)
        return
    # a shared profile's b scales all 2k slots at once
    halves = ([(0.5 * b1 * dt, slice(0, j))] if b2 is b1 else
              [(0.5 * b1 * dt, u_slots), (0.5 * b2 * dt, v_slots)])
    for half, sl in halves:
        np.multiply(half, new[sl], out=new[sl])
    np.add(acc, new, out=acc)
    np.add(acc, lap, out=acc)
    for half, sl in halves:
        np.divide(acc[sl], 1.0 + half, out=new[sl])


def step(state: GridState) -> GridState:
    """Advance one leapfrog step (mutates and returns the state), on the cone
    window of the new level.  Non-finite values are not an error here;
    blow-up detection is the caller's job.  Components that share one
    damping profile object share one evaluation of b."""
    t_new = state.t + state.dt
    m_new = state._window(t_new)
    with np.errstate(over="ignore", invalid="ignore"):
        b1 = state.b1.b(state.t)
        b2 = b1 if state.b2 is state.b1 else state.b2.b(state.t)
        state._sources()
        _advance(state, min(m_new, state.r.size - 1), b1, b2)
    state._z_prev, state._z = state._z, state._z_prev
    state.t, state.m = t_new, m_new
    state.step_index += 1
    return state


@dataclass
class RunResult:
    record: LifespanRecord
    trace: FunctionalTrace
    state: GridState
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = field(default_factory=list)


def init_state(params, profiles, data: InitialData, grid: GridConfig) -> GridState:
    return GridState(params, profiles, data, grid)


def run_until_blowup(
    params: SystemParams,
    profiles: tuple[DampingProfile, DampingProfile],
    data: InitialData,
    grid: GridConfig,
) -> RunResult:
    """Step until the sup norm crosses the threshold, a non-finite value
    appears, or the horizon is reached (a Survived record, not an error)."""
    state = init_state(params, profiles, data, grid)
    samples = {k: [] for k in ("t", "U", "V", "Nu", "Nv", "sup")}
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = []
    meta = {
        "n": params.n, "p": float(params.p), "q": float(params.q), "R": params.R,
        "dr": grid.dr, "cfl": grid.cfl, "horizon": grid.horizon,
        "threshold": grid.threshold,
    }

    detection = Detection.SURVIVED
    t_blow = grid.horizon
    n_steps = grid.n_steps
    while True:
        if state.step_index % grid.sample_every == 0:
            row = (state.t, *state.functionals())
            for key, val in zip(samples, row):
                samples[key].append(val)
            sup = row[-1]
        else:
            sup = state.sup_norm()
        if grid.snapshot_every is not None and state.step_index % grid.snapshot_every == 0:
            snapshots.append((state.t, state.u.copy(), state.v.copy()))
        if not math.isfinite(sup):
            detection, t_blow = Detection.NONFINITE, state.t
            break
        if sup > grid.threshold:
            detection, t_blow = Detection.THRESHOLD, state.t
            break
        if state.step_index == n_steps:
            break
        step(state)

    trace = FunctionalTrace(**{k: np.asarray(v) for k, v in samples.items()})
    return RunResult(LifespanRecord(params.eps, t_blow, detection, meta), trace, state, snapshots)


# -- identity and inequality verification --


@dataclass(frozen=True)
class IdentityReport:
    """Residuals/fits along a trace.

    ode_residual_*: max |second difference + b * first difference - source|,
    the discrete form of the functional ODEs U'' + b1 U' = int |v|^p.
    iter1_slack_*: min over samples of U - m(0) * double time integral of the
    source (nonnegative when the frame inequality holds).
    c1_fit / k1_fit: empirical constants of the nonlinearity lower bounds.
    """

    ode_residual_u: float
    ode_residual_v: float
    iter1_slack_u: float
    iter1_slack_v: float
    c1_fit: float
    k1_fit: float

    def inequalities_hold(self, tol: float = 0.0) -> bool:
        return self.iter1_slack_u >= -tol and self.iter1_slack_v >= -tol


def _cumleft(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Left-endpoint cumulative integral: a lower estimate for nondecreasing
    integrands, so the frame-inequality check stays meaningful even at the
    terminal blow-up spike (where a trapezoid overshoots by orders of
    magnitude)."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(y[:-1] * np.diff(t))
    return out


def verify_identities(
    trace: FunctionalTrace,
    profiles: tuple[DampingProfile, DampingProfile],
    params: SystemParams,
    window: tuple[float, float] | None = None,
) -> IdentityReport:
    """Check the functional ODEs, the frame inequalities, and fit the
    nonlinearity lower-bound constants on a sampled trace."""
    if len(trace) < 5:
        raise ValueError(f"trace too short for second differences: {len(trace)} samples")
    t = trace.t
    h = np.diff(t)
    if not np.allclose(h, h[0], rtol=1e-9):
        raise ValueError("trace cadence must be uniform")
    h = float(h[0])
    b1, b2 = profiles

    sl = slice(1, len(trace) - 1)
    if window is not None:
        lo, hi = window
        keep = (t[sl] >= lo) & (t[sl] <= hi)
    else:
        keep = np.ones(len(trace) - 2, dtype=bool)

    def ode_residual(F, source, prof):
        d2 = (F[2:] - 2.0 * F[1:-1] + F[:-2]) / h ** 2
        d1 = (F[2:] - F[:-2]) / (2.0 * h)
        res = d2 + prof.b(t[sl]) * d1 - source[sl]
        # a window holding no sample (or a run that blew up before it) has no residual
        return float(np.max(np.abs(res[keep]))) if np.any(keep) else math.nan

    res_u = ode_residual(trace.U, trace.Nv, b1)
    res_v = ode_residual(trace.V, trace.Nu, b2)

    m1_0 = math.exp(-b1.l1)
    m2_0 = math.exp(-b2.l1)
    i2_nv = _cumleft(_cumleft(trace.Nv, t), t)
    i2_nu = _cumleft(_cumleft(trace.Nu, t), t)
    slack_u = float(np.min(trace.U - m1_0 * i2_nv))
    slack_v = float(np.min(trace.V - m2_0 * i2_nu))

    n, eps = params.n, params.eps
    p, q = float(params.p), float(params.q)
    c1 = float(np.min(trace.Nu * (1.0 + t) ** ((n - 1) * (q / 2.0 - 1.0)) / eps ** q))
    k1 = float(np.min(trace.Nv * (1.0 + t) ** ((n - 1) * (p / 2.0 - 1.0)) / eps ** p))
    return IdentityReport(res_u, res_v, slack_u, slack_v, c1, k1)


def cone_leakage(result: RunResult) -> float:
    """Sup of |u|, |v| outside r <= t + R + 2 dr at the final state."""
    state = result.state
    outside = state.r > state.t + state.params.R + 2.0 * state.dr
    return float(np.max(np.abs(state._z.reshape(-1, 2)[outside]), initial=0.0))


@dataclass(frozen=True)
class CriticalReport:
    """Sampled check of the kernel-weighted integral inequalities and of the
    logarithmic lower bound for the weighted average of the first component.
    log_ratio is weighted_u / log(2t/3) at each checked t (NaN for t <= 1.5);
    log_ratio_min is its minimum on log_ratio_window."""

    t_checked: np.ndarray
    weighted_u: np.ndarray
    weighted_v: np.ndarray
    rhs_u: np.ndarray
    rhs_v: np.ndarray
    log_ratio: np.ndarray
    log_ratio_min: float
    log_ratio_window: tuple[float, float]

    def bounds_hold(self, rtol: float = 1e-9) -> bool:
        ok_u = np.all(self.weighted_u >= self.rhs_u * (1.0 - rtol) - 1e-12)
        ok_v = np.all(self.weighted_v >= self.rhs_v * (1.0 - rtol) - 1e-12)
        return bool(ok_u and ok_v)


def critical_kernel_configs(params: SystemParams, profiles, grid: GridConfig,
                            lambda0: float = 1.0, quad_nodes: int = 64):
    """Kernel configs of the two critical-case functionals ((p, q) taken with
    p >= q), after checking the hypotheses of the critical-case machinery:
    n >= 2, C^1 damping, snapshots and admissible kernel orders."""
    if params.n < 2:
        raise ValueError("critical-case machinery requires n >= 2")
    if any(prof.kind == "tabulated" for prof in profiles):
        raise ValueError("critical-case verifiers require C^1 damping (zero/poly kinds)")
    if grid.snapshot_every is None:
        raise ValueError("critical verification needs snapshots; set snapshot_every")
    p, q = float(params.p), float(params.q)
    orders = critical_kernel_orders(params.n, max(p, q), min(p, q))
    cfgs = tuple(KernelConfig(lambda0, params.R, r, quad_nodes) for r in orders)
    for cfg in cfgs:
        check_kernel_config(cfg, params.n)
    return cfgs


def verify_critical_inequalities(
    result: RunResult,
    params: SystemParams,
    lambda0: float = 1.0,
    quad_nodes: int = 64,
    log_window: tuple[float, float] = (5.0, math.inf),
) -> CriticalReport:
    """Check the kernel-weighted lower bounds along the stored history.

    Each weighted average must dominate its data terms plus the
    (t-s)-weighted source integral, all damped by exp(-l1) factors; the
    first component must additionally grow at least like log(2t/3).
    Requires n >= 2, snapshot history, and smooth damping kinds.
    """
    state = result.state
    n = params.n
    cfg1, cfg2 = critical_kernel_configs(params, (state.b1, state.b2), state.grid, lambda0,
                                         quad_nodes)

    p, q = float(params.p), float(params.q)
    swap = p < q
    if swap:
        p, q = q, p
    quad1 = KernelQuadrature(cfg1, n, state.r)
    # equal orders (p = q) give equal configs: build the quadrature once
    quad2 = quad1 if cfg2 == cfg1 else KernelQuadrature(cfg2, n, state.r)

    s_times = np.array([s for s, _, _ in result.snapshots])
    W = state.weights
    u_init, ut_init = state.u_init, state.ut_init
    v_init, vt_init = state.v_init, state.vt_init
    u_snaps = np.stack([u for _, u, _ in result.snapshots])
    v_snaps = np.stack([v for _, _, v in result.snapshots])
    if swap:
        u_snaps, v_snaps = v_snaps, u_snaps
        u_init, v_init = v_init, u_init
        ut_init, vt_init = vt_init, ut_init
        b_first, b_second = state.b2, state.b1
    else:
        b_first, b_second = state.b1, state.b2

    # modal profiles: Phi-transforms of the fields and sources per lambda node
    A_u = quad1.phi_mat @ (u_snaps * W).T           # (K1, S)
    A_v = quad2.phi_mat @ (v_snaps * W).T           # (K2, S)
    S_v = quad1.phi_mat @ (np.abs(v_snaps) ** p * W).T
    S_u = quad2.phi_mat @ (np.abs(u_snaps) ** q * W).T
    d0_u, d1_u = quad1.phi_mat @ (W * u_init), quad1.phi_mat @ (W * ut_init)
    d0_v, d1_v = quad2.phi_mat @ (W * v_init), quad2.phi_mat @ (W * vt_init)

    def component_check(quad, A, Ssrc, d0, d1, prof):
        lam, wq, R = quad.lam, quad.w, params.R
        l1 = prof.l1
        lhs, rhs = [], []
        for j, tc in enumerate(s_times):
            if tc <= 0.0:
                continue
            decay = wq * np.exp(-lam * (tc + R))
            lhs.append(float(decay @ A[:, j]))
            data0 = math.exp(-l1) * float((decay * np.cosh(lam * tc)) @ d0)
            data1 = math.exp(-2.0 * l1) * tc * float((decay * sinhc(lam * tc)) @ d1)
            sub = s_times[: j + 1]
            kernel = decay[:, None] * sinhc(np.outer(lam, tc - sub))
            inner = np.einsum("ki,ki->i", kernel, Ssrc[:, : j + 1])
            trap_w = np.zeros_like(sub)
            if sub.size > 1:
                d = np.diff(sub)
                trap_w[0] = 0.5 * d[0]
                trap_w[-1] = 0.5 * d[-1]
                trap_w[1:-1] = 0.5 * (d[1:] + d[:-1])
            source = math.exp(-2.0 * l1) * float(np.sum(trap_w * (tc - sub) * inner))
            rhs.append(data0 + data1 + source)
        return np.asarray(lhs), np.asarray(rhs)

    lhs_u, rhs_u = component_check(quad1, A_u, S_v, d0_u, d1_u, b_first)
    lhs_v, rhs_v = component_check(quad2, A_v, S_u, d0_v, d1_v, b_second)
    t_checked = s_times[s_times > 0.0]

    lo, hi = log_window
    in_win = (t_checked >= max(lo, 1.5 + 1e-9)) & (t_checked <= hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(t_checked > 1.5, lhs_u / np.log(2.0 * t_checked / 3.0), math.nan)
    log_min = float(np.min(log_ratio[in_win])) if np.any(in_win) else math.nan
    return CriticalReport(t_checked, lhs_u, lhs_v, rhs_u, rhs_v, log_ratio, log_min, (lo, hi))


# -- lifespan sweeps --


@dataclass(frozen=True)
class SweepResult:
    records: list[LifespanRecord]
    slope: float
    intercept: float
    theory_exponent: float
    c_fit: float
    ratio_spread: float
    excluded: int

    def slope_matches(self, rel_tol: float = 0.25) -> bool:
        return abs(self.slope - self.theory_exponent) <= rel_tol * abs(self.theory_exponent)

    def upper_bound_holds(self) -> bool:
        return self.c_fit > 0 and math.isfinite(self.c_fit)


def fit_power_law(eps: np.ndarray, t_blow: np.ndarray) -> tuple[float, float]:
    """Least-squares slope/intercept of log T against log eps."""
    if eps.size < 2:
        raise ValueError("need at least 2 blow-up records to fit a slope")
    coef = np.polyfit(np.log(eps), np.log(t_blow), 1)
    return float(coef[0]), float(coef[1])


def _sweep_one(args) -> LifespanRecord:
    params, profiles, data, grid = args
    return run_until_blowup(params, profiles, data, grid).record


def thread_cap() -> int | None:
    """The worker cap BLOWUP_LAB_THREADS sets, or None when it is unset or empty."""
    raw = os.environ.get("BLOWUP_LAB_THREADS")
    if raw and not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ValueError(f"BLOWUP_LAB_THREADS must be a whole number >= 1, got {raw!r}")
    return int(raw) if raw else None


def sweep_workers(n_jobs: int, requested: int | None = None) -> int:
    """Worker count for a sweep: the requested value (default one per job up
    to the CPU count), always capped by BLOWUP_LAB_THREADS when set."""
    cap = thread_cap() or os.cpu_count() or 1
    want = requested if requested is not None else min(n_jobs, os.cpu_count() or 1)
    return max(1, min(want, cap, n_jobs))


def check_sweep(params_template: SystemParams, data: InitialData, grid: GridConfig,
                eps_list) -> None:
    """Raise ValueError for a sweep that cannot run: fewer than 4 eps points,
    an eps no run can start from, a region without a blow-up law, or a
    malformed BLOWUP_LAB_THREADS."""
    if len(eps_list) < 4:
        raise ValueError(f"sweep needs >= 4 eps points, got {len(eps_list)}")
    thread_cap()
    for e in eps_list:
        check_run(replace(params_template, eps=float(e)), data, grid)
    lifespan_law(params_template, data.speed_flags())


def lifespan_sweep(
    params_template: SystemParams,
    profiles: tuple[DampingProfile, DampingProfile],
    data: InitialData,
    grid: GridConfig,
    eps_list,
    workers: int | None = None,
) -> SweepResult:
    """Run one blow-up detection per eps (independently, optionally in
    parallel processes), fit log T against log eps, and compare with the
    theoretical law.  Survived records are excluded from the fit and counted;
    with fewer than 2 blow-ups the fitted fields are NaN."""
    eps_list = list(eps_list)
    check_sweep(params_template, data, grid, eps_list)
    # a sweep keeps only the records: sample at t = 0 alone, store no snapshots,
    # and let every later step check just the sup norm
    run_grid = replace(grid, sample_every=grid.n_steps + 1, snapshot_every=None)
    jobs = [
        (replace(params_template, eps=float(e)), profiles, data, run_grid) for e in eps_list
    ]
    nw = sweep_workers(len(jobs), workers)
    if nw > 1:
        # smallest eps first: it runs longest, so it must not start last
        with ProcessPoolExecutor(max_workers=nw) as pool:
            futures = {i: pool.submit(_sweep_one, jobs[i])
                       for i in sorted(range(len(jobs)), key=lambda i: jobs[i][0].eps)}
            records = [futures[i].result() for i in range(len(jobs))]
    else:
        records = [_sweep_one(j) for j in jobs]

    usable = [rec for rec in records if rec.detection is not Detection.SURVIVED]
    excluded = len(records) - len(usable)
    eps = np.array([rec.eps for rec in usable])
    ts = np.array([rec.t_blow for rec in usable])
    law = lifespan_law(params_template, data.speed_flags())
    theory = float(law.exponent)
    if eps.size < 2:
        # too few blow-ups to fit: a numerical outcome, not a usage error
        return SweepResult(records, math.nan, math.nan, theory, math.nan, math.nan, excluded)
    slope, intercept = fit_power_law(eps, ts)
    ratios = ts * eps ** (-theory)
    c_fit = float(np.max(ratios))
    spread = float(np.max(ratios) / np.min(ratios))
    return SweepResult(records, slope, intercept, theory, c_fit, spread, excluded)


# -- CSV persistence (schemas documented in the header rows) --


def write_trace_csv(trace: FunctionalTrace, path) -> None:
    write_csv(path, ("t", "U", "V", "Nu", "Nv", "supnorm"),
              zip(trace.t, trace.U, trace.V, trace.Nu, trace.Nv, trace.sup))


def write_records_csv(records: list[LifespanRecord], path) -> None:
    meta_keys = ("dr", "cfl", "horizon", "threshold")
    write_csv(path, ("eps", "Tblow", "detection") + meta_keys,
              ((rec.eps, rec.t_blow, rec.detection.value,
                *(rec.meta.get(k, "") for k in meta_keys)) for rec in records))
