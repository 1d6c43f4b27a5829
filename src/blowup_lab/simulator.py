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
one numpy pass over the window prefix for both components.  Each level is
measured once, when it is made: |z|, then its sup norm, then the sources in
their own component's slots, |u|^q and |v|^p (one contiguous power when
p = q, np.square for exponent 2); each update adds its partner's.  2 w is
formed once per step for the Laplacian and the update; an undamped update
skips + 0 w_prev and / 1, exact identities there.  Functional sampling
and the critical verifier read a run as observers of run_until_blowup.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from blowup_lab.auxiliary import (
    MAX_NODES,
    KernelConfig,
    KernelQuadrature,
    check_kernel_config,
    critical_kernel_orders,
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
    sample_every: int = 1
    snapshot_every: int | None = None
    linear_mode: bool = False
    enforce_cone: bool = True

    def __post_init__(self):
        # the cone window takes floor((t + R) / dr): no grid value may be non-finite
        for name in ("dr", "horizon", "threshold"):
            if not math.isfinite(getattr(self, name)):
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


#: a run's budget with MAX_NODES, and the critical verifier's, in kernel products (README)
MAX_NODE_STEPS, MAX_STREAM_WORK = 2 ** 30, 2 ** 34


def grid_extent(params: SystemParams, grid: GridConfig) -> float:
    return grid.horizon + params.R + max(0.5, 10 * grid.dr)


def _radii(params: SystemParams, grid: GridConfig) -> np.ndarray:
    return np.arange(int(round(grid_extent(params, grid) / grid.dr)) + 1) * grid.dr


def check_run(params: SystemParams, data: InitialData, grid: GridConfig) -> None:
    """Raise ValueError, without building the grid, for a run that cannot start: a
    sphere measure out of float range, scaled data eps * amplitude out of float
    range, a threshold at or below the initial sup norm eps * max(|u0|, |v0|),
    or a run over budget: its grid nodes or its node-steps (horizon / dt) * nodes."""
    sphere_area(params.n - 1)
    u0, u1, v0, v1 = (params.eps * a for a in (data.u0_amp, data.u1_amp, data.v0_amp, data.v1_amp))
    if not all(map(math.isfinite, (u0, u1, v0, v1))):
        raise ValueError(f"eps * data amplitudes must be finite, got eps {params.eps} and {data}")
    if max(abs(u0), abs(v0)) >= grid.threshold:
        raise ValueError("threshold must exceed the initial sup norm")
    nodes = grid_extent(params, grid) / grid.dr + 1.0  # a float, never an oversized int
    if not nodes <= MAX_NODES:
        raise ValueError(f"{nodes:.4g} grid nodes exceed the budget of {MAX_NODES}")
    node_steps = grid.horizon / grid.dt * nodes
    if not node_steps <= MAX_NODE_STEPS:
        raise ValueError(f"{node_steps:.4g} node-steps exceed the budget of {MAX_NODE_STEPS}")


class GridState:
    """One radial solution snapshot (two time levels, t = 0 before the first
    `step`) plus grid metadata; u, v, u_prev and v_prev are strided views of
    the interleaved levels.  Both are zero at every node past the window m."""

    def __init__(self, params: SystemParams, profiles, data: InitialData, grid: GridConfig):
        check_run(params, data, grid)
        self.params, self.grid = params, grid
        self.b1, self.b2 = profiles
        n, R, dr = params.n, params.R, grid.dr
        self.dr, self.dt = dr, grid.dt
        self.r = _radii(params, grid)
        # trapezoid weights against the surface measure |S^(n-1)| r^(n-1) dr
        w = np.full(self.r.size, dr)
        w[0] = w[-1] = 0.5 * dr
        with np.errstate(over="ignore"):  # past float range U, V read NaN: trace-finite fails
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
        # |u|^q, |v|^p of the current level in their own slots; zero past the window
        self._src = np.zeros_like(self._z)
        with np.errstate(over="ignore", invalid="ignore"):
            self._measure()

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

    def _measure(self) -> None:
        """Measure the current level on its window: |z| into the Laplacian's
        buffer (the next step writes it after reading the sources), the sup norm
        (a NaN anywhere propagates through the max), and outside linear mode the
        sources, |u|^q at the u slots and |v|^p at the v slots."""
        k, src = 2 * self.m, self._src
        z_abs = np.abs(self._z[:k], out=self._lap[:k])
        self._sup = float(z_abs.max())
        if self.grid.linear_mode:
            return
        if self._p == self._q:
            _power(z_abs, self._p, src[:k])
        else:
            _power(z_abs[0::2], self._q, src[0:k:2])
            _power(z_abs[1::2], self._p, src[1:k:2])

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
        k, buf, src, sums = 2 * self.m, self._work[:self.m], self._src, []
        with np.errstate(over="ignore", invalid="ignore"):
            for f in (self._z[0:k:2], self._z[1:k:2], src[0:k:2], src[1:k:2]):
                np.copyto(buf, f)
                sums.append(self.integral(buf))
        return (*sums, self._sup)

    def sup_norm(self) -> float:
        """max |u|, |v| of the current level, taken when the level was made."""
        return self._sup


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
    window of the new level, and measure that level.  Non-finite values are
    not an error here; blow-up detection is the caller's job.  Components
    that share one damping profile object share one evaluation of b."""
    t_new = state.t + state.dt
    m_new = state._window(t_new)
    with np.errstate(over="ignore", invalid="ignore"):
        b1 = state.b1.b(state.t)
        b2 = b1 if state.b2 is state.b1 else state.b2.b(state.t)
        _advance(state, min(m_new, state.r.size - 1), b1, b2)
        state._z_prev, state._z = state._z, state._z_prev
        state.t, state.m = t_new, m_new
        state.step_index += 1
        state._measure()
    return state


@dataclass
class RunResult:
    record: LifespanRecord
    state: GridState
    # always empty: a run stores no snapshots, its observers read the live state
    snapshots: list = field(default_factory=list)


class FunctionalSampler:
    """Run observer that records t, U, V, Nu, Nv and the sup norm of each level
    it sees; trace() returns them as a FunctionalTrace."""

    def __init__(self):
        self._rows = []

    def __call__(self, state: GridState) -> None:
        self._rows.append((state.t, *state.functionals()))

    def trace(self) -> FunctionalTrace:
        return FunctionalTrace(*(np.asarray(col) for col in zip(*self._rows)))


def init_state(params, profiles, data: InitialData, grid: GridConfig) -> GridState:
    return GridState(params, profiles, data, grid)


def run_until_blowup(
    params: SystemParams,
    profiles: tuple[DampingProfile, DampingProfile],
    data: InitialData,
    grid: GridConfig,
    observers=(),
) -> RunResult:
    """Step until the sup norm crosses the threshold, a non-finite value
    appears, or the horizon is reached (a Survived record, not an error).
    observers: (every, callable) pairs; at steps 0, every, 2 every, ... up to
    the step the run ends on, each due callable is called with the live
    state, in the order given, before the checks of that step."""
    state = init_state(params, profiles, data, grid)
    detection = Detection.SURVIVED
    t_blow = grid.horizon
    n_steps = grid.n_steps
    while True:
        for every, observe in observers:
            if state.step_index % every == 0:
                observe(state)
        sup = state.sup_norm()
        if not math.isfinite(sup):
            detection, t_blow = Detection.NONFINITE, state.t
            break
        if sup > grid.threshold:
            detection, t_blow = Detection.THRESHOLD, state.t
            break
        if state.step_index == n_steps:
            break
        step(state)
    return RunResult(LifespanRecord(params.eps, t_blow, detection), state)


# -- identity and inequality verification --


@dataclass(frozen=True)
class IdentityReport:
    """The frame inequalities and the source lower-bound fits along a trace.

    iter1_slack_*: min over samples of U - m(0) * double time integral of the
    source (nonnegative when the frame inequality holds).
    c1_fit / k1_fit: empirical constants of the nonlinearity lower bounds.
    """

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
) -> IdentityReport:
    """Check the frame inequalities and fit the nonlinearity lower-bound
    constants on a sampled trace."""
    if len(trace) < 5:
        raise ValueError(f"trace too short for the frames: {len(trace)} samples")
    t = trace.t
    b1, b2 = profiles
    n, eps = params.n, params.eps

    def component(F, source, prof, r):
        """U with (Nv, b1, p) or V with (Nu, b2, q): the frame slack and the
        fitted lower-bound constant of the source."""
        slack = float(np.min(F - math.exp(-prof.l1) * _cumleft(_cumleft(source, t), t)))
        fit = float(np.min(source * (1.0 + t) ** ((n - 1) * (r / 2.0 - 1.0)) / eps ** r))
        return slack, fit

    slack_u, k1 = component(trace.U, trace.Nv, b1, float(params.p))
    slack_v, c1 = component(trace.V, trace.Nu, b2, float(params.q))
    return IdentityReport(slack_u, slack_v, c1, k1)


def cone_leakage(result: RunResult) -> float:
    """Sup of |u|, |v| outside r <= t + R + 2 dr at the final state."""
    state = result.state
    outside = state.r > state.t + state.params.R + 2.0 * state.dr
    return float(np.max(np.abs(state._z.reshape(-1, 2)[outside]), initial=0.0))


@dataclass(frozen=True)
class CriticalReport:
    """Sampled check of the kernel-weighted integral inequalities and of the
    logarithmic lower bound for the weighted average of the first component,
    u when p >= q and v otherwise, which the _u fields hold (the _v, the other).
    log_ratio is weighted_u / log(2t/3) at each checked t > 0 (NaN for t <= 1.5);
    log_ratio_min is its minimum on the caller's log_window."""

    t_checked: np.ndarray
    weighted_u: np.ndarray
    weighted_v: np.ndarray
    rhs_u: np.ndarray
    rhs_v: np.ndarray
    log_ratio: np.ndarray
    log_ratio_min: float

    def bounds_hold(self, rtol: float = 1e-9) -> bool:
        """Each weighted average is at least its bound, at one checked time or more."""
        pairs = ((self.weighted_u, self.rhs_u), (self.weighted_v, self.rhs_v))
        return self.t_checked.size > 0 and all(np.all(w >= b * (1.0 - rtol) - 1e-12) for w, b in pairs)


def critical_kernel_configs(params: SystemParams, profiles, grid: GridConfig, lambda0: float,
                            quad_nodes: int):
    """Kernel configs of the critical-case functionals of u and v, after checking
    the hypotheses of the critical-case machinery: n >= 2, C^1 damping, snapshots,
    admissible kernel orders, the Phi values of the quadrature over the grid and
    the streamed work, snapshots x nodes x quad_nodes per distinct quadrature."""
    if params.n < 2:
        raise ValueError("critical-case machinery requires n >= 2")
    if any(prof.kind == "tabulated" for prof in profiles):
        raise ValueError("critical-case verifiers require C^1 damping (zero/poly kinds)")
    if grid.snapshot_every is None:
        raise ValueError("critical verification needs snapshots; set snapshot_every")
    orders = critical_kernel_orders(params.n, params.p, params.q)
    cfgs = tuple(KernelConfig(lambda0, params.R, r, quad_nodes) for r in orders)
    extent = grid_extent(params, grid)  # the verifier's radii are the grid's nodes
    nodes = extent / grid.dr + 1.0
    for cfg in cfgs:
        check_kernel_config(cfg, params.n, nodes, extent)
    shots = grid.n_steps // grid.snapshot_every + 1
    work = shots * nodes * quad_nodes * len(set(cfgs))
    if not work <= MAX_STREAM_WORK:
        raise ValueError(f"the critical verifier's work {work:.4g} exceeds the budget of "
                         f"{MAX_STREAM_WORK}")
    return cfgs


class CriticalStream:
    """The critical verifier's state along one run, built before it: pass the stream
    to run_until_blowup as the observer (snapshot_every, stream), then call
    verify_critical_inequalities(stream).

    The kernel (t-s) sinhc(lambda (t-s)) solves y'' = lambda^2 y, so per lambda node
    each lower bound is one solution (y, y'), scaled by e^(-lambda t): it starts from
    the data, and each snapshot kicks y' with the previous snapshot's source, rotates
    by the snapshot gap and records the weighted average and its bound, O(K) per
    snapshot after one product Phi[:, :m] @ Z per distinct quadrature, where Z holds
    u W, v W, |u|^q W and |v|^p W on the cone window m (the fields vanish past it).
    """

    def __init__(self, params: SystemParams, profiles, grid: GridConfig,
                 lambda0: float = KernelConfig.lambda0,
                 quad_nodes: int = KernelConfig.quad_nodes):
        cfg_u, cfg_v = critical_kernel_configs(params, profiles, grid, lambda0, quad_nodes)
        r = _radii(params, grid)
        quad_u = KernelQuadrature(cfg_u, params.n, r)
        # equal orders (p = q) give equal configs: build the quadrature once
        quad_v = quad_u if cfg_v == cfg_u else KernelQuadrature(cfg_v, params.n, r)
        self.params, self.t = params, []
        self._buf = np.empty((r.size, 4))
        # Z's columns: u W, v W, |u|^q W, |v|^p W; u's source is |v|^p, v's is |u|^q
        self._parts = (_Component(quad_u, profiles[0], 0, 3), _Component(quad_v, profiles[1], 1, 2))

    def __call__(self, state: GridState) -> None:
        m, t = state.m, state.t
        z, w = self._buf[:m], state.weights[:m, None]
        u, v = self._parts
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(state._z[:2 * m].reshape(m, 2), w, out=z[:, :2])
            np.multiply(state._src[:2 * m].reshape(m, 2), w, out=z[:, 2:])
            prod_u = u.quad.phi_mat[:, :m] @ z
            prods = (prod_u, prod_u if v.quad is u.quad else v.quad.phi_mat[:, :m] @ z)
            if not self.t:  # the data, at t = 0
                for part, prod, w_t0 in zip(self._parts, prods, (state.ut_init, state.vt_init)):
                    part.start(prod[:, part.own], part.quad.phi_mat[:, :m] @ (w[:, 0] * w_t0[:m]))
            else:
                # the previous snapshot's kick, at its inner trapezoid weight (a
                # prefix's end has sinh 0 = 0), then the rotation over the gap
                s = self.t[-1]
                kick = 0.5 * (t - self.t[max(len(self.t) - 2, 0)])
                for part, prod in zip(self._parts, prods):
                    part.advance(s, t, kick, prod[:, part.own])
        for part, prod in zip(self._parts, prods):
            part.src = prod[:, part.source]
        self.t.append(t)


class _Component:
    """One component's lower-bound recurrence in a CriticalStream, with its
    own-field and source columns of Z."""

    def __init__(self, quad: KernelQuadrature, profile, own: int, source: int):
        self.quad, self.own, self.source = quad, own, source
        self.g1, self.g2 = math.exp(-profile.l1), math.exp(-2.0 * profile.l1)
        self.lhs, self.rhs = [], []

    def start(self, data, data_t):
        # (y, dy) = e^(-lam t) (Y, Y') with Y'' = lam^2 Y: every rotation coefficient is in [0, 1]
        self.y, self.dy = self.g1 * data, self.g2 * data_t

    def advance(self, s, t, kick, own):
        """Kick dy with the source of the snapshot at s, rotate to t, record at t."""
        quad, lam, h = self.quad, self.quad.lam, t - s
        dy = self.dy + self.g2 * kick * np.exp(-lam * s) * self.src
        ch, shc = quad.rotation(h)  # sinh(lam h) / lam = h shc, both scaled by e^(-lam h)
        self.y, self.dy = ch * self.y + h * shc * dy, ch * dy + lam * lam * (h * shc) * self.y
        self.lhs.append(float(quad.decay(t) @ own))
        self.rhs.append(float(quad.decay(0.0) @ self.y))


def verify_critical_inequalities(
    stream: CriticalStream,
    log_window: tuple[float, float] = (5.0, math.inf),
) -> CriticalReport:
    """Check the kernel-weighted lower bounds a CriticalStream recorded along its run.

    Each weighted average must dominate its data terms plus the
    (t-s)-weighted source integral, all damped by exp(-l1) factors; the
    first component must additionally grow at least like log(2t/3).
    """
    p, q = float(stream.params.p), float(stream.params.q)
    u, v = stream._parts
    first, second = (u, v) if p >= q else (v, u)
    t_checked = np.asarray(stream.t[1:], dtype=float)
    lhs_1, rhs_1, lhs_2, rhs_2 = (np.asarray(x, dtype=float) for x in
                                  (first.lhs, first.rhs, second.lhs, second.rhs))

    lo, hi = log_window
    in_win = (t_checked >= max(lo, 1.5 + 1e-9)) & (t_checked <= hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(t_checked > 1.5, lhs_1 / np.log(2.0 * t_checked / 3.0), math.nan)
    log_min = float(np.min(log_ratio[in_win])) if np.any(in_win) else math.nan
    return CriticalReport(t_checked, lhs_1, lhs_2, rhs_1, rhs_2, log_ratio, log_min)


# -- lifespan sweeps --


@dataclass(frozen=True)
class SweepResult:
    records: list[LifespanRecord]
    slope: float
    intercept: float
    theory_exponent: float
    excluded: int

    def slope_matches(self, rel_tol: float = 0.25) -> bool:
        return abs(self.slope - self.theory_exponent) <= rel_tol * abs(self.theory_exponent)


def fit_power_law(eps: np.ndarray, t_blow: np.ndarray) -> tuple[float, float]:
    """Least-squares slope/intercept of log T against log eps."""
    if eps.size < 2:
        raise ValueError("need at least 2 blow-up records to fit a slope")
    coef = np.polyfit(np.log(eps), np.log(t_blow), 1)
    return float(coef[0]), float(coef[1])


def _sweep_one(args) -> LifespanRecord:
    params, profiles, data, grid = args
    return run_until_blowup(params, profiles, data, grid).record


def _sweep_caught(args) -> tuple[LifespanRecord, list]:
    """_sweep_one(args) in a pool worker, and the (category, message) of each
    warning it raised, which lifespan_sweep raises again in this process."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        record = _sweep_one(args)
    return record, [(w.category, str(w.message)) for w in caught]


def sweep_workers(n_jobs: int, requested: int | None = None) -> int:
    """Runs at once in a sweep, this process included: the requested value
    (default one per job), capped by the jobs and by the usable CPUs, the
    CPUs this process may run on (its affinity set) where the platform tells."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus if requested is None else requested, cpus, n_jobs))


def _drain(queue: deque, records: list, errors: list, start, job=None) -> None:
    """Run job indices popped off the shared queue until it is empty, storing
    each job's result at its index.  start(i) begins job i and returns a call
    that waits for its result; `job` is an (i, wait) pair begun before this call.
    A failure goes to errors and clears the queue, so no runner starts another
    job; the caller re-raises it."""
    try:
        while True:
            if job is None:
                try:
                    i = queue.popleft()
                except IndexError:
                    return
                job = i, start(i)
            i, wait = job
            records[i] = wait()
            job = None
    except BaseException as exc:
        errors.append(exc)
        queue.clear()


def check_sweep(params_template: SystemParams, data: InitialData, grid: GridConfig,
                eps_list) -> None:
    """Raise ValueError for a sweep that cannot run: fewer than 4 distinct eps,
    an eps no run can start from, or a region without a blow-up law."""
    if (distinct := len({float(e) for e in eps_list})) < 4:
        raise ValueError(f"sweep needs >= 4 distinct eps points, got {distinct}")
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
    """Run one blow-up detection per eps (independently, sweep_workers(...)
    at once: this process runs eps too, so the pool forks one worker fewer),
    fit log T against log eps, and compare with the theoretical law.  Records
    keep the order of eps_list.  An exception from a run, here or in a
    worker, is raised here once the runs under way end; no further eps
    starts; a worker's warnings are raised here.  Survived records are excluded
    from the fit and counted; with fewer than 2 blow-ups the fitted fields are
    NaN."""
    eps_list = list(eps_list)
    check_sweep(params_template, data, grid, eps_list)
    # a sweep keeps only the records: its runs have no observers
    jobs = [(replace(params_template, eps=float(e)), profiles, data, grid) for e in eps_list]
    nw = sweep_workers(len(jobs), workers)
    if nw > 1:
        # nw runners, this process and a pool of nw - 1 workers, pull from one
        # queue, smallest eps first: it runs longest, so it must not start last
        queue = deque(sorted(range(len(jobs)), key=lambda i: jobs[i][0].eps))
        runs, errors = [None] * len(jobs), []
        with ProcessPoolExecutor(max_workers=nw - 1) as pool:
            def remote(i):
                return pool.submit(_sweep_caught, jobs[i]).result

            firsts = [queue.popleft() for _ in range(nw - 1)]
            # submitting them here forks the workers from this thread, before
            # any feeder thread or run here starts
            feeders = [threading.Thread(target=_drain,
                                        args=(queue, runs, errors, remote, (i, remote(i))))
                       for i in firsts]
            for t in feeders:
                t.start()
            # a run here raises its warnings here itself
            _drain(queue, runs, errors, lambda i: lambda: (_sweep_one(jobs[i]), []))
            for t in feeders:
                t.join()
        if errors:
            raise errors[0]
        for _, caught in runs:
            for category, message in caught:
                warnings.warn(message, category)
        records = [rec for rec, _ in runs]
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
        return SweepResult(records, math.nan, math.nan, theory, excluded)
    slope, intercept = fit_power_law(eps, ts)
    return SweepResult(records, slope, intercept, theory, excluded)


# -- CSV persistence (schemas documented in the header rows) --


def write_trace_csv(trace: FunctionalTrace, path) -> None:
    write_csv(path, ("t", "U", "V", "Nu", "Nv", "supnorm"),
              zip(trace.t, trace.U, trace.V, trace.Nu, trace.Nv, trace.sup))


def write_records_csv(records: list[LifespanRecord], grid: GridConfig, path) -> None:
    """One row per record, with the grid settings the runs share."""
    write_csv(path, ("eps", "Tblow", "detection", "dr", "cfl", "horizon", "threshold"),
              ((rec.eps, rec.t_blow, rec.detection.value,
                grid.dr, grid.cfl, grid.horizon, grid.threshold) for rec in records))
