"""Radially symmetric finite-difference solver for the coupled damped system

    u_tt - lap(u) + b1(t) u_t = |v|^p,
    v_tt - lap(v) + b2(t) v_t = |u|^q,

with compact bump data, plus functional extraction, inequality
verification, blow-up detection and lifespan sweeps.

Scheme: explicit leapfrog with the radial Laplacian u_rr + (n-1) u_r / r
(n u_rr at the origin via the symmetric ghost node), time-centered damping
solved pointwise, nonlinear sources at the current level, CFL <= 0.5.
Finite propagation speed is enforced: only the cone window r <= t + R + 2 dr
is sampled and searched for blow-up, and every node past it stays +0.0 (the
exact solution vanishes there; the zeroing drops the scheme's own dispersive
tail, so no leakage is left past the window to check).  A step runs on the
window rounded up to a STEP_CHUNK-node chunk, so that its array views, a step
plan, are built once per chunk and level buffer.  A time level is one buffer
of c B slots per node, node-major: B lanes, each one run's eps-scaled data, and
c the component stride, so node i, lane j, component k sits at slot (i B + j) c + k
and the stencil's neighbours lie c B slots away.  A coupled run has c = 2, u at the
even slots and v at the odd ones: each step operation is one numpy pass over the
stepped prefix for every lane and both components.  A run has one lane; a sweep
steps its eps ladder as the lanes of one level (lifespan_sweep), each lane's
arithmetic that of its run alone.  A symmetric run, p = q as floats, one shared
damping profile object and u-data byte-equal to the v-data, is the single equation
u_tt - lap(u) + b u_t = |u|^p: v repeats u bit for bit, so it has c = 1, one slot
per node and lane that u and v both read, and each step does the work of one
component.
Each level is measured once, on its window, when it is made: |z|, then its sup
norm (|z| at its argmax), then the sources in their own component's slots,
|u|^q and |v|^p (one contiguous power when p = q, np.square for exponent 2);
each update adds its partner's.  2 w is formed once per step for the Laplacian and the
update; an undamped update skips + 0 w_prev and / 1, exact identities
there.  Functional sampling and the critical verifier observe a run, each
at its own (every, observer) cadence, through GridState.fields().
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  (bench/run.py wraps it)
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

    def speed_flags(self) -> tuple[bool, bool]:
        return self.u1_amp != 0.0, self.v1_amp != 0.0


@dataclass(frozen=True)
class GridConfig:
    dr: float = 0.02
    cfl: float = 0.5
    horizon: float = 10.0
    threshold: float = 1e10
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
    `step`) plus grid metadata, for each lane: the eps of `lanes`, by default the
    one run of params.eps.  u, v, u_prev and v_prev are views of the levels with
    the component stride _c (2: interleaved; 1, a symmetric run: u and v one
    view, as are u_prev and v_prev), node-major over the lanes like u_init,
    ut_init, v_init and vt_init; with one lane, the run's fields.  Both levels and
    the sources are +0.0 at every node past the cone window m, although a step
    runs on m rounded up to a chunk."""

    def __init__(self, params: SystemParams, profiles, data: InitialData, grid: GridConfig,
                 lanes=None):
        self.lanes = (params.eps,) if lanes is None else tuple(lanes)
        for eps in self.lanes:
            check_run(replace(params, eps=eps), data, grid)
        self.params, self.grid = params, grid
        self.b1, self.b2 = profiles
        n, R, dr = params.n, params.R, grid.dr
        self.dr, self.dt = dr, grid.dt
        self.r = _radii(params, grid)
        # trapezoid weights against the surface measure |S^(n-1)| r^(n-1) dr, and at
        # n = 2 the origin cell's measure pi dr^2 / 4, where the trapezoid gives 0: then
        # the weighted sum of the discrete Laplacian telescopes to zero at every n
        w = np.full(self.r.size, dr)
        w[0] = w[-1] = 0.5 * dr
        with np.errstate(over="ignore"):  # past float range U, V read NaN: trace-finite fails
            self.weights = sphere_area(n - 1) * self.r ** (n - 1) * w
        if n == 2:
            self.weights[0] = math.pi * dr ** 2 / 4.0

        # +0.0 past R whatever the amplitude's sign: amp * 0.0 is -0.0 for amp < 0
        inside, bump = self.r < R, (1.0 - np.minimum(self.r / R, 1.0) ** 2) ** 4
        self.u_init, self.ut_init, self.v_init, self.vt_init = (
            np.where(inside[:, None], bump[:, None] * [eps * amp for eps in self.lanes],
                     0.0).ravel()
            for amp in (data.u0_amp, data.u1_amp, data.v0_amp, data.v1_amp))

        p, q = float(params.p), float(params.q)
        # bytes, not ==: +0.0 and -0.0 amplitudes compare equal
        symmetric = (p == q and self.b2 is self.b1
                     and self.u_init.tobytes() == self.v_init.tobytes()
                     and self.ut_init.tobytes() == self.vt_init.tobytes())
        c = self._c = 1 if symmetric else 2
        # the slots of a node, the stencil's shift
        s = self._s = c * len(self.lanes)
        # `step` writes the new level into _z_prev
        self._z, self._z_prev = np.zeros(s * self.r.size), np.zeros(s * self.r.size)
        self.u[:], self.v[:] = self.u_init, self.v_init
        self.t, self.step_index = 0.0, 0
        # the cone window r <= t + R + 2 dr, as `step` takes it, or the whole grid
        self._cone = grid.enforce_cone
        self.m = min(self.r.size, math.floor(R / dr + 2.0) + 1) if self._cone else self.r.size
        # the step's constant operands 2, dr^2, n - 1 and dt^2 as 0-d float64 arrays, which
        # numpy takes as they are (it converts a Python float at each call)
        self._two, self._dr2, self._n1, self._dt2 = (
            np.array(x) for x in (2.0, dr ** 2, n - 1.0, self.dt * self.dt))
        self._origin = n * 2.0, dr ** 2  # 2 n and dr^2 in Python floats
        self._two_dr_r = np.repeat(2.0 * dr * self.r, s)
        # a zero-kind profile pair is undamped at every t: the step takes b = 0.0
        self._zero = self.b1.kind == self.b2.kind == "zero"
        # the exponents of |u|^q and |v|^p, one when p = q, none in linear mode (_power)
        exps = tuple(None if e == 2.0 else np.array(e) for e in (q, p))
        self._exps = () if grid.linear_mode else exps[:1] if p == q else exps
        # work buffers of the step and functionals, and the step plans over them,
        # one per level buffer
        self._lap, self._work, self._tmp = (np.zeros_like(self._z) for _ in range(3))
        self._plans = [None, None]
        # |u|^q, |v|^p of the current level in their own slots; zero past the window
        self._src = np.zeros_like(self._z)
        with np.errstate(over="ignore", invalid="ignore"):
            self._measure()

    u = property(lambda self: self._z[0::self._c])
    v = property(lambda self: self._z[self._c - 1::self._c])
    u_prev = property(lambda self: self._z_prev[0::self._c])
    v_prev = property(lambda self: self._z_prev[self._c - 1::self._c])

    def _measure(self) -> None:
        """Measure the current level on its window: |z| into the Laplacian's buffer (the
        next step writes it after reading the sources), the sup norm (|z| at its argmax,
        the first NaN if there is one: the float max gives), and outside linear mode the
        sources, |u|^q at the u slots and |v|^p at the v slots (one slot when _c = 1)."""
        k, src, exps = self._s * self.m, self._src, self._exps
        z_abs = np.abs(self._z[:k], self._lap[:k])
        self._sup = float(z_abs[z_abs.argmax()])
        if len(exps) == 1:
            _power(z_abs, exps[0], src[:k])
        elif exps:
            _power(z_abs[0::2], exps[0], src[0:k:2])
            _power(z_abs[1::2], exps[1], src[1:k:2])

    def lane_sups(self) -> np.ndarray:
        """Each lane's sup norm on the window: max |u|, |v| over its slots, NaN when
        one of them is NaN, as its own run's sup norm reads.  It reads the |z| that
        _measure left in the Laplacian's buffer: call it before the next step."""
        z_abs = self._lap[:self._s * self.m].reshape(self.m, len(self.lanes), self._c)
        return z_abs.max(axis=(0, 2))

    def keep_lanes(self, keep) -> None:
        """Drop every lane but those at the positions `keep`, in that order: the
        levels, the sources and the data lose their slots, and the step plans go."""
        b, c = len(self.lanes), self._c
        for name in ("_z", "_z_prev", "_src"):
            setattr(self, name, getattr(self, name).reshape(-1, b, c)[:, keep].ravel())
        for name in ("u_init", "ut_init", "v_init", "vt_init"):
            setattr(self, name, getattr(self, name).reshape(-1, b)[:, keep].ravel())
        self.lanes = tuple(self.lanes[j] for j in keep)
        self._s = c * len(self.lanes)
        self._two_dr_r = np.repeat(2.0 * self.dr * self.r, self._s)
        self._plans = [None, None]

    def integral(self, f) -> float:
        """Trapezoid integral of f, given on the grid or on a prefix of it."""
        return float(self.weights[: f.size] @ f)

    def fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views of u, v, |u|^q and |v|^p of a one-lane level on its window m, the
        observers' one reader of the layout; at _c = 1 v is u and |v|^p is |u|^q.
        A level of several lanes raises: its slots would mix the lanes' values."""
        if len(self.lanes) != 1:
            raise ValueError(f"fields() reads a one-lane level, this one has {len(self.lanes)}")
        c, k = self._c, self._c * self.m
        u, nu = self._z[0:k:c], self._src[0:k:c]
        return (u, u, nu, nu) if c == 1 else (u, self._z[1:k:2], nu, self._src[1:k:2])

    def functionals(self) -> tuple[float, float, float, float, float]:
        # U, V, Nu, Nv; a contiguous copy keeps the dot's sum order
        buf, sums = self._work[:self.m], []
        with np.errstate(over="ignore", invalid="ignore"):
            for f in self.fields():
                np.copyto(buf, f)
                sums.append(self.integral(buf))
        return (*sums, self._sup)

    def sup_norm(self) -> float:
        """max |u|, |v| of the current level, taken when the level was made."""
        return self._sup


def _power(x, e, out):
    # e is 0-d, or None for 2: np.square is bit-equal to np.power(x, 2.0), twice as fast
    return np.square(x, out) if e is None else np.power(x, e, out)


#: the stepped extent grows in chunks of this many nodes, so one step plan serves
#: the 2 * STEP_CHUNK steps a chunk lasts at CFL 0.5
STEP_CHUNK = 64


class _StepPlan:
    """The array views one step reads and writes on the nodes [0, k) while a given
    one of the two level buffers is current: z (the current level), new (the
    level before it, overwritten), the sources, the work buffers, each node's s
    slots (its lanes' components) apart from its neighbours', and their component
    slots with the state's stride c (u at the even slots and v at the odd ones
    when c = 2, one slot for both when c = 1)."""

    def __init__(self, state: GridState, k: int):
        c, s, z = state._c, state._s, state._z
        j = s * k
        self.k, self.c, self.s = k, c, s
        new, acc, lap, src = state._z_prev[:j], state._work[:j], state._lap[:j], state._src[:j]
        # z, new, 2 z, the Laplacian, the sources; at the interior nodes [1, k) the
        # Laplacian, its work buffer, right and left neighbours, 2 z, 2 dr r; the first two nodes
        self.views = (z[:j], new, acc, lap, src, lap[s:], state._tmp[s:j], z[2 * s:j + s],
                      z[:j - s], acc[s:], state._two_dr_r[s:j], z[:2 * s])
        # u's and v's slots of z, new, 2 z, the Laplacian and the sources, and initial speed
        self.slots = [(z[i:j:c], new[i::c], acc[i::c], lap[i::c], src[i::c], w_t0[:j // c])
                      for i, w_t0 in enumerate((state.ut_init, state.vt_init)[:c])]


def _advance(state: GridState, k: int, b1: float, b2: float) -> None:
    """Write the next level on the nodes [0, k), k < r.size, into _z_prev, with the
    radial Laplacian, given 2 z, in the Laplacian's buffer: the operations of
    (u[2:] - 2 u[1:] + u[:-2]) / dr^2 + (n-1) (u[2:] - u[:-2]) / (2 dr r) in
    order (no factor 1 at n = 2), and n u_rr at the origin via the symmetric
    ghost node.  The old levels are +0.0 past their windows, so past the old
    window plus one node the new level reads only +0.0 inputs and comes out +0.0."""
    # one plan per level buffer (every step swaps them), rebuilt when k moves
    # to the next chunk, so at most two are alive
    plans, parity = state._plans, state.step_index % 2
    plan = plans[parity]
    if plan is None or plan.k != k:
        plan = plans[parity] = _StepPlan(state, k)
    z, new, acc, lap, src, inner, tmp, right, left, two_z, two_dr_r, head = plan.views
    n, c, s, dt = state.params.n, plan.c, plan.s, state.dt
    np.multiply(state._two, z, acc)
    np.subtract(right, two_z, inner)
    np.add(inner, left, inner)
    np.divide(inner, state._dr2, inner)
    if n > 1:
        np.subtract(right, left, tmp)
        if n > 2:
            np.multiply(state._n1, tmp, tmp)
        np.divide(tmp, two_dr_r, tmp)
        np.add(inner, tmp, inner)
    (two_n, dr2), z0 = state._origin, head.tolist()
    for i in range(s):
        lap[i] = two_n * (z0[s + i] - z0[i]) / dr2
    slots = plan.slots
    if state.step_index == 0:
        # second-order Taylor start from the PDE at t = 0, once per component slot,
        # with its partner's source
        for b, (w, new_w, _, lap_w, _, w_t0), partner in zip((b1, b2), slots, slots[::-1]):
            src_w = partner[4]
            new_w[...] = w + dt * w_t0 + 0.5 * dt * dt * (lap_w - b * w_t0 + src_w)
        return
    # (2 w - w_prev + half w_prev + dt^2 (lap + src)) / (1 + half), one
    # operation at a time in that order; w_prev is read before it is written
    if c == 1:
        # each slot is u and v at once, and its own source is its partner's
        np.add(lap, src, lap)
    else:
        (_, _, _, lap_u, src_u, _), (_, _, _, lap_v, src_v, _) = slots
        np.add(lap_u, src_v, lap_u)
        np.add(lap_v, src_u, lap_v)
    np.multiply(state._dt2, lap, lap)
    np.subtract(acc, new, acc)
    if b1 == 0.0 and b2 == 0.0:
        # + 0 w_prev and / 1 are exact for finite w_prev, as lap + src is never -0
        np.add(acc, lap, new)
        return
    if b2 is b1:
        # a shared profile's b scales all c k slots at once
        half = 0.5 * b1 * dt
        np.multiply(half, new, new)
        np.add(acc, new, acc)
        np.add(acc, lap, acc)
        np.divide(acc, 1.0 + half, new)
        return
    (_, new_u, acc_u, _, _, _), (_, new_v, acc_v, _, _, _) = slots  # two profiles: c = 2
    half_u, half_v = 0.5 * b1 * dt, 0.5 * b2 * dt
    np.multiply(half_u, new_u, new_u)
    np.multiply(half_v, new_v, new_v)
    np.add(acc, new, acc)
    np.add(acc, lap, acc)
    np.divide(acc_u, 1.0 + half_u, new_u)
    np.divide(acc_v, 1.0 + half_v, new_v)


@np.errstate(over="ignore", invalid="ignore")
def step(state: GridState) -> GridState:
    """Advance one leapfrog step (mutates and returns the state) and measure the
    new level on its cone window.  The step runs on the window rounded up to a
    STEP_CHUNK-node chunk (at most the grid less its last node), and every node
    past the window stays +0.0.  Non-finite values are not an error here;
    blow-up detection is the caller's job: the step silences overflow and
    invalid operations, and restores the caller's error state on return or
    raise.  Components that share one damping profile object share one
    evaluation of b, and a zero-kind pair evaluates none."""
    t, t_new, size = state.t, state.t + state.dt, state.r.size
    m_new = (min(size, math.floor((t_new + state.params.R) / state.dr + 2.0) + 1)
             if state._cone else size)
    k = min(-(-m_new // STEP_CHUNK) * STEP_CHUNK, size - 1)
    b1 = 0.0 if state._zero else state.b1.b(t)
    b2 = b1 if state._zero or state.b2 is state.b1 else state.b2.b(t)
    _advance(state, k, b1, b2)
    if k > m_new:
        # the window grows at most one node a step: only node m_new, the old
        # window when it did not grow, can hold the scheme's tail, in each lane's slots
        s = state._s
        state._z_prev[s * m_new:s * (m_new + 1)] = 0.0
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


def init_state(params, profiles, data: InitialData, grid: GridConfig, lanes=None) -> GridState:
    return GridState(params, profiles, data, grid, lanes)


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
    records, state = _run_lanes(params, profiles, data, grid, (params.eps,), observers)
    return RunResult(records[0], state)


def _run_lanes(params, profiles, data, grid, eps, observers=()):
    """The records, in the order of eps, and the state a run ends on, with each eps a
    lane of one level.  At every step the due observers see the state, then each lane
    meets the checks in order: a non-finite sup norm, one above the threshold, the
    last step (Survived at the horizon).  Lanes' own sup norms are read only when
    the level's is non-finite or above the threshold, or at the last step; a lane
    that ends is dropped from the level, and the state is left as the last lane
    ends."""
    state = init_state(params, profiles, data, grid, eps)
    threshold, n_steps = grid.threshold, grid.n_steps
    # live: the positions in eps of the level's lanes, lane by lane
    records, live = [None] * len(eps), list(range(len(eps)))
    while True:
        for every, observe in observers:
            if state.step_index % every == 0:
                observe(state)
        last = state.step_index == n_steps
        # NaN compares false: a non-finite sup norm reads the lanes too
        if not state.sup_norm() <= threshold or last:
            keep = []
            for lane, (pos, sup) in enumerate(zip(live, state.lane_sups())):
                if not math.isfinite(sup):
                    records[pos] = LifespanRecord(eps[pos], state.t, Detection.NONFINITE)
                elif sup > threshold:
                    records[pos] = LifespanRecord(eps[pos], state.t, Detection.THRESHOLD)
                elif last:
                    records[pos] = LifespanRecord(eps[pos], grid.horizon, Detection.SURVIVED)
                else:
                    keep.append(lane)
            live = [live[lane] for lane in keep]
            if not live:
                return records, state
            state.keep_lanes(keep)
        step(state)


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
    constants on a sampled trace, minima over its samples (one or more)."""
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


def critical_kernel_configs(params: SystemParams, profiles, grid: GridConfig,
                            snapshot_every: int | None, lambda0: float, quad_nodes: int):
    """Kernel configs of the critical-case functionals of u and v, after checking
    the hypotheses of the critical-case machinery: n >= 2, C^1 damping, snapshots
    every snapshot_every >= 1 steps, admissible kernel orders, the Phi values of the
    quadrature over the grid and the streamed work, snapshots x nodes x quad_nodes
    per distinct quadrature."""
    if params.n < 2:
        raise ValueError("critical-case machinery requires n >= 2")
    if any(prof.kind == "tabulated" for prof in profiles):
        raise ValueError("critical-case verifiers require C^1 damping (zero/poly kinds)")
    if snapshot_every is None or snapshot_every < 1:
        raise ValueError("critical verification needs snapshots; set snapshot_every")
    orders = critical_kernel_orders(params.n, params.p, params.q)
    cfgs = tuple(KernelConfig(lambda0, params.R, r, quad_nodes) for r in orders)
    extent = grid_extent(params, grid)  # the verifier's radii are the grid's nodes
    nodes = extent / grid.dr + 1.0
    for cfg in cfgs:
        check_kernel_config(cfg, params.n, nodes, extent)
    shots = grid.n_steps // snapshot_every + 1
    work = shots * nodes * quad_nodes * len(set(cfgs))
    if not work <= MAX_STREAM_WORK:
        raise ValueError(f"the critical verifier's work {work:.4g} exceeds the budget of "
                         f"{MAX_STREAM_WORK}")
    return cfgs


class CriticalStream:
    """The critical verifier's state along one run, built before it for snapshots
    every snapshot_every steps: pass the stream to run_until_blowup as the observer
    (snapshot_every, stream), with the same cadence, then call
    verify_critical_inequalities(stream).

    The kernel (t-s) sinhc(lambda (t-s)) solves y'' = lambda^2 y, so per lambda node
    each lower bound is one solution (y, y'), scaled by e^(-lambda t): it starts from
    the data, and each snapshot kicks y' with the previous snapshot's source, rotates
    by the snapshot gap and records the weighted average and its bound, O(K) per
    snapshot after one product Phi[:, :m] @ Z per distinct quadrature, where Z holds
    u W, v W, |u|^q W and |v|^p W on the cone window m (the fields vanish past it),
    four columns even when v is u and u's recurrence serves both (README).
    """

    def __init__(self, params: SystemParams, profiles, grid: GridConfig, snapshot_every: int,
                 lambda0: float = KernelConfig.lambda0,
                 quad_nodes: int = KernelConfig.quad_nodes):
        cfg_u, cfg_v = critical_kernel_configs(params, profiles, grid, snapshot_every, lambda0,
                                               quad_nodes)
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
        z, w, fields = self._buf[:m], state.weights[:m], state.fields()
        if not self.t and fields[1] is fields[0]:
            self._parts = self._parts[:1]  # one component: v's recurrence would repeat u's
        u, v = self._parts[0], self._parts[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            # one 1-D multiply per column: a 2-wide broadcast costs 3-5 times as much
            for col, f in enumerate(fields):
                np.multiply(f, w, out=z[:, col])
            prod_u = u.quad.phi_mat[:, :m] @ z
            prods = (prod_u, prod_u if v.quad is u.quad else v.quad.phi_mat[:, :m] @ z)
            if not self.t:  # the data, at t = 0
                for part, prod, w_t0 in zip(self._parts, prods, (state.ut_init, state.vt_init)):
                    part.start(prod[:, part.own], part.quad.phi_mat[:, :m] @ (w * w_t0[:m]))
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
    u, v = stream._parts[0], stream._parts[-1]  # one part when v is u
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


def fit_power_law(eps: np.ndarray, t_blow: np.ndarray) -> tuple[float, float]:
    """Least-squares slope/intercept of log T against log eps."""
    if eps.size < 2:
        raise ValueError("need at least 2 blow-up records to fit a slope")
    coef = np.polyfit(np.log(eps), np.log(t_blow), 1)
    return float(coef[0]), float(coef[1])


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
) -> list[LifespanRecord]:
    """The record of one blow-up detection per eps, in the order of eps_list, each
    bit for bit that of run_until_blowup on its eps alone: every eps is a lane of
    one level, stepped in this process."""
    eps_list = [float(e) for e in eps_list]
    check_sweep(params_template, data, grid, eps_list)
    return _run_lanes(params_template, profiles, data, grid, eps_list)[0]


# -- CSV persistence (schemas documented in the header rows) --


def write_trace_csv(trace: FunctionalTrace, path) -> None:
    write_csv(path, ("t", "U", "V", "Nu", "Nv", "supnorm"),
              zip(trace.t, trace.U, trace.V, trace.Nu, trace.Nv, trace.sup))


def write_records_csv(records: list[LifespanRecord], grid: GridConfig, path) -> None:
    """One row per record, with the grid settings the runs share."""
    write_csv(path, ("eps", "Tblow", "detection", "dr", "cfl", "horizon", "threshold"),
              ((rec.eps, rec.t_blow, rec.detection.value,
                grid.dr, grid.cfl, grid.horizon, grid.threshold) for rec in records))
