"""The solver's oracles: independent truths that a run of the solver must meet.

Each run takes the simulator module as `sim` (the lab's own by default), so
that tests/test_mutants.py can hold deliberately broken copies of the
simulator to them."""

import math
from fractions import Fraction

import numpy as np

from blowup_lab import simulator
from blowup_lab.auxiliary import KernelConfig, KernelQuadrature, critical_kernel_orders, sinhc
from blowup_lab.damping import DampingProfile
from blowup_lab.exponents import SystemParams
from blowup_lab.simulator import GridConfig, InitialData


def sampled_run(params, profiles, data, grid, *observers, sample_every=1, sim=simulator):
    """A run of sim with a FunctionalSampler every sample_every steps, then the
    given observers: the result and the sampled trace."""
    sampler = sim.FunctionalSampler()
    res = sim.run_until_blowup(params, profiles, data, grid,
                               [(sample_every, sampler), *observers])
    return res, sampler.trace()


def cone_window(state, t):
    """The nodes of the grid's prefix r <= t + R + 2 dr at time t, or the whole
    grid when the cone is not enforced."""
    nodes = state.r.size
    if not state.grid.enforce_cone:
        return nodes
    return min(nodes, int(math.floor((t + state.params.R) / state.dr + 2.0)) + 1)


def reference_levels(state):
    """Yield (t, u, v) at t = 0, dt, 2 dt, ... from a plain full-grid leapfrog:
    every node is updated, then the nodes past r = t + R + 2 dr are zeroed."""
    params, grid, r = state.params, state.grid, state.r
    n, dr, dt = params.n, state.dr, state.dt
    b1, b2 = state.b1, state.b2

    def sources(u, v):
        if grid.linear_mode:
            return np.zeros_like(u), np.zeros_like(v)
        return np.abs(v) ** float(params.p), np.abs(u) ** float(params.q)

    def lap(u):
        out = np.zeros_like(u)
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dr ** 2
        if n > 1:
            out[1:-1] += (n - 1) * (u[2:] - u[:-2]) / (2.0 * dr * r[1:-1])
        out[0] = n * 2.0 * (u[1] - u[0]) / dr ** 2
        return out

    def cone(t, u, v):
        start = cone_window(state, t)
        u[start:] = 0.0
        v[start:] = 0.0

    u_prev, v_prev, ut, vt = state.u_init, state.v_init, state.ut_init, state.vt_init
    yield 0.0, u_prev, v_prev
    su, sv = sources(u_prev, v_prev)
    u = u_prev + dt * ut + 0.5 * dt * dt * (lap(u_prev) - b1.b(0.0) * ut + su)
    v = v_prev + dt * vt + 0.5 * dt * dt * (lap(v_prev) - b2.b(0.0) * vt + sv)
    t = dt
    cone(t, u, v)
    while True:
        yield t, u, v
        with np.errstate(over="ignore", invalid="ignore"):
            su, sv = sources(u, v)
            h1, h2 = 0.5 * b1.b(t) * dt, 0.5 * b2.b(t) * dt
            u_new = (2.0 * u - u_prev + h1 * u_prev + dt * dt * (lap(u) + su)) / (1.0 + h1)
            v_new = (2.0 * v - v_prev + h2 * v_prev + dt * dt * (lap(v) + sv)) / (1.0 + h2)
        u_new[-1] = v_new[-1] = 0.0
        u_prev, u, v_prev, v = u, u_new, v, v_new
        t += dt
        cone(t, u, v)


def run_with_snapshots(params, profiles, data, grid, snapshot_every, stream=None,
                       sample_every=1, sim=simulator):
    """A sampled run, its trace, and copies (t, u, v) of its fields every
    snapshot_every steps, collected by an observer that then hands the state on to
    the critical stream, if any."""
    snapshots = []

    def observe(state):
        snapshots.append((state.t, state.u.copy(), state.v.copy()))
        if stream is not None:
            stream(state)

    return (*sampled_run(params, profiles, data, grid, (snapshot_every, observe),
                         sample_every=sample_every, sim=sim),
            snapshots)


def critical_stream_run(params, profiles, data, grid, snapshot_every, quad_nodes=64,
                        sample_every=1, sim=simulator):
    """A run streamed through a CriticalStream every snapshot_every steps: the run,
    copies of its snapshots and the stream."""
    stream = sim.CriticalStream(params, profiles, grid, snapshot_every, quad_nodes=quad_nodes)
    res, _, snapshots = run_with_snapshots(params, profiles, data, grid, snapshot_every, stream,
                                           sample_every, sim)
    return res, snapshots, stream


def step_identity_residual(params, profiles, data, grid, sources=("Nv", "Nu"), sim=simulator):
    """The largest residual of the scheme's identity for the space averages over
    the levels k >= 1 of a run sampled at every step,

        (1 + h_k) U_(k+1) - 2 U_k + (1 - h_k) U_(k-1) = dt^2 Nv_k,  h_k = b1(t_k) dt / 2,

    relative to |U_k|, and its mirror for V with b2 and Nu; `sources` names the
    trace fields paired with U and V.  The weighted sum of the discrete Laplacian
    telescopes to zero at every n, the origin cell's weight included at n = 2."""
    _, tr = sampled_run(params, profiles, data, grid, sim=sim)
    worst = 0.0
    for F_k, source, prof in zip((tr.U, tr.V), sources, profiles):
        h = 0.5 * prof.b(tr.t[1:-1]) * grid.dt
        res = ((1.0 + h) * F_k[2:] - 2.0 * F_k[1:-1] + (1.0 - h) * F_k[:-2]
               - grid.dt ** 2 * getattr(tr, source)[1:-1])
        worst = max(worst, float(np.max(np.abs(res) / np.abs(F_k[1:-1]))))
    return worst


def reference_critical_report(result, snapshots, quad_nodes, linear=False):
    """The critical report's fields by the direct double sum: at every checked t_j
    the data terms, plus the kernel summed against the source of every snapshot
    s_i <= t_j with the trapezoid weights of the prefix s_0..s_j, in O(S^2 K).
    The weighted averages read the field as the stream does: Phi over the cone
    window times the four weighted fields u W, v W, |u|^q W, |v|^p W. A linear
    run has no source."""
    state = result.state
    params, W = state.params, state.weights
    cfgs = [KernelConfig(1.0, params.R, r, quad_nodes)
            for r in critical_kernel_orders(params.n, params.p, params.q)]
    s_times, u_snaps, v_snaps = (np.array(column) for column in zip(*snapshots))
    d = np.diff(s_times)
    half, mid = 0.5 * d, 0.5 * (d[1:] + d[:-1])
    p, q = float(params.p), float(params.q)

    def weighted_fields(quad, j):
        m = cone_window(state, s_times[j])
        u, v = u_snaps[j], v_snaps[j]
        z = np.stack([u * W, v * W, np.power(np.abs(u), q) * W, np.power(np.abs(v), p) * W],
                     axis=1)
        return quad.phi_mat[:, :m] @ z[:m]

    def component(cfg, col, own, partner, power, init, init_t, profile):
        quad = KernelQuadrature(cfg, params.n, state.r)
        src = quad.phi_mat @ (np.abs(partner) ** power * W).T * (not linear)
        d0, d1 = quad.phi_mat @ (W * init), quad.phi_mat @ (W * init_t)
        lam, l1 = quad.lam, profile.l1
        lhs, rhs = [], []
        for j in range(1, s_times.size):
            tc = s_times[j]
            decay = quad.decay(tc)
            lhs.append(float(decay @ weighted_fields(quad, j)[:, col]))
            data0 = math.exp(-l1) * float((decay * np.cosh(lam * tc)) @ d0)
            data1 = math.exp(-2.0 * l1) * tc * float((decay * sinhc(lam * tc)) @ d1)
            sub = s_times[: j + 1]
            kernel = decay[:, None] * sinhc(np.outer(lam, tc - sub))
            inner = np.einsum("ki,ki->i", kernel, src[:, : j + 1])
            trap_w = np.concatenate((half[:1], mid[: j - 1], half[j - 1 : j]))
            source = math.exp(-2.0 * l1) * float(np.sum(trap_w * (tc - sub) * inner))
            rhs.append(data0 + data1 + source)
        return np.asarray(lhs), np.asarray(rhs)

    u = component(cfgs[0], 0, u_snaps, v_snaps, p, state.u_init, state.ut_init, state.b1)
    v = component(cfgs[1], 1, v_snaps, u_snaps, q, state.v_init, state.vt_init, state.b2)
    (lhs_1, rhs_1), (lhs_2, rhs_2) = (u, v) if p >= q else (v, u)
    t = s_times[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(t > 1.5, lhs_1 / np.log(2.0 * t / 3.0), math.nan)
    return {"t_checked": t, "weighted_u": lhs_1, "weighted_v": lhs_2, "rhs_u": rhs_1,
            "rhs_v": rhs_2, "log_ratio": log_ratio}


def bump(x):
    """The built-in data profile at R = 1, (1 - x^2)^4 on |x| < 1, even in x."""
    x = np.abs(x)
    return np.where(x < 1.0, (1.0 - np.minimum(x, 1.0) ** 2) ** 4, 0.0)


def bump_integral(x):
    """The integral of the bump from 0 to x, odd in x."""
    y = np.clip(x, -1.0, 1.0)
    return y - 4.0 * y ** 3 / 3.0 + 6.0 * y ** 5 / 5.0 - 4.0 * y ** 7 / 7.0 + y ** 9 / 9.0


def linear_free_wave(n, dr, data, t=5.0, sim=simulator):
    """The state at t of an undamped linear run on the whole grid: u and v are
    free waves of their own data."""
    grid = GridConfig(dr=dr, horizon=t, linear_mode=True, enforce_cone=False)
    params = SystemParams(n, Fraction(2), Fraction(2), R=1.0, eps=1.0)
    zero = DampingProfile.zero()
    return sim.run_until_blowup(params, (zero, zero), data, grid).state


def free_wave_error(n, dr, speed, sim=simulator):
    """The sup error at t = 5 of u and v, both with the bump data (1, speed),
    against the closed-form free wave: d'Alembert at n = 1, with the speed's
    integral over [r - t, r + t]; at n = 3 (zero speed) (W(r + t) + W(r - t)) / (2r)
    with W(x) = x u0(|x|), and W'(t) at the origin, which vanishes once t > R."""
    state = linear_free_wave(n, dr, InitialData(1.0, speed, 1.0, speed), sim=sim)
    r, t = state.r, state.t
    if n == 1:
        exact = (0.5 * (bump(r + t) + bump(r - t))
                 + 0.5 * speed * (bump_integral(r + t) - bump_integral(r - t)))
    else:
        w = (r + t) * bump(r + t) + (r - t) * bump(r - t)
        exact = np.divide(w, 2.0 * r, out=np.zeros_like(r), where=r > 0)
    return float(max(np.max(np.abs(state.u - exact)), np.max(np.abs(state.v - exact))))
