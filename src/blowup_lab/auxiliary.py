"""Auxiliary machinery for the critical case: the exponential eigenfunction
of the Laplacian, the weight kernels built from it, empirical fits of their
lower/upper bound constants, and the fundamental pair of solutions of the
damped modal ODE  y'' + b(t) y' - lambda^2 y = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from blowup_lab.damping import DampingProfile

#: the node budget of one grid, a simulator run's or a modal RK4 solve's (README)
MAX_NODES = 2 ** 20
#: the kernels' budgets (README): Gauss-Legendre nodes, whose rule costs O(K^3), and the
#: values of Phi one KernelQuadrature holds (times phi_eval's polar nodes for n >= 4)
MAX_QUAD_NODES, MAX_PHI_VALUES = 2 ** 11, 2 ** 22

#: bracket weight <y> = 3 + |y| used in all kernel bound statements
def bracket(y):
    return 3.0 + np.abs(y)


@lru_cache(maxsize=64)
def _leggauss(nnodes: int):
    return np.polynomial.legendre.leggauss(nnodes)


def _gl_nodes(a: float, b: float, nnodes: int):
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _leggauss(nnodes)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^d in R^(d+1)."""
    try:
        return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
    except OverflowError:
        raise ValueError(f"dimension too large: |S^{d}| is out of float range") from None


def ball_volume(n: int) -> float:
    try:
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    except OverflowError:
        raise ValueError(f"dimension too large: |B^{n}| is out of float range") from None


#: past this |rho| the first polar node's e^(rho cos theta_1) overflows, so the
#: quadrature is inf at any node count; the node rule stops growing here
_PHI_NODE_RHO_MAX = 750.0


def phi_eval(n: int, rho):
    """Positive radial eigenfunction of the Laplacian (Delta Phi = Phi), the
    integral of e^(omega . x) over the unit sphere,
    (2 pi)^(n/2) rho^(1-n/2) I_(n/2-1)(rho).

    Closed forms for n <= 3: e^rho + e^(-rho), 2 pi I_0(rho), 4 pi sinh(rho)/rho.
    n >= 4: the 1-d polar integral by Gauss-Legendre quadrature; the node
    count grows with |rho| (up to the overflow point) so the quadrature stays
    spectral out to large arguments.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if n == 1:
        out = np.exp(rho_arr) + np.exp(-rho_arr)
    elif n <= 3:
        # i0(inf) and sinh(inf)/inf are nan; Phi grows like e^|rho|
        with np.errstate(invalid="ignore"):
            out = 2.0 * math.pi * np.i0(rho_arr) if n == 2 else 4.0 * math.pi * sinhc(rho_arr)
        out[np.isinf(rho_arr)] = np.inf
    else:
        # the node rule is taken over the non-NaN arguments; a NaN gives nan
        rmax = float(np.max(np.abs(rho_arr), initial=0.0, where=~np.isnan(rho_arr)))
        theta, w = _gl_nodes(0.0, math.pi, _polar_nodes(rmax))
        weight = w * np.sin(theta) ** (n - 2)
        out = sphere_area(n - 2) * (np.exp(np.outer(rho_arr, np.cos(theta))) @ weight)
    return out.reshape(np.shape(rho)) if np.ndim(rho) else float(out[0])


def _polar_nodes(rho_max: float) -> int:
    """phi_eval's polar node count (n >= 4) for arguments up to rho_max."""
    return max(64, int(0.8 * min(rho_max, _PHI_NODE_RHO_MAX)) + 32)


def sinhc(z):
    """sinh(z)/z, and 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    out = np.divide(np.sinh(z), z, out=np.ones_like(z), where=z != 0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KernelConfig:
    """Quadrature setup for the lambda-integrals defining the kernels.

    lambda0: integration cutoff (the theory only asserts one exists; the
    default 1.0 is a choice, and the bound fits are re-estimated per cutoff).
    order: kernel exponent r > -1.  For r in (-1, 0) the endpoint singularity
    of lambda^r is removed by the substitution lambda = u^(1/(r+1)).
    """

    lambda0: float = 1.0
    R: float = 1.0
    order: float = 0.0
    quad_nodes: int = 64

    def __post_init__(self):
        if self.lambda0 <= 0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        if self.order <= -1:
            raise ValueError(f"kernel order must be > -1, got {self.order}")
        if self.quad_nodes < 4:
            raise ValueError(f"need at least 4 quadrature nodes, got {self.quad_nodes}")
        if self.quad_nodes > MAX_QUAD_NODES:
            raise ValueError(f"{self.quad_nodes} quadrature nodes exceed the budget of "
                             f"{MAX_QUAD_NODES}")

    def nodes(self):
        """(lambda_k, w_k) such that int_0^lambda0 g(l) l^r dl ~= sum w_k g(lambda_k)."""
        r = self.order
        if -1.0 < r < 0.0:
            u, w = _gl_nodes(0.0, self.lambda0 ** (r + 1.0), self.quad_nodes)
            lam = u ** (1.0 / (r + 1.0))
            return lam, w / (r + 1.0)
        lam, w = _gl_nodes(0.0, self.lambda0, self.quad_nodes)
        return lam, w * lam ** r


class KernelQuadrature:
    """Kernel evaluator over a fixed set of radii.

    Precomputes the lambda nodes and the eigenfunction matrix Phi(lambda_k r_i)
    once, so repeated evaluations at many (t, s) cost a single matrix-vector
    product each.
    """

    def __init__(self, cfg: KernelConfig, n: int, radii):
        self.cfg = cfg
        self.radii = np.atleast_1d(np.asarray(radii, dtype=float))
        self.lam, self.w = cfg.nodes()
        rho = np.outer(self.lam, self.radii)
        self.phi_mat = np.asarray(phi_eval(n, rho))

    def decay(self, t: float) -> np.ndarray:
        """The lambda-weights w_k e^(-lambda_k (t + R)) that every kernel at time t carries."""
        return self.w * np.exp(-self.lam * (t + self.cfg.R))

    def rotation(self, h):
        """e^(-lambda h) (cosh, sinhc)(lambda h) per lambda node, h >= 0, as 1 + em/2 and
        -em/(2 lambda h), em = expm1(-2 lambda h): in [0, 1] at any h. Arrays of h add axes."""
        z = -2.0 * np.multiply.outer(h, self.lam)
        em = np.expm1(z)
        return 1.0 + 0.5 * em, np.divide(em, z, out=np.ones_like(z), where=z != 0)

    def xi(self, t) -> np.ndarray:
        """xi_r(t, x) over the radii; an array of t adds leading axes."""
        if np.any(np.asarray(t) < 0):
            raise ValueError("xi requires t >= 0")
        return (self.decay(0.0) * self.rotation(t)[0]) @ self.phi_mat

    def eta(self, t, s: float) -> np.ndarray:
        """eta_r(t, s, x) over the radii; an array of t adds leading axes."""
        if np.any(np.asarray(t) < s) or s < 0:
            raise ValueError("eta requires t >= s >= 0")
        return (self.decay(s) * self.rotation(np.subtract(t, s))[1]) @ self.phi_mat


@dataclass(frozen=True)
class KernelBoundFit:
    """Empirical constants for the kernel bounds, fitted on finite grids.

    All four must come out finite and positive for the predicted bounds to
    hold on the sampled domain; they are estimates, not proofs.
    """

    a0: float
    b0: float
    b1: float
    b2: float
    grid_spec: str

    def all_positive(self) -> bool:
        vals = (self.a0, self.b0, self.b1, self.b2)
        return all(math.isfinite(v) and v > 0 for v in vals)


def check_kernel_config(cfg: KernelConfig, n: int, radii: float, r_max: float) -> float:
    """The Phi values of the kernels' quadrature over `radii` radii in [0, r_max]:
    quad_nodes x radii, times the polar nodes for n >= 4.  Raise ValueError when
    they pass MAX_PHI_VALUES, or for kernels that cannot be bounded in dimension n:
    a sphere measure out of float range, or an order r <= (n-3)/2 (the B2 bound)."""
    sphere_area(n - 1)
    if not cfg.order > (n - 3) / 2.0:
        raise ValueError(f"upper-bound fit needs order r > (n-3)/2 = {(n - 3) / 2.0}, "
                         f"got {cfg.order}")
    values = cfg.quad_nodes * radii * (_polar_nodes(cfg.lambda0 * r_max) if n >= 4 else 1)
    if not values <= MAX_PHI_VALUES:
        raise ValueError(f"{values:.4g} kernel values exceed the budget of {MAX_PHI_VALUES}")
    return values


def fit_kernel_bounds(cfg: KernelConfig, n: int, t_grid, x_points: int = 9) -> KernelBoundFit:
    """Fit (A0, B0, B1, B2) over a sampled t-grid, which is also the s-grid.

    A0 = min xi(t, x) and B0 = min eta(t, 0, x) <t> over t-grid and |x| <= R;
    B1 = min eta(t, s, x) <t> <s>^r over t > s and |x| <= s + R;
    B2 = max eta(t, t, x) <t>^((n-1)/2) <t-|x|>^(r-(n-3)/2) over |x| <= t + R.
    The B2 fit requires r > (n-3)/2. A NaN sample, or no sample, makes a constant NaN.
    """
    r = cfg.order
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    check_kernel_config(cfg, n, x_points, cfg.R + np.max(t_grid, initial=0.0))

    quad_R = KernelQuadrature(cfg, n, np.linspace(0.0, cfg.R, x_points))
    a0 = np.min(quad_R.xi(t_grid))
    # min over x before the brackets: they are positive and rounding is monotone, so exact
    b0 = np.min(np.min(quad_R.eta(t_grid, 0.0), axis=1) * bracket(t_grid))

    slices_s = ((s, t_grid[t_grid > s], np.linspace(0.0, s + cfg.R, x_points)) for s in t_grid)
    b1 = np.min([np.min(np.min(KernelQuadrature(cfg, n, xs).eta(t, s), axis=1) * bracket(t))
                 * bracket(s) ** r for s, t, xs in slices_s if t.size] or [math.nan])
    slices_t = ((t, np.linspace(0.0, t + cfg.R, x_points)) for t in t_grid if not t <= 0)
    b2 = np.max([np.max(KernelQuadrature(cfg, n, xs).eta(t, t) * bracket(t) ** ((n - 1) / 2.0)
                        * bracket(t - xs) ** (r - (n - 3) / 2.0)) for t, xs in slices_t]
                or [math.nan])
    span = f"[{t_grid.min():g},{t_grid.max():g}]x{t_grid.size}"
    spec = f"t in {span}, s in {span}, {x_points} radii per slice, lambda0={cfg.lambda0:g}, r={r:g}"
    return KernelBoundFit(a0=float(a0), b0=float(b0), b1=float(b1), b2=float(b2), grid_spec=spec)


def critical_kernel_orders(n: int, p: float, q: float) -> tuple[float, float]:
    """Kernel exponents (r_u, r_v) of the critical-case functionals of u and v, whose
    sources are |v|^p and |u|^q: r_u = (n-1)/2 - 1/q and r_v = (n-1)/2 - 1/p.  When
    p != q, the component whose source has the smaller exponent sits 1/100 above."""
    p, q = float(p), float(q)
    return ((n - 1) / 2.0 - 1.0 / q + (0.01 if p < q else 0.0),
            (n - 1) / 2.0 - 1.0 / p + (0.01 if q < p else 0.0))


# ---------------------------------------------------------------------------
# fundamental pair of the modal ODE
# ---------------------------------------------------------------------------


@dataclass
class FundamentalPair:
    """Trajectories of the fundamental system for y'' + b y' - lambda^2 y = 0,
    normalized at the initial node: y1 = 1, y1' = 0 and y2 = 0, y2' = 1."""

    t: np.ndarray
    y1: np.ndarray
    dy1: np.ndarray
    y2: np.ndarray
    dy2: np.ndarray
    lam: float
    s: float


#: steps per block of the prefix product, which bounds its passes and
#: temporaries (chosen by measurement, README)
_SCAN_BLOCK = 2048


def solve_fundamental_pair(
    profile: DampingProfile, lam: float, s: float, t_grid
) -> FundamentalPair:
    """Integrate both initial-value problems with classic fourth-order
    Runge-Kutta along t_grid (from s, strictly increasing, lambda h <= 0.1).

    A step is linear in (y, y'): the matrix I + Q_i whose columns are its
    increments of (1, 0) and (0, 1). The pair at node i is the product of the
    steps before it, taken as increments, (I + A)(I + B) = I + (A + B + AB),
    which keeps the low bits of 1 + O(lambda^2 h^2) that a plain product
    rounds away: doubling passes within blocks of _SCAN_BLOCK steps, each
    block then taking the product before it."""
    t_grid = np.ascontiguousarray(t_grid, dtype=float)
    blocks = _step_blocks(profile, lam, s, t_grid)
    e = np.zeros((2, 2, t_grid.size))  # I + e[..., i] = [[y1, y2], [y1', y2']] at node i
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the bounds check
        for lo, blk in blocks:
            d = 1
            while d < blk.shape[-1]:
                _compose(blk[..., d:], blk[..., :-d])
                d *= 2
            if lo:
                _compose(blk, e[..., lo:lo + 1])
            e[..., lo + 1:lo + 1 + blk.shape[-1]] = blk
    e[0, 0] += 1.0
    e[1, 1] += 1.0
    return FundamentalPair(t=t_grid, y1=e[0, 0], dy1=e[1, 0], y2=e[0, 1], dy2=e[1, 1], lam=lam, s=s)


def _pair_at_end(profile: DampingProfile, lam: float, s: float, t_grid) -> np.ndarray:
    """[[y1, y2], [y1', y2']] at t_grid's last node, bit for bit solve_fundamental_pair's:
    the same products in the same order, but only those that node reads. Within a block of
    L steps, doubling pass d reads the nodes L-1, L-1-2d, ... (those >= d) and their partners
    L-1-d, L-1-3d, ...: two disjoint strided sets, composed in place."""
    blocks = _step_blocks(profile, lam, s, np.ascontiguousarray(t_grid, dtype=float))
    carry = None
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the identity check
        for _, blk in blocks:
            last, d = blk.shape[-1] - 1, 1
            while d <= last:
                _compose(blk[..., last:d - 1:-2 * d], blk[..., last - d::-2 * d])
                d *= 2
            if carry is not None:
                _compose(blk[..., last:], carry)
            carry = blk[..., last:]
    end = carry[..., 0]
    end[0, 0] += 1.0
    end[1, 1] += 1.0
    return end


def _step_blocks(profile, lam, s, t_grid):
    """The block loop of both products: check lambda and t_grid and evaluate b at the three
    stage times of every step, then iterate over the blocks of up to _SCAN_BLOCK steps as
    (their first step, the (2, 2, steps) array of their RK4 increments)."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    h = np.diff(t_grid)
    if t_grid.size < 2 or not np.all(h > 0):
        raise ValueError("t_grid must be strictly increasing with >= 2 nodes")
    if lam * h.max() > 0.1:
        raise ValueError(f"step too large for accuracy: |lambda| h = {lam * h.max():g} > 0.1")
    if abs(t_grid[0] - s) > 1e-14:
        raise ValueError("t_grid must start at s")
    t0 = t_grid[:-1]
    steps = [h] + [profile.b(tt) for tt in (t0, t0 + 0.5 * h, t0 + h)]  # b at each stage time
    return ((lo, _step_increments(lam * lam, *(a[lo:lo + _SCAN_BLOCK] for a in steps)))
            for lo in range(0, h.size, _SCAN_BLOCK))


def _compose(later, earlier):
    """later <- the increment of (I + later)(I + earlier), 2x2 over axes 0, 1."""
    prod = np.einsum("ijn,jkn->ikn", later, earlier)
    prod += earlier
    later += prod


def _step_increments(lam2, h, b_start, b_mid, b_end):
    """q[:, j, i], step i's classic RK4 increment of (y, y') from (1, 0) for
    j = 0 and from (0, 1) for j = 1."""
    q = np.empty((2, 2, h.size))
    half, sixth = 0.5 * h, h / 6.0
    for j, (y, dy) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        k1y, k1d = dy, lam2 * y - b_start * dy
        y2, d2 = y + half * k1y, dy + half * k1d
        k2y, k2d = d2, lam2 * y2 - b_mid * d2
        y3, d3 = y + half * k2y, dy + half * k2d
        k3y, k3d = d3, lam2 * y3 - b_mid * d3
        y4, d4 = y + h * k3y, dy + h * k3d
        k4y, k4d = d4, lam2 * y4 - b_end * d4
        q[0, j] = sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        q[1, j] = sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    return q


#: the modal checks' one tolerance: relative bound slacks >= -tol, identity residuals <= tol
IDENTITY_TOL = 1e-6


@dataclass(frozen=True)
class FundamentalReport:
    slack1_min: float
    slack2_min: float
    identity4_residual: float

    def ok(self) -> bool:
        return (self.slack1_min >= -IDENTITY_TOL and self.slack2_min >= -IDENTITY_TOL
                and self.identity4_residual <= IDENTITY_TOL)


#: the identity checks' difference step in s (scaled by min(1, 1/lambda), so
#: its O((lambda delta)^2) error stays put) and the (v) re-solves' RK4 step
IDENTITY_DELTA, IDENTITY_STEP = 5e-4, 1e-4


def _resolve_y2_at(profile, lam, s_start, t_end, h):
    """y2(t_end) of the pair started at s_start, on nodes about h apart."""
    nodes = max(2, int(round((t_end - s_start) / h)) + 1)
    return _pair_at_end(profile, lam, s_start, np.linspace(s_start, t_end, nodes))[0, 1]


def _identity_residual(profile, lam, s, t, y1, y2, h):
    """Relative residual of the boundary identity y1(t, s) = b(s) y2(t, s) - d/ds y2(t, s):
    d/ds y2 by a one-sided second-order difference of step d, forward (d > 0) from s < t and
    back (d < 0) from s = t, y2 re-solved on steps about h; NaN if s + 2d leaves [0, t)."""
    d = IDENTITY_DELTA * min(1.0, 1.0 / lam) * (1.0 if s < t else -1.0)
    if not 0.0 <= s + 2.0 * d < t:
        return math.nan
    y2_d = _resolve_y2_at(profile, lam, s + d, t, h)
    y2_2d = _resolve_y2_at(profile, lam, s + 2.0 * d, t, h)
    ds_y2 = (-3.0 * y2 + 4.0 * y2_d - y2_2d) / (2.0 * d)
    rhs = profile.b(s) * y2 - ds_y2
    return float(abs(y1 - rhs) / max(abs(y1), 1.0))


def fundamental_identity_v(profile: DampingProfile, lam: float, t: float) -> float:
    """Residual of item (v), d/ds y2(t, s) = -1 at s = t: the boundary identity
    where y1 = 1 and y2 = 0."""
    return _identity_residual(profile, lam, t, t, 1.0, 0.0, IDENTITY_STEP)


def _slack_min(y, env):
    return float(np.min((y - env) / np.maximum(np.abs(env), 1.0)))


@np.errstate(over="ignore", invalid="ignore")  # an overflow reads as a violation
def verify_fundamental_bounds(pair: FundamentalPair, profile: DampingProfile) -> FundamentalReport:
    """Node-wise check of the exponential lower bounds
    y1 >= e^(-l1) cosh(lambda (t-s)) and y2 >= e^(-2 l1) sinh(lambda (t-s))/lambda,
    plus item (iv), the boundary identity at the last node and the pair's start s."""
    tau = pair.t - pair.s
    l1 = profile.l1
    slack_min1 = _slack_min(pair.y1, math.exp(-l1) * np.cosh(pair.lam * tau))
    slack_min2 = _slack_min(pair.y2, math.exp(-2.0 * l1) * tau * sinhc(pair.lam * tau))
    del tau  # the re-solves below need the memory
    id4 = _identity_residual(profile, pair.lam, pair.s, float(pair.t[-1]), pair.y1[-1],
                             pair.y2[-1], float(np.max(np.diff(pair.t))))
    return FundamentalReport(slack1_min=slack_min1, slack2_min=slack_min2, identity4_residual=id4)
