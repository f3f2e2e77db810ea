"""Independent oracles used by the tests.

Everything here is deliberately written against first principles (kernel
matrices, brute-force enumeration, closed-form Gaussians) rather than through
the package's solver machinery, so the tests compare two genuinely different
routes to the same quantity.
"""

import itertools

import numpy as np


def exact_heat_kernel(grid, t: float) -> np.ndarray:
    """Mass transition matrix of free diffusion using the exact Gaussian kernel."""
    x = grid.centers
    return np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * t)) * grid.dx \
        / np.sqrt(2.0 * np.pi * t)


def ipfp_cost(mu_in, mu_fin, t: float, *, tol: float = 1e-13,
              max_iters: int = 20000) -> float:
    """Classical bridge cost by iterative proportional fitting.

    Scales the exact heat kernel to the two marginals and returns the
    relative entropy of the fitted coupling against the reference joint law.
    """
    grid = mu_in.grid
    a = mu_in.values * grid.dx
    b = mu_fin.values * grid.dx
    kernel = exact_heat_kernel(grid, t)
    u = np.ones_like(a)
    v = np.ones_like(b)
    for _ in range(max_iters):
        u = a / np.maximum(kernel.T @ v, 1e-300)
        ku = kernel @ u
        if np.max(np.abs(v * ku - b)) <= tol:
            break
        v = b / np.maximum(ku, 1e-300)
    # KL(pi | a x K) with pi = diag(v) K diag(u): the kernel factors cancel.
    live_a = a > 0
    cost = float(np.sum(a[live_a] * np.log(u[live_a] / a[live_a])))
    live_b = b > 0
    cost += float(np.sum(b[live_b] * np.log(np.maximum(v[live_b], 1e-300))))
    return cost


def brute_force_path_distance(pos_a: np.ndarray, pos_b: np.ndarray) -> float:
    """Exact empirical path distance by enumerating all pairings (N <= 6)."""
    n = pos_a.shape[0]
    assert n <= 6, "enumeration guard"
    cost = np.max(np.abs(pos_a[:, None, :] - pos_b[None, :, :]), axis=2)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return float(best)


def empirical_density_w1(samples: np.ndarray, density) -> float:
    """Exact 1-Wasserstein distance between an empirical measure and a
    piecewise-constant density, by integrating the CDF gap between all
    breakpoints (sample points and cell edges)."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    edges = density.grid.edges
    cdf_at_edges = density.cdf_at_edges()
    breaks = np.unique(np.concatenate([samples, edges]))
    lo = min(breaks[0], edges[0]) - 1.0
    hi = max(breaks[-1], edges[-1]) + 1.0
    breaks = np.concatenate([[lo], breaks, [hi]])
    total = 0.0
    for left, right in zip(breaks[:-1], breaks[1:]):
        if right <= left:
            continue
        f_emp = np.searchsorted(samples, left, side="right") / n
        # density CDF is piecewise linear; integrate |linear - const| exactly
        ca = np.interp(left, edges, cdf_at_edges)
        cb = np.interp(right, edges, cdf_at_edges)
        ga, gb = ca - f_emp, cb - f_emp
        width = right - left
        if ga * gb >= 0:
            total += 0.5 * abs(ga + gb) * width
        else:
            cross = width * abs(ga) / (abs(ga) + abs(gb))
            total += 0.5 * (abs(ga) * cross + abs(gb) * (width - cross))
    return float(total)


def gaussian_entropy_integral(std: float) -> float:
    """Closed form of the p log p integral for a Gaussian density."""
    return -0.5 * np.log(2.0 * np.pi * std**2) - 0.5


def gaussian_relative_free_energy(kappa: float, variance: float) -> float:
    """Free-energy gap of a centered Gaussian to the equilibrium, quadratic kernel."""
    s = 2.0 * kappa * variance
    return 0.5 * (s - 1.0 - np.log(s))


def mkv_gaussian_variance(kappa: float, v0: float, t: float) -> float:
    """Variance flow of the self-interacting diffusion from a Gaussian start."""
    v_inf = 1.0 / (2.0 * kappa)
    return v_inf + (v0 - v_inf) * np.exp(-2.0 * kappa * t)


def kernel_derivative(spec: dict):
    """W' of a potential spec, written out from its closed form."""
    if spec["kind"] == "zero":
        return lambda z: 0.0 * z
    if spec["kind"] == "quadratic":
        return lambda z: spec["kappa"] * z
    a, s = spec["amplitude"], spec["width"]  # W(z) = a (1 - exp(-z^2 / 2 s^2))
    return lambda z: a * z / s**2 * np.exp(-z**2 / (2.0 * s**2))


def dense_drift(spec: dict, x: np.ndarray) -> np.ndarray:
    """-(1/N) sum_j W'(x_i - x_j), summed over every ordered pair (i, j)."""
    dw = kernel_derivative(spec)
    return np.array([-sum(dw(xi - xj) for xj in x) for xi in x]) / x.size
