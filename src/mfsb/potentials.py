"""Symmetric pair interaction potentials and their action on densities.

The library covers three kernels: ``zero`` (free diffusion), ``quadratic``
kappa*z^2/2 (uniformly convex, closed-form oracles) and ``gaussian-well``
a*(1 - exp(-z^2/2s^2)) (bounded Hessian, not convex).

``InteractionPotential`` is the one kernel interface.  Its grid actions
(``force``, ``force_adjoint``, ``potential``, ``hessian_term``) take one
density or a stack of density rows and are direct double sums over pairwise
tables of w, dw and d2w; at the grid sizes used here that is cheap and
avoids periodic wrap-around artifacts on the truncated domain.  ``drift``
is the empirical particle counterpart of ``force``: the self-interaction of
one particle cloud, with each pair's W' evaluated once in cache-sized row
blocks, since W' is odd.

To add a potential, write one subclass that supplies ``w``, ``dw``, ``d2w``
and ``to_spec``, plus a constructor and its ``from_spec`` entry.  Closed
forms are optional: a subclass may override any grid action, as the
quadratic kernel does where its double sums telescope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import Density, SpatialGrid, real_number


def _positive(kind: str, name: str, value) -> float:
    value = real_number(name, value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{kind} potential needs finite {name} > 0, got {value}")
    return value


@dataclass(frozen=True)
class InteractionPotential:
    """Pair potential W with derivatives and curvature bounds.

    kappa is a certified convexity lower bound of W'' (zero when no positive
    bound holds); hess_sup is an upper bound of W''.  Both have units 1/time^2.
    """

    kappa: float
    hess_sup: float
    params: tuple = field(default=())

    @classmethod
    def zero(cls) -> "InteractionPotential":
        return _Quadratic(0.0, 0.0)

    @classmethod
    def quadratic(cls, kappa: float) -> "InteractionPotential":
        kappa = _positive("quadratic", "kappa", kappa)
        return _Quadratic(kappa, kappa)

    @classmethod
    def gaussian_well(cls, amplitude: float, width: float) -> "InteractionPotential":
        amplitude = _positive("gaussian-well", "amplitude", amplitude)
        width = _positive("gaussian-well", "width", width)
        # W''(0) = a/s^2 is the Hessian peak; no positive convexity bound exists.
        return _GaussianWell(0.0, amplitude / width**2, (amplitude, width))

    @classmethod
    def from_spec(cls, spec: dict) -> "InteractionPotential":
        kind = spec.get("kind")
        if kind == "zero":
            return cls.zero()
        if kind == "quadratic":
            return cls.quadratic(spec["kappa"])
        if kind == "gaussian-well":
            return cls.gaussian_well(spec["amplitude"], spec["width"])
        raise ValueError(f"unknown potential kind: {kind!r}")

    def to_spec(self) -> dict:
        raise NotImplementedError

    def w(self, z):
        raise NotImplementedError

    def dw(self, z):
        raise NotImplementedError

    def d2w(self, z):
        raise NotImplementedError

    def _table(self, name: str, grid: SpatialGrid) -> np.ndarray:
        """Pairwise matrix of w, dw or d2w at x_i - x_j over the cell centers."""
        x = grid.centers
        return getattr(self, name)(x[:, None] - x[None, :])

    def force(self, mu: np.ndarray, grid: SpatialGrid) -> np.ndarray:
        """Interaction force W' * mu at the cell centers."""
        return (mu * grid.dx) @ self._table("dw", grid).T

    def force_adjoint(self, rho: np.ndarray, grid: SpatialGrid) -> np.ndarray:
        """Adjoint of mu -> force(mu): maps weights rho on the force to dmu."""
        return grid.dx * (rho @ self._table("dw", grid))

    def potential(self, mu: np.ndarray, grid: SpatialGrid) -> np.ndarray:
        """Values of W * mu at the cell centers."""
        return (mu * grid.dx) @ self._table("w", grid).T

    def hessian_term(self, mu: np.ndarray, psi: np.ndarray,
                     grid: SpatialGrid) -> np.ndarray:
        """x -> integral of W''(x - y) (psi(x) - psi(y)) mu(dy)."""
        k = self._table("d2w", grid)
        weights = mu * grid.dx
        return psi * (weights @ k.T) - (psi * weights) @ k.T

    def drift(self, x: np.ndarray, block: int) -> np.ndarray:
        """Empirical drift -(1/N) sum_j W'(x_i - x_j) of the cloud x on itself.

        Row block [lo, hi) evaluates W' once on x[lo:hi] - x[lo:]: its row
        sums go to rows lo:hi and, W' being odd, its column sums past hi are
        subtracted from rows hi:.
        """
        total = np.zeros_like(x)
        for lo in range(0, x.size, block):
            hi = min(lo + block, x.size)
            pairs = self.dw(x[lo:hi, None] - x[None, lo:])
            total[lo:hi] += pairs.sum(axis=1)
            total[hi:] -= pairs[:, hi - lo:].sum(axis=0)
        total *= -1.0 / x.size
        return total


class _Quadratic(InteractionPotential):
    """kappa*z^2/2; kappa = 0 is the zero potential.

    Every pairwise sum but W * mu telescopes against a unit-mass density
    into an affine closed form.
    """

    def to_spec(self) -> dict:
        if self.kappa > 0:
            return {"kind": "quadratic", "kappa": self.kappa}
        return {"kind": "zero"}

    def w(self, z):
        return 0.5 * self.kappa * np.asarray(z, dtype=float) ** 2

    def dw(self, z):
        return self.kappa * np.asarray(z, dtype=float)

    def d2w(self, z):
        return np.full_like(np.asarray(z, dtype=float), self.kappa)

    def force(self, mu, grid):
        x, dx = grid.centers, grid.dx
        # kappa * (x - mean); the two reduction orders are kept apart because
        # near-zero bridge costs are sensitive to their roundoff
        if mu.ndim == 1:
            return self.kappa * (x - np.sum(x * mu) * dx)
        # kappa * (x - mean), in the one array the stack's force needs
        force = np.subtract(x, (mu @ x * dx)[:, None])
        force *= self.kappa
        return force

    def force_adjoint(self, rho, grid):
        # -(kappa * dx * sum(rho) * x), in one array
        weight = self.kappa * grid.dx * np.sum(rho, axis=-1, keepdims=True)
        adjoint = np.multiply(weight, grid.centers)
        return np.negative(adjoint, out=adjoint)

    def hessian_term(self, mu, psi, grid):
        return self.kappa * (psi - np.sum(psi * (mu * grid.dx), axis=-1,
                                                keepdims=True))

    def drift(self, x, block):
        return -self.kappa * (x - x.mean())


class _GaussianWell(InteractionPotential):
    """a*(1 - exp(-z^2/2s^2)); its pairwise tables are cached per grid."""

    def to_spec(self) -> dict:
        a, s = self.params
        return {"kind": "gaussian-well", "amplitude": a, "width": s}

    def w(self, z):
        z = np.asarray(z, dtype=float)
        a, s = self.params
        return a * (1.0 - np.exp(-(z**2) / (2.0 * s**2)))

    def dw(self, z):
        # in place in one buffer: the particle drift calls this on every block
        z = np.asarray(z, dtype=float)
        a, s = self.params
        t = np.multiply(z, z, out=np.empty_like(z))  # an array even for 0-d z
        t *= -0.5 / s**2
        np.exp(t, out=t)
        t *= z
        t *= a / s**2
        return t

    def d2w(self, z):
        z = np.asarray(z, dtype=float)
        a, s = self.params
        u = (z / s) ** 2
        return (a / s**2) * (1.0 - u) * np.exp(-0.5 * u)

    @cached_property
    def _tables(self) -> dict:
        return {}

    def _table(self, name, grid):
        key = (name, grid)
        if key not in self._tables:
            table = super()._table(name, grid)
            table.setflags(write=False)
            self._tables[key] = table
        return self._tables[key]


def conv_force(pot: InteractionPotential, mu: Density) -> np.ndarray:
    """Interaction force W' * mu at the cell centers."""
    return pot.force(mu.values, mu.grid)


def interaction_energy(pot: InteractionPotential, mu: Density) -> float:
    """Double integral of W(x - y) against mu x mu."""
    return float(np.sum(pot.potential(mu.values, mu.grid) * mu.values) * mu.grid.dx)

