"""Closed forms of the screening model, written independently of screenlab.

The benchmark checks the program's outputs against these.  Only numpy and
scipy are used and nothing here imports the package under test, so a defect
in screenlab cannot hide by appearing on both sides of a check.  Scores come
from the mixture form with ``scipy.stats.norm`` (the program works in log
space), thresholds from ``scipy.optimize.brentq`` (the program bisects), and
average regret from ``scipy.integrate.quad`` plus the closed-form normal tail
for the ex post term (the program uses its own Gauss-Legendre panels).
"""
from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, optimize
from scipy.stats import norm

# Share of x_q + x_u trimmed off each end of the open prejudice interval;
# part of the documented grid definition, not of the program's internals.
TAU_CLAMP_SCALE = 1e-6


class Model:
    """The Gaussian two-stage screening model of one config document."""

    def __init__(self, doc: dict):
        self.pi = float(doc["pi"])
        self.x_q = float(doc["x_q"])
        self.x_u = float(doc["x_u"])
        self.c = float(doc["c"])
        self.mu_q = np.asarray(doc["mu_q"], dtype=float)
        self.mu_u = np.asarray(doc["mu_u"], dtype=float)
        sd_t = float(doc["sigma_theta"])
        sd_g = float(doc["sigma_gamma"])
        rho = float(doc["rho"])
        self.sd_theta = sd_t
        cov = np.array([[sd_t**2, rho * sd_t * sd_g], [rho * sd_t * sd_g, sd_g**2]])
        # log f_q(x) - log f_u(x) = w.x - (mu_q + mu_u).w / 2 for a shared covariance
        w = np.linalg.solve(cov, self.mu_q - self.mu_u)
        self.w_theta, self.w_gamma = float(w[0]), float(w[1])
        self.intercept = -0.5 * float((self.mu_q + self.mu_u) @ w)
        self.cond_slope = rho * sd_g / sd_t
        self.cond_sd = sd_g * math.sqrt(1.0 - rho**2)
        self.beta = (self.x_u + self.c) / (self.x_q + self.x_u)
        eps = TAU_CLAMP_SCALE * (self.x_q + self.x_u)
        self.tau_lo = -self.x_u + eps
        self.tau_hi = self.x_q - eps
        lo_mean, hi_mean = sorted((self.mu_q[0], self.mu_u[0]))
        self.theta_lo = lo_mean - 10.0 * sd_t
        self.theta_hi = hi_mean + 10.0 * sd_t

    @classmethod
    def load(cls, path: str) -> "Model":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def tau_grid(self, count: int = 400) -> np.ndarray:
        return np.linspace(self.tau_lo, self.tau_hi, count)

    def scores(self, theta, tau) -> dict[str, np.ndarray]:
        """Every scores.csv column at the (theta, tau) pairs given."""
        theta, tau = np.broadcast_arrays(
            np.asarray(theta, dtype=float), np.asarray(tau, dtype=float)
        )
        # the reviewer accepts when the likelihood ratio exceeds this bar
        bar = (1.0 - self.pi) * (self.x_u + tau) / (self.pi * (self.x_q - tau))
        gamma1 = (np.log(bar) - self.intercept - self.w_theta * theta) / self.w_gamma
        dens_q = self.pi * norm.pdf(theta, self.mu_q[0], self.sd_theta)
        dens_u = (1.0 - self.pi) * norm.pdf(theta, self.mu_u[0], self.sd_theta)
        phi = dens_q / (dens_q + dens_u)
        mean_q = self.mu_q[1] + self.cond_slope * (theta - self.mu_q[0])
        mean_u = self.mu_u[1] + self.cond_slope * (theta - self.mu_u[0])
        surv_q = norm.sf(gamma1, mean_q, self.cond_sd)
        surv_u = norm.sf(gamma1, mean_u, self.cond_sd)
        s2 = phi * surv_q + (1.0 - phi) * surv_u
        return {
            "s1": phi * surv_q / s2,
            "s2": s2,
            "gamma1": gamma1,
            "phi": phi,
            "surv_q": surv_q,
            "surv_u": surv_u,
        }

    def score(self, algo: str, theta: float, tau: float) -> float:
        return float(self.scores(theta, tau)[algo])

    def tau_star(self, theta: float) -> float:
        """The tau where both scores agree for this theta."""
        def gap(tau):
            values = self.scores(theta, tau)
            return float(values["s1"] - values["s2"])

        return optimize.brentq(gap, self.tau_lo, self.tau_hi, xtol=1e-14)

    def expected_regret(self, algo: str, tau: float) -> float:
        """Population mean of the regret loss u when the second stage uses ``algo``.

        E[u] = E[N(s)] - E[p]: the ex ante term by adaptive quadrature, the
        ex post term in closed form over the accepted region theta > flip.
        """
        lo, hi = self.theta_lo, self.theta_hi
        sd = self.sd_theta

        def excess(theta):
            return self.score(algo, theta, tau) - self.beta

        if excess(lo) > 0.0:
            flip = lo
        elif excess(hi) <= 0.0:
            flip = hi
        else:
            flip = optimize.brentq(excess, lo, hi, xtol=1e-13)

        def ex_ante(theta):
            s = self.score(algo, theta, tau)
            mixture = self.pi * norm.pdf(theta, self.mu_q[0], sd) + (
                1.0 - self.pi
            ) * norm.pdf(theta, self.mu_u[0], sd)
            return (s * self.x_q - (1.0 - s) * self.x_u) * mixture

        expected_n = 0.0
        for a, b in ((lo, flip), (flip, hi)):
            if b > a:
                expected_n += integrate.quad(
                    ex_ante, a, b, epsabs=1e-11, epsrel=1e-11, limit=200
                )[0]

        def tail(mean):
            return norm.sf(flip, mean, sd) - norm.sf(hi, mean, sd)

        expected_p = self.x_q * self.pi * tail(self.mu_q[0]) - self.x_u * (
            1.0 - self.pi
        ) * tail(self.mu_u[0])
        return expected_n - float(expected_p)

    def tau_bar(self) -> float:
        """The tau where both scores cost the same average regret."""
        def gap(tau):
            return self.expected_regret("s2", tau) - self.expected_regret("s1", tau)

        return optimize.brentq(gap, self.tau_lo, self.tau_hi, xtol=1e-10)
