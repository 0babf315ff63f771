"""Exact Gaussian information identities: the relative entropy D(P || white:c)
to i.i.d. N(0, c) noise, block mutual information, memory/independence
criteria and the dyadic decomposition of the entropy rate.

c = 1 gives the KL to the standard Gaussian and the Pinsker rate, c = r(0)
the KL to the marginal product and the max-entropy gap.  Everything here
reduces to r(0), the Szego integral and log-determinant prefix sums of one
shared Levinson factorization per model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RateNotFinite
from .gaussian_model import LOG_2PI, GaussianProcessModel
from .spectral import NEG_INF

MARKOV_MAX_P = 4  # a report's Markov defects are for p = 1..MARKOV_MAX_P
DYADIC_LEVELS = 8  # and its dyadic terms I(2^p, 2^p) for p = 0..DYADIC_LEVELS


def relative_entropy(model: GaussianProcessModel, n: int, level: float) -> float:
    """D_n(P || white:c), the KL of the n-block law to N(0, c I) at c = level:
    (1/2)(n r(0)/c - n - log det R_n + n log c)."""
    return 0.5 * (n * (model.r0 / level) - n - model.log_det(n) + n * math.log(level))


def relative_entropy_rate(model, level: float) -> float:
    """lim (1/n) D_n(P || white:c) = (1/2)(r(0)/c - 1 - int log f + log c),
    +inf for a degenerate f; a separable field's is the same formula."""
    return 0.5 * (model.r0 / level - 1.0 - model.szego_integral() + math.log(level))


def block_mutual_information(model: GaussianProcessModel, n: int, p: int) -> float:
    """I(n, p) = H_n + H_p - H_{n+p} = (1/2)(D_n + D_p - D_{n+p})."""
    fact = model.factorization(n + p)
    return 0.5 * (fact.log_det(n) + fact.log_det(p) - fact.log_det(n + p))


def mutual_information_table(model: GaussianProcessModel, n_grid) -> np.ndarray:
    """I(n, p) for n (rows) and p (columns) over the grid; it factors to 2 max(n)."""
    return np.array([[block_mutual_information(model, n, p) for p in n_grid] for n in n_grid])


def markov_defect(model: GaussianProcessModel, p: int) -> float:
    """(H_{p+1} - H_p) - Se >= 0; zero exactly for memory-p processes.  At
    p = 0 it is the independence defect H_1 - Se, zero exactly for white
    densities."""
    se = model.entropy_rate()
    if se == NEG_INF:
        raise RateNotFinite("markov defect undefined for Se = -inf")
    return model.block_entropy(p + 1) - model.block_entropy(p) - se


def dyadic_decomposition(model: GaussianProcessModel, max_level: int):
    """Partial sums of the dyadic mutual-information series and the rate
    reconstructed from them.

    Returns (terms, se_reconstructed, residual) where
    terms[p] = I(2^p, 2^p) for p = 0..max_level and
    se_rec = (1/2)(log 2pi + r(0)) - D_1(P || white:1) - (1/2) sum 2^{-p} terms[p].
    """
    se = model.entropy_rate()
    if se == NEG_INF:
        raise RateNotFinite("dyadic decomposition requires a finite rate")
    terms = np.array(
        [block_mutual_information(model, 2**p, 2**p) for p in range(max_level + 1)]
    )
    weights = 0.5 ** np.arange(max_level + 1)
    se_rec = (
        0.5 * (LOG_2PI + model.r0)
        - relative_entropy(model, 1, 1.0)
        - 0.5 * float(np.dot(weights, terms))
    )
    return terms, se_rec, abs(se_rec - se)


@dataclass
class EntropyReport:
    """Self-checking identity ledger for one model."""

    model_id: str
    n_grid: list
    se: float
    r0: float
    h_n: np.ndarray
    kl_gauss: np.ndarray
    kl_prod: np.ndarray
    markov_defects: np.ndarray
    independence: float
    pinsker: float
    dyadic_terms: np.ndarray
    dyadic_residual: float

    @classmethod
    def build(cls, model: GaussianProcessModel, n_grid):
        n_grid = sorted(int(n) for n in n_grid)
        h_n = np.array([model.block_entropy(n) for n in n_grid])
        kl_g = np.array([relative_entropy(model, n, 1.0) for n in n_grid])
        kl_p = np.array([relative_entropy(model, n, model.r0) for n in n_grid])
        defects = np.array([markov_defect(model, p) for p in range(1, MARKOV_MAX_P + 1)])
        terms, _, residual = dyadic_decomposition(model, DYADIC_LEVELS)
        return cls(
            model_id=model.describe(),
            n_grid=n_grid,
            se=model.entropy_rate(),
            r0=model.r0,
            h_n=h_n,
            kl_gauss=kl_g,
            kl_prod=kl_p,
            markov_defects=defects,
            independence=markov_defect(model, 0),
            pinsker=relative_entropy_rate(model, 1.0),
            dyadic_terms=terms,
            dyadic_residual=residual,
        )
