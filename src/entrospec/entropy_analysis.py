"""Exact Gaussian information identities: KL divergences, block mutual
information, memory/independence criteria, the Pinsker rate and the
dyadic decomposition of the entropy rate.

Everything here reduces to r(0), the Szego integral and log-determinant
prefix sums of one shared Levinson factorization per model.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import RateNotFinite
from .gaussian_model import LOG_2PI, GaussianProcessModel
from .spectral import NEG_INF

MARKOV_MAX_P = 4  # a report's Markov defects are for p = 1..MARKOV_MAX_P
DYADIC_LEVELS = 8  # and its dyadic terms I(2^p, 2^p) for p = 0..DYADIC_LEVELS


def kl_to_standard_gaussian(model: GaussianProcessModel, n: int) -> float:
    """KL of the n-block law to the standard Gaussian:
    (1/2)(trace R_n - n - log det R_n)."""
    return 0.5 * (n * model.r0 - n - model.log_det(n))


def kl_to_marginal_product(model: GaussianProcessModel, n: int) -> float:
    """KL of the n-block law to the product of its own marginals:
    (1/2)(n log r(0) - log det R_n)."""
    return 0.5 * (n * math.log(model.r0) - model.log_det(n))


def block_mutual_information(model: GaussianProcessModel, n: int, p: int) -> float:
    """I(n, p) = H_n + H_p - H_{n+p} = (1/2)(D_n + D_p - D_{n+p})."""
    fact = model.factorization(n + p)
    return 0.5 * (fact.log_det(n) + fact.log_det(p) - fact.log_det(n + p))


def markov_defect(model: GaussianProcessModel, p: int) -> float:
    """(H_{p+1} - H_p) - Se >= 0; zero exactly for memory-p processes.  At
    p = 0 it is the independence defect H_1 - Se, zero exactly for white
    densities."""
    se = model.entropy_rate()
    if se == NEG_INF:
        raise RateNotFinite("markov defect undefined for Se = -inf")
    return model.block_entropy(p + 1) - model.block_entropy(p) - se


def pinsker_entropy_rate(model: GaussianProcessModel) -> float:
    """Entropy rate relative to the independent standard Gaussian:
    lim (1/n) KL(block || standard) = (1/2)(r(0) - 1 - int log f)."""
    s = model.szego_integral()
    if s == NEG_INF:
        return math.inf
    return 0.5 * (model.r0 - 1.0 - s)


def dyadic_decomposition(model: GaussianProcessModel, max_level: int):
    """Partial sums of the dyadic mutual-information series and the rate
    reconstructed from them.

    Returns (terms, se_reconstructed, residual) where
    terms[p] = I(2^p, 2^p) for p = 0..max_level and
    se_rec = (1/2)(log 2pi + r(0)) - KL_1 - (1/2) sum 2^{-p} terms[p].
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
        - kl_to_standard_gaussian(model, 1)
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
    mi_table: np.ndarray  # (len(n_grid), len(n_grid)): I(n, p)
    markov_defects: np.ndarray
    independence: float
    pinsker: float
    dyadic_terms: np.ndarray
    dyadic_residual: float

    @classmethod
    def build(cls, model: GaussianProcessModel, n_grid):
        n_grid = sorted(int(n) for n in n_grid)
        h_n = np.array([model.block_entropy(n) for n in n_grid])
        kl_g = np.array([kl_to_standard_gaussian(model, n) for n in n_grid])
        kl_p = np.array([kl_to_marginal_product(model, n) for n in n_grid])
        mi = np.array(
            [[block_mutual_information(model, n, p) for p in n_grid] for n in n_grid]
        )
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
            mi_table=mi,
            markov_defects=defects,
            independence=markov_defect(model, 0),
            pinsker=pinsker_entropy_rate(model),
            dyadic_terms=terms,
            dyadic_residual=residual,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,H_n,H_n_over_n,KL_gauss,KL_prod\n")
        for i, n in enumerate(self.n_grid):
            buf.write(
                f"{n},{float(self.h_n[i])!r},{float(self.h_n[i] / n)!r},"
                f"{float(self.kl_gauss[i])!r},{float(self.kl_prod[i])!r}\n"
            )
        return buf.getvalue()

    def mi_to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,p,mutual_information\n")
        for i, n in enumerate(self.n_grid):
            for j, p in enumerate(self.n_grid):
                buf.write(f"{n},{p},{float(self.mi_table[i, j])!r}\n")
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model_id,
                "se": self.se,
                "r0": self.r0,
                "n_grid": list(self.n_grid),
                "H_n": self.h_n.tolist(),
                "KL_gauss": self.kl_gauss.tolist(),
                "KL_prod": self.kl_prod.tolist(),
                "markov_defects": self.markov_defects.tolist(),
                "independence_defect": self.independence,
                "pinsker_rate": self.pinsker,
                "dyadic_terms": self.dyadic_terms.tolist(),
                "dyadic_residual": self.dyadic_residual,
            },
            indent=2,
        )
