"""BO-wEI: constrained Bayesian optimization with weighted EI.

Reproduces the WEIBO-style baseline of Lyu et al. (DAC 2018) referenced by
the paper: one GP models the (normalized) objective and one GP models each
normalized constraint violation.  The acquisition blends weighted Expected
Improvement with the product of per-constraint probabilities of
feasibility; while no feasible design exists the PoF product alone drives
the search (Gelbart's rule).  Acquisition maximization uses a random pool
plus local perturbations around the incumbent.

GP fitting is cubic in the sample count — the scalability drawback the
paper attributes to BO methods appears here as rapidly growing modeling
time, which the experiment harness records.
"""

from __future__ import annotations

import numpy as np

from ..core.history import Optimizer
from ..gp import (
    GaussianProcess,
    probability_of_feasibility,
    weighted_expected_improvement,
)

__all__ = ["BOwEI"]


class BOwEI(Optimizer):
    """Constrained Bayesian optimization with wEI x PoF acquisition."""

    name = "BO-wEI"

    def __init__(self, problem, budget: int, seed: int = 0, *,
                 n_init: int = 20, wei_weight: float = 0.5,
                 pool_size: int = 1024, local_points: int = 256,
                 refit_every: int = 1, gp_restarts: int = 1,
                 stop_when_feasible: bool = False, engine=None):
        super().__init__(problem, budget, seed, stop_when_feasible=stop_when_feasible,
                         engine=engine)
        self.n_init = int(n_init)
        self.wei_weight = float(wei_weight)
        self.pool_size = int(pool_size)
        self.local_points = int(local_points)
        self.refit_every = max(1, int(refit_every))
        self.gp_restarts = int(gp_restarts)
        self._models: list[GaussianProcess] = []
        self._iteration = 0

    # ------------------------------------------------------------------
    # ask/tell protocol: the GP models condition on the *told* archive, so
    # proposals need no per-result hook — a speculative (pipelined) ask
    # simply maximizes the acquisition on a one-batch-stale posterior.
    # ------------------------------------------------------------------
    def _ask(self, k: int | None) -> np.ndarray:
        chunk = self._initial_block(k, self.n_init)
        if chunk is not None:
            return chunk
        count = 1 if k is None else k
        candidates = []
        for _ in range(count):
            candidates.append(self._next_candidate(self._iteration))
            self._iteration += 1
        return np.asarray(candidates)

    # ------------------------------------------------------------------
    def _next_candidate(self, iteration: int) -> np.ndarray:
        space = self.problem.space
        with self.timed_modeling():
            Xn = space.normalize(self.history.X)
            Yn = self.problem.normalize(self.history.F)
            num_outputs = Yn.shape[1]

            refit = (iteration % self.refit_every == 0) or not self._models
            if refit:
                self._models = []
                for column in range(num_outputs):
                    gp = GaussianProcess(dim=space.dim)
                    gp.fit(Xn, Yn[:, column], restarts=self.gp_restarts, rng=self.rng)
                    self._models.append(gp)
            else:
                # Keep hyperparameters; refresh data-dependent factors.
                for column, gp in enumerate(self._models):
                    gp.fit(Xn, Yn[:, column], restarts=0, max_opt_iter=0, rng=self.rng)

            pool = self._candidate_pool(Xn, Yn)
            score = self._acquisition(pool, Yn)
            best = pool[int(np.argmax(score))]
        return space.denormalize(best)

    def _candidate_pool(self, Xn: np.ndarray, Yn: np.ndarray) -> np.ndarray:
        pool = self.rng.random((self.pool_size, self.problem.dim))
        incumbent = Xn[self._incumbent_index(Yn)]
        local = incumbent + self.rng.normal(0.0, 0.05,
                                            size=(self.local_points, self.problem.dim))
        return np.clip(np.vstack([pool, local]), 0.0, 1.0)

    def _incumbent_index(self, Yn: np.ndarray) -> int:
        feasible = self.history.feasible
        objective = Yn[:, 0]
        if feasible.any():
            masked = np.where(feasible, objective, np.inf)
            return int(np.argmin(masked))
        # No feasible design yet: least-violating design.
        violation = np.clip(Yn[:, 1:], 0.0, None).sum(axis=1) if Yn.shape[1] > 1 else objective
        return int(np.argmin(violation))

    def _acquisition(self, pool: np.ndarray, Yn: np.ndarray) -> np.ndarray:
        mean0, std0 = self._models[0].predict(pool)
        feasible = self.history.feasible
        pof = np.ones(len(pool))
        for gp in self._models[1:]:
            mean_c, std_c = gp.predict(pool)
            pof *= probability_of_feasibility(mean_c, std_c)
        if feasible.any():
            best = float(np.min(Yn[feasible.nonzero()[0], 0]))
            wei = weighted_expected_improvement(mean0, std0, best, self.wei_weight)
            return wei * pof
        return pof
