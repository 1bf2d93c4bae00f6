"""GASPAD: GP-assisted evolutionary optimization (Liu et al., TCAD 2014).

The surrogate-assisted loop: keep an elite population, breed a full DE
child generation each iteration, *prescreen* the children with a GP's
lower confidence bound, and spend the one real simulation per iteration on
the most promising child.  Following the original's penalty-based ranking,
our GP models the scalar FoM (objective + clipped weighted violations) —
documented as a simplification in DESIGN.md; it preserves GASPAD's
characteristic slow-but-steady convergence at one simulation per
generation.
"""

from __future__ import annotations

import numpy as np

from ..core.history import Optimizer
from ..gp import GaussianProcess, lower_confidence_bound

__all__ = ["GASPAD"]


class GASPAD(Optimizer):
    """Surrogate (GP) assisted differential evolution."""

    name = "GASPAD"

    def __init__(self, problem, budget: int, seed: int = 0, *,
                 n_init: int = 20, pop_size: int | None = None,
                 f_weight: float = 0.6, crossover: float = 0.9,
                 lcb_beta: float = 2.0, refit_every: int = 1,
                 gp_restarts: int = 1, max_train: int = 200,
                 stop_when_feasible: bool = False, engine=None):
        super().__init__(problem, budget, seed, stop_when_feasible=stop_when_feasible,
                         engine=engine)
        if pop_size is None:
            pop_size = min(40, max(10, 4 * problem.dim))
        self.n_init = int(n_init)
        self.pop_size = int(pop_size)
        self.f_weight = float(f_weight)
        self.crossover = float(crossover)
        self.lcb_beta = float(lcb_beta)
        self.refit_every = max(1, int(refit_every))
        self.gp_restarts = int(gp_restarts)
        self.max_train = int(max_train)
        self._gp: GaussianProcess | None = None
        self._iteration = 0

    # ------------------------------------------------------------------
    # ask/tell protocol: the GP prescreen reads the told archive directly,
    # so there is no per-result hook; a speculative (pipelined) ask breeds
    # and prescreens against a one-batch-stale archive.
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
            fom = self.history.fom

            # GP on the FoM surface (trained on the best max_train archive rows;
            # the best region matters most for prescreening).
            order = np.argsort(fom)
            train = order[:self.max_train]
            refit = (iteration % self.refit_every == 0) or self._gp is None
            gp = self._gp or GaussianProcess(dim=space.dim)
            gp.fit(Xn[train], fom[train],
                   restarts=self.gp_restarts if refit else 0,
                   max_opt_iter=60 if refit else 0, rng=self.rng)
            self._gp = gp

            # Current population = elite archive designs.
            pop = Xn[order[:min(self.pop_size, len(order))]]
            children = self._breed(pop)
            mean, std = gp.predict(children)
            score = lower_confidence_bound(mean, std, self.lcb_beta)
            ranked = np.argsort(score)
            chosen = children[ranked[0]]
            # Avoid archive duplicates (wasted simulations).
            for index in ranked:
                candidate = children[index]
                distance = np.min(np.linalg.norm(Xn - candidate, axis=1))
                if distance > 1e-9:
                    chosen = candidate
                    break
        return space.denormalize(chosen)

    def _breed(self, pop: np.ndarray) -> np.ndarray:
        n = len(pop)
        if n < 4:
            extra = self.rng.random((4 - n, pop.shape[1]))
            pop = np.vstack([pop, extra])
            n = len(pop)
        children = np.empty_like(pop)
        for i in range(n):
            choices = [k for k in range(n) if k != i]
            r1, r2, r3 = self.rng.choice(choices, size=3, replace=False)
            mutant = pop[r1] + self.f_weight * (pop[r2] - pop[r3])
            mutant = np.clip(mutant, 0.0, 1.0)
            cross = self.rng.random(pop.shape[1]) < self.crossover
            cross[self.rng.integers(pop.shape[1])] = True
            children[i] = np.where(cross, mutant, pop[i])
        return children
