"""DNN-Opt — Algorithm 1 of the paper.

Each iteration (after ``n_init`` space-filling simulations):

1. a fresh actor is initialized (line 3); the critic is fresh on every
   ``critic_refresh``-th iteration and kept from the previous iteration
   otherwise;
2. pseudo-samples are generated from the whole archive (line 4, Eq. 2);
3. the critic is trained as a simulator proxy (line 5, Eq. 3): a fresh one
   for ``critic_epochs`` epochs, a kept one fine-tuned for
   ``critic_epochs // critic_refresh`` (at least one);
4. the actor is trained through the frozen critic with the elite-region
   boundary penalty (line 6, Eq. 5-6);
5. the elite population — the ``n_elite`` lowest-FoM designs — defines the
   restricted region (lines 7-8);
6. every elite design is pushed through the actor, exploration noise is
   added, and the candidate with the best critic-predicted FoM is the next
   SPICE query (line 9, Eq. 8);
7. the chosen candidate is simulated and appended (lines 10-14).

With ``batch_size=k`` the per-iteration query of line 9 generalizes from the
argmin of Eq. 8 to the *top-k* non-duplicate critic-scored candidates, all
simulated in one :class:`~repro.core.engine.EvalEngine` dispatch — the
actor/critic retraining cost is then amortized over ``k`` simulator queries
and the batch can run on a parallel engine backend.

Algorithm 1 re-initializes the critic on every iteration; that is
``critic_refresh=1``, which reproduces it exactly.  The critic fit is
nearly all of an iteration's cost, so the default (``critic_refresh=5``)
keeps the trained critic, as Dyna-style model-based design does, and
pays for a full fit only every fifth iteration.

All learning happens in normalized coordinates: designs in the unit cube,
specs in the ``fi <= 0`` violation form.
"""

from __future__ import annotations

import numpy as np

from .actor import Actor
from .critic import Critic
from .fom import fom_normalized
from .history import Optimizer
from .pseudo import generate_pseudo_samples

__all__ = ["DNNOpt"]


class DNNOpt(Optimizer):
    """RL-inspired two-stage DNN black-box optimizer.

    Parameters mirror the paper where stated and use empirically robust
    defaults elsewhere (the paper notes its hyper-parameters were found
    empirically).

    Parameters
    ----------
    problem:
        The :class:`~repro.problems.base.OptimizationProblem` to solve.
    budget:
        Total number of simulator calls.
    n_init:
        Random (Latin hypercube) designs simulated before the loop starts.
    n_elite:
        Size of the elite population (paper's ``N_es``).
    exploration_noise:
        Std-dev of the candidate noise, as a fraction of the restricted
        region's span.
    boundary_penalty:
        The paper's ``lambda`` — weight of the quadratic boundary term.
    max_pseudo:
        Cap on pseudo-samples per iteration (the full ``N^2`` is used when
        it fits).
    critic_refresh:
        Model fit ``n`` (counted from 0 per optimizer) builds a fresh critic
        and trains it for ``critic_epochs`` when ``n % critic_refresh == 0``;
        every other fit fine-tunes the previous critic for
        ``max(1, critic_epochs // critic_refresh)`` epochs on freshly drawn
        pseudo-samples.  ``1`` is the paper's Algorithm 1 (a fresh critic
        every iteration).
    critic_epochs / critic_batch / actor_epochs:
        Training epochs and minibatch size; all must be >= 1.
    use_pseudo_samples / use_delta_input:
        Ablation switches: disable Eq. 2 augmentation and/or train a plain
        d-input critic on raw samples (used by the critic ablation bench).
    batch_size:
        Simulator queries per iteration.  ``1`` (default) is the paper's
        Algorithm 1; ``k > 1`` selects the k best non-duplicate candidates
        under the critic score and simulates them as one engine batch.
    engine:
        Optional :class:`~repro.core.engine.EvalEngine` for the simulator
        dispatch (serial in-process by default).
    """

    name = "DNN-Opt"

    def __init__(self, problem, budget: int, seed: int = 0, *,
                 n_init: int = 20,
                 n_elite: int = 10,
                 exploration_noise: float = 0.1,
                 boundary_penalty: float = 100.0,
                 max_pseudo: int = 8000,
                 critic_hidden: tuple[int, ...] = (64, 64),
                 critic_epochs: int = 20,
                 critic_lr: float = 1e-3,
                 critic_batch: int = 128,
                 critic_refresh: int = 5,
                 actor_hidden: tuple[int, ...] = (64, 64),
                 actor_epochs: int = 30,
                 actor_lr: float = 1e-3,
                 min_region_width: float = 0.02,
                 use_pseudo_samples: bool = True,
                 initial_designs: np.ndarray | None = None,
                 batch_size: int = 1,
                 engine=None,
                 stop_when_feasible: bool = False):
        super().__init__(problem, budget, seed, stop_when_feasible=stop_when_feasible,
                         engine=engine)
        if n_elite < 2:
            raise ValueError("n_elite must be >= 2")
        if n_init < 2:
            raise ValueError("n_init must be >= 2")
        for name, value in (("batch_size", batch_size), ("max_pseudo", max_pseudo),
                            ("critic_epochs", critic_epochs),
                            ("critic_batch", critic_batch),
                            ("critic_refresh", critic_refresh),
                            ("actor_epochs", actor_epochs)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        self.batch_size = int(batch_size)
        self.n_init = int(n_init)
        self.n_elite = int(n_elite)
        self.exploration_noise = float(exploration_noise)
        self.boundary_penalty = float(boundary_penalty)
        self.max_pseudo = int(max_pseudo)
        self.critic_hidden = tuple(critic_hidden)
        self.critic_epochs = int(critic_epochs)
        self.critic_lr = float(critic_lr)
        self.critic_batch = int(critic_batch)
        self.critic_refresh = int(critic_refresh)
        self.actor_hidden = tuple(actor_hidden)
        self.actor_epochs = int(actor_epochs)
        self.actor_lr = float(actor_lr)
        self.min_region_width = float(min_region_width)
        self.use_pseudo_samples = bool(use_pseudo_samples)
        self.initial_designs = (None if initial_designs is None
                                else np.atleast_2d(np.asarray(initial_designs, dtype=np.float64)))
        self._critic: Critic | None = None
        self._n_fits = 0  # completed model fits; drives the critic refresh

    # ------------------------------------------------------------------
    # ask/tell protocol
    # ------------------------------------------------------------------
    def _ask(self, k: int | None) -> np.ndarray:
        """Next proposals: the space-filling block first, then Eq. 8 batches.

        The initial block is the designer starting points (the paper's
        industrial fine-tuning setting — simulated first so they join the
        archive/elites) followed by the Latin-hypercube samples; afterwards
        each ask retrains the actor/critic on the told archive and returns
        the top-``batch_size`` candidates (fewer when the remaining budget
        is smaller, more/less when ``k`` is given).

        Archive rows told *before* the first ask replace Latin-hypercube
        samples one for one (:meth:`_initial_block`): the critic/actor
        already have an archive to train on, so given a big enough donor
        the model-based loop starts immediately, pre-trained on its data.
        """
        chunk = self._initial_block(k, self.n_init, self.initial_designs)
        if chunk is not None:
            return chunk
        count = k
        if count is None:
            # In pipelined mode proposals may be outstanding (asked, not yet
            # told); discount them so the run never over-proposes.  With a
            # barrier driver ``outstanding`` is always 0 and this is exactly
            # the historic per-iteration count.
            outstanding = max(0, self._n_proposed - self.history.n_evals)
            count = min(self.batch_size,
                        self.budget - self.history.n_evals - outstanding)
        return self._next_candidates(count=max(1, int(count)))

    # ------------------------------------------------------------------
    def _next_candidates(self, count: int) -> np.ndarray:
        """The next ``count`` simulator queries as a ``(count, d)`` batch.

        One actor/critic retraining selects all ``count`` candidates: the
        top-k critic-scored, mutually non-duplicate proposals (Eq. 8
        generalized from argmin to top-k).
        """
        space = self.problem.space
        with self.timed_modeling():
            Xn = space.normalize(self.history.X)
            Yn = self.problem.normalize(self.history.F)
            w0 = self.problem.objective.weight
            weights = self.problem.constraint_weights()

            # Lines 3-5: a critic trained on pseudo-samples, fresh on every
            # ``critic_refresh``-th fit and briefly fine-tuned in between.
            fresh = self._n_fits % self.critic_refresh == 0
            if fresh:
                self._critic = Critic(space.dim, Yn.shape[1], hidden=self.critic_hidden,
                                      lr=self.critic_lr, epochs=self.critic_epochs,
                                      batch_size=self.critic_batch, rng=self.rng)
            critic = self._critic
            if self.use_pseudo_samples:
                inputs, targets = generate_pseudo_samples(
                    Xn, Yn, rng=self.rng, max_pairs=self.max_pseudo)
            else:
                inputs = np.concatenate([Xn, np.zeros_like(Xn)], axis=1)
                targets = Yn
            critic.fit(inputs, targets, epochs=(
                None if fresh else max(1, self.critic_epochs // self.critic_refresh)))
            self._n_fits += 1

            # Lines 7-8: elite population and restricted region.
            elites = self._elite_designs(Xn)
            lb_rest, ub_rest = self._restricted_bounds(elites)

            # Line 6: fresh actor trained through the frozen critic.
            actor = Actor(space.dim, hidden=self.actor_hidden, lr=self.actor_lr,
                          epochs=self.actor_epochs, rng=self.rng)
            actor.fit(critic, elites, lb_rest, ub_rest, w0=w0, weights=weights,
                      lam=self.boundary_penalty)

            # Line 9 / Eq. 8: per-elite candidates (with exploration noise, plus
            # the noiseless actor proposals), pick the critic-best.
            displacement = actor.propose(elites)
            noise = self.rng.normal(0.0, self.exploration_noise, size=elites.shape)
            noisy = elites + displacement + noise * (ub_rest - lb_rest)
            quiet = elites + displacement
            anchors = np.vstack([elites, elites])
            candidates = np.clip(np.vstack([noisy, quiet]), 0.0, 1.0)
            predictions = critic.predict(anchors, candidates - anchors)
            scores = fom_normalized(predictions, w0, weights)
            chosen = self._select_non_duplicate(candidates, scores, lb_rest, ub_rest,
                                                count=count)
        return space.denormalize(chosen)

    def _elite_designs(self, Xn: np.ndarray) -> np.ndarray:
        fom = self.history.fom
        count = min(self.n_elite, len(fom))
        order = np.argsort(fom)[:count]
        return Xn[order]

    def _restricted_bounds(self, elites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 6 bounds: per-dimension elite min/max, widened to a floor so
        a collapsed elite population cannot freeze the search."""
        lb = elites.min(axis=0)
        ub = elites.max(axis=0)
        width = ub - lb
        shortfall = np.maximum(self.min_region_width - width, 0.0) / 2.0
        lb = np.clip(lb - shortfall, 0.0, 1.0)
        ub = np.clip(ub + shortfall, 0.0, 1.0)
        return lb, ub

    def _select_non_duplicate(self, candidates: np.ndarray, scores: np.ndarray,
                              lb_rest: np.ndarray, ub_rest: np.ndarray, *,
                              count: int = 1) -> np.ndarray:
        """The ``count`` best-scored candidates that duplicate neither the
        archive nor each other; shape ``(count, d)`` in normalized coords.

        Duplicates arise once the elite region tightens (and always for
        integer variables after rounding); re-simulating them wastes budget,
        so walk the score order first, then fall back to random draws — in
        the restricted region, and in the limit the whole space — until the
        batch is full.  The fallback keeps drawing until it has ``count``
        unique designs whenever the space allows it; only when the draw
        budget is exhausted (a space with fewer free designs than requested)
        does it pad with duplicates so callers always receive ``count`` rows.
        """
        space = self.problem.space
        existing = self.history.X
        chosen: list[np.ndarray] = []

        def is_new(raw: np.ndarray) -> bool:
            if self._is_duplicate(raw, existing):
                return False
            return not (chosen and self._is_duplicate(raw, np.asarray(chosen)))

        for index in np.argsort(scores):
            raw = space.round(space.denormalize(candidates[index]))
            if is_new(raw):
                chosen.append(raw)
                if len(chosen) == count:
                    break

        attempts, max_attempts = 0, 200 * count
        while len(chosen) < count and attempts < max_attempts:
            attempts += 1
            fallback = self.rng.uniform(lb_rest, ub_rest)
            raw = space.round(space.denormalize(fallback))
            if not is_new(raw):
                raw = space.sample(self.rng, 1)[0]
            if is_new(raw):
                chosen.append(raw)
        while len(chosen) < count:
            # Space genuinely exhausted: pad with random (duplicate) designs
            # so the budget still progresses.
            chosen.append(space.sample(self.rng, 1)[0])

        return space.normalize(np.asarray(chosen))

    @staticmethod
    def _is_duplicate(raw: np.ndarray, existing: np.ndarray, tol: float = 1e-10) -> bool:
        if len(existing) == 0:
            return False
        scale = 1.0 + np.abs(raw)
        return bool(np.any(np.all(np.abs(existing - raw) <= tol * scale, axis=1)))
