"""Sampled counter histories (Section 4.1 of the paper).

Each monotonically increasing counter component keeps a *history list*:
whenever the component is incremented, the new value is appended together
with its timestamp with probability ``p = 1/Delta``.  Reading the component
at time ``t`` finds the predecessor record (largest sampled timestamp at or
before ``t``) and compensates the expected number of unsampled increments:

    estimate = sampled_value + 1/p - 1        (Equation (1) in the paper)

or the component's starting value when no predecessor exists.  The
compensated read is an unbiased estimator of the true component value with
second moment at most ``1/p^2`` (Lemma A.5), which is what makes the
sampling technique usable for the holistic join-size queries where the
deterministic baselines' bias gets amplified.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from random import Random

from repro.analysis import contracts
from repro.persistence.column_log import HISTORY, ColumnLog


class SampledHistoryList:
    """History of one monotone counter component.

    The sampled ``(time, value)`` records are rows of a
    :class:`~repro.persistence.column_log.ColumnLog` under the
    component's key; the list keeps their log positions.

    Parameters
    ----------
    probability:
        Sampling probability ``p = 1/Delta`` in ``(0, 1]``.
    rng:
        Shared random source (one per sketch keeps the hot path cheap).
    initial_value:
        Component value before its first increment (nonzero at epoch
        boundaries in the Section 5.2 construction).
    log, key:
        The sketch's history log and this component's key in it; a list
        built without one keeps a log of its own.
    """

    __slots__ = (
        "__weakref__",  # contract decorators track instances weakly
        "probability",
        "initial_value",
        "log",
        "key",
        "_pos",
        "_times",
        "_rng",
    )

    def __init__(
        self,
        probability: float,
        rng: Random,
        initial_value: int = 0,
        log: ColumnLog | None = None,
        key: int = 0,
    ) -> None:
        if not 0 < probability <= 1:
            raise ValueError(
                f"sampling probability must lie in (0, 1], got {probability}"
            )
        self.probability = probability
        self.initial_value = initial_value
        self.log = ColumnLog(HISTORY) if log is None else log
        self.key = key
        self._pos: array[int] = array("q")
        self._times: list[int] = []
        self._rng = rng
        self.log.register(key, probability, initial_value)

    @contracts.monotone_timestamps(param="t")
    def offer(self, t: int, value: int) -> None:
        """Offer the component's new value at time ``t`` for sampling.

        Unsampled offers leave no trace, so monotonicity of ``t`` cannot
        be validated from the stored records alone; the
        ``@monotone_timestamps`` contract enforces it across *all* offers
        when enforcement is on.
        """
        if self._rng.random() < self.probability:
            self.log.append(self, t, value)

    def force_sample(self, t: int, value: int) -> None:
        """Record unconditionally and unchecked (used by tests and epoch
        bootstrapping)."""
        self.log.extend(self, ([t], [value]))

    def extend(self, times: Sequence[int], values: Sequence[int]) -> None:
        """Append pre-accepted samples in time order (batch ingest path).

        The caller has already run the Bernoulli acceptance draws against
        the shared RNG (see :func:`repro.persistence.sampling.bulk_uniforms`),
        so this appends in bulk.  Under contract enforcement the appended
        times are validated against the stored records — the batch planner
        additionally validates the full offer sequence up front.
        """
        if not len(times):
            return
        if contracts.ENABLED:
            prev = self._times[-1] if self._times else None
            for t in times:
                if prev is not None and t <= prev:
                    raise contracts.ContractViolation(
                        "history-list batch append times must be strictly "
                        f"increasing: {t} <= {prev}"
                    )
                prev = t
        self.log.extend(self, (times, values))

    def estimate_at(self, t: float) -> float:
        """Unbiased compensated estimate of the component value at ``t``."""
        i = bisect_right(self._times, t)
        if not i:
            return float(self.initial_value)
        value: int = self.log.columns[1][self._pos[i - 1]]
        return value + (1.0 / self.probability) - 1.0

    def estimate_at_index(self, idx: int) -> float:
        """Compensated estimate from a precomputed predecessor index.

        Used by the fractional-cascading query path
        (:meth:`repro.core.persistent_ams.PersistentAMS.build_timeline`),
        which batch-computes predecessor indices across many lists.
        ``idx < 0`` means "no predecessor".
        """
        if idx < 0:
            return float(self.initial_value)
        return (
            self.log.columns[1][self._pos[idx]] + (1.0 / self.probability) - 1.0
        )

    def sample_times(self) -> list[int]:
        """The sampled timestamps, strictly increasing."""
        return self._times

    def last_sampled_at(self, t: float) -> tuple[int, int] | None:
        """The raw predecessor record ``(time, value)``, if any."""
        i = bisect_right(self._times, t)
        if not i:
            return None
        return self._times[i - 1], self.log.columns[1][self._pos[i - 1]]

    def __len__(self) -> int:
        return len(self._pos)

    def words(self) -> int:
        """Space in machine words (2 per record, per Section 6.2)."""
        return HISTORY.words * len(self._pos)
