"""A deterministic discrete-event simulation kernel.

The kernel is a priority queue of timestamped actions.  :meth:`EventKernel.run`
pops the earliest action, advances the simulated clock to its timestamp and
executes it; actions may schedule further actions (that is how a message
arrival triggers queue draining, retries and forwarding in the simulated
transport).

Determinism is a hard requirement — the broker-network experiments assert that
two runs with the same seed produce byte-identical delivery logs — so ties are
broken reproducibly: every scheduled action carries a tie-break value drawn
from a seeded RNG (so simultaneous actions are not biased toward insertion
order) and, as a last resort, a monotonically increasing sequence number.
Nothing in the kernel reads the wall clock.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventKernel"]

Action = Callable[..., None]


class EventKernel:
    """A seeded, deterministic discrete-event scheduler.

    A heap entry is ``(time, tie-break draw, sequence, callable, args)``:
    scheduling draws exactly one tie-break value per action, in scheduling
    order, and running calls ``callable(*args)``, so a caller schedules a
    bound method and its arguments instead of building a closure per action.
    :meth:`run` pops and calls entries in one local loop.  The simulated
    transport pushes its two steps per message onto ``_heap`` itself, with
    ``_rng.random()`` as the draw and ``_seq + 1`` as the sequence, which is
    the entry :meth:`schedule_at` would push.

    Parameters
    ----------
    seed:
        Seeds the tie-breaking RNG.  Two kernels built with the same seed and
        fed the same schedule execute actions in exactly the same order.
    """

    def __init__(self, seed: Optional[int] = 0) -> None:
        self._rng = random.Random(seed)
        self._heap: List[Tuple[float, float, int, Action, Tuple[Any, ...]]] = []
        self._seq = 0
        self.now = 0.0
        self.executed = 0

    # ------------------------------------------------------------- scheduling
    def schedule_at(self, time: float, action: Action, *args: Any) -> None:
        """Schedule ``action(*args)`` to run at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} in the past (now={self.now})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._rng.random(), self._seq, action, args))

    def schedule(self, delay: float, action: Action, *args: Any) -> None:
        """Schedule ``action(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        # schedule_at inlined (a non-negative delay cannot land in the past):
        # every simulated inbox step schedules through here, and the extra
        # call and argument repacking cost about 0.25 µs a time.  The entry
        # must stay the one schedule_at pushes (test_kernel.py pins it).
        self._seq += 1
        heapq.heappush(
            self._heap, (self.now + delay, self._rng.random(), self._seq, action, args)
        )

    @property
    def pending(self) -> int:
        """Number of actions waiting to execute."""
        return len(self._heap)

    # -------------------------------------------------------------- execution
    def run(self, until: Optional[float] = None, max_steps: Optional[int] = None) -> int:
        """Run until the queue is empty (or ``until``/``max_steps`` is reached).

        Returns the number of actions executed by this call.  With ``until``
        the clock still advances to ``until`` when earlier actions ran out, so
        repeated bounded runs observe a monotonic clock.  :attr:`executed`
        counts the actions of a run when it returns (or an action raises),
        not step by step.
        """
        heap = self._heap
        pop = heapq.heappop
        steps = 0
        try:
            if until is None and max_steps is None:
                # The unbounded run, what every flush is: no per-step bound tests.
                while heap:
                    self.now, _tie, _seq, action, args = pop(heap)
                    steps += 1
                    action(*args)
                return steps
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                if max_steps is not None and steps >= max_steps:
                    break
                self.now, _tie, _seq, action, args = pop(heap)
                steps += 1
                action(*args)
        finally:
            self.executed += steps
        if until is not None and self.now < until:
            self.now = until
        return steps
