"""Traffic shaping for the job server: rate limits and backpressure.

Two mechanisms, both answered with 429 + ``Retry-After``:

* a **token bucket per client** (:class:`TokenBucket` behind
  :class:`RateLimiter`) bounds each client's submission rate —
  ``burst`` tokens refilled at ``rate`` per second, clients identified
  by the ``X-Repro-Client`` header or, failing that, the peer address;
* the **bounded job queue** (owned by the server) pushes back when
  full; :class:`RetryEstimator` turns an EWMA of recent job durations
  and the current depth into an honest ``Retry-After`` hint instead of
  a fixed constant.

Clocks are injectable so the unit tests drive time by hand.
"""

from __future__ import annotations

import math
import time

from repro.errors import ApiError


class TokenBucket:
    """The classic limiter: ``burst`` capacity, ``rate`` tokens/second.

    :meth:`take` returns 0.0 when a token was consumed, else the
    seconds until one will be available (the ``Retry-After`` hint).
    A ``rate`` of 0 never refills — the bucket is a hard cap of
    ``burst`` total requests, and exhausted clients are told to retry
    in :attr:`CAP` seconds.
    """

    #: Retry hint when the bucket can never refill.
    CAP = 3600.0

    __slots__ = ("rate", "burst", "tokens", "updated", "clock")

    def __init__(self, rate: float, burst: int,
                 clock=time.monotonic) -> None:
        if burst < 1:
            raise ApiError(f"burst must be at least 1, got {burst}")
        if rate < 0:
            raise ApiError(f"rate must be >= 0, got {rate}")
        self.rate = rate
        self.burst = burst
        self.tokens = float(burst)
        self.clock = clock
        self.updated = clock()

    def _refill(self) -> None:
        now = self.clock()
        if self.rate > 0:
            self.tokens = min(float(self.burst),
                              self.tokens + (now - self.updated)
                              * self.rate)
        self.updated = now

    def take(self) -> float:
        """Consume one token (0.0) or report the wait in seconds."""
        self._refill()
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        if self.rate <= 0:
            return self.CAP
        return (1.0 - self.tokens) / self.rate


class RateLimiter:
    """Per-client token buckets, pruned so idle clients cost nothing.

    ``rate=None`` disables limiting entirely (every :meth:`take`
    returns 0.0) — the default for a single-tenant local server.
    """

    #: Full buckets beyond this many clients are dropped on insert.
    MAX_CLIENTS = 1024

    def __init__(self, rate, burst: int = 8,
                 clock=time.monotonic) -> None:
        if rate is not None:    # refuse a bad rate or burst now
            TokenBucket(rate, burst, clock)
        self.rate = rate
        self.burst = burst
        self.clock = clock
        self._buckets: dict = {}

    def take(self, client: str) -> float:
        if self.rate is None:
            return 0.0
        bucket = self._buckets.get(client)
        if bucket is None:
            if len(self._buckets) >= self.MAX_CLIENTS:
                self._prune()
            bucket = TokenBucket(self.rate, self.burst,
                                 clock=self.clock)
            self._buckets[client] = bucket
        return bucket.take()

    def _prune(self) -> None:
        """Drop clients whose buckets have refilled to full (idle)."""
        for client, bucket in list(self._buckets.items()):
            bucket._refill()
            if bucket.tokens >= bucket.burst:
                del self._buckets[client]


class RetryEstimator:
    """Turns queue depth into a ``Retry-After`` hint.

    Tracks an exponentially weighted moving average of completed job
    durations; the hint for a full queue is the time to drain it at
    that average over the configured worker concurrency, clamped to
    [1, :attr:`MAX`] seconds.
    """

    #: Never tell a client to back off longer than this.
    MAX = 120

    __slots__ = ("ewma", "alpha", "workers")

    def __init__(self, workers: int = 1, alpha: float = 0.3,
                 initial: float = 1.0) -> None:
        self.ewma = initial
        self.alpha = alpha
        self.workers = max(1, workers)

    def observe(self, seconds: float) -> None:
        self.ewma += self.alpha * (seconds - self.ewma)

    def retry_after(self, depth: int) -> int:
        estimate = self.ewma * (depth + 1) / self.workers
        return max(1, min(self.MAX, math.ceil(estimate)))
