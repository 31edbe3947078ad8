"""Test harness: a :class:`JobServer` on a background event loop.

The server is single-loop by design; tests (and the perf harness) are
synchronous.  :class:`ServerThread` bridges the two — it runs the loop
in a daemon thread, exposes the bound port, and proxies the few
loop-affine operations (pausing the dispatcher, awaiting a drain)
through ``run_coroutine_threadsafe``/``call_soon_threadsafe`` so
callers never touch the loop directly.

Usage::

    with ServerThread(ServeConfig(workers=1)) as handle:
        client = handle.client()
        job = client.submit("characterize", {"smoke": True})
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from dataclasses import replace

from repro.serve.client import ServeClient
from repro.serve.server import JobServer, ServeConfig


class ServerThread:
    """Run a job server on its own loop thread, synchronously driven."""

    def __init__(self, config: ServeConfig = None) -> None:
        # Always an ephemeral port, so servers never collide; ``port``
        # tells which one was bound.
        self.config = replace(config or ServeConfig(), port=0)
        self.server = JobServer(self.config)
        self.loop = None
        self._thread = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ServerThread":
        ready = threading.Event()
        failure = []

        def run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self.loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except Exception as exc:
                failure.append(exc)
                ready.set()
                return
            ready.set()
            loop.run_forever()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        self._thread = threading.Thread(target=run, daemon=True,
                                        name="serve-test-loop")
        self._thread.start()
        if not ready.wait(30):
            raise RuntimeError("server loop did not come up in 30s")
        if failure:
            raise failure[0]
        return self

    def stop(self, drain: bool = True) -> None:
        if self.loop is None or not self._thread.is_alive():
            return
        try:
            self.call(self.server.stop(drain=drain), timeout=120)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=exc_info[0] is None)

    # -- synchronous proxies -------------------------------------------

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, name: str = None, **kwargs) -> ServeClient:
        return ServeClient(port=self.port, name=name, **kwargs)

    def call(self, coro, timeout: float = 60.0):
        """Run a coroutine on the server loop; return its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout)

    def do(self, func, *args, timeout: float = 60.0):
        """Run a plain callable on the loop thread (loop-affine state)."""
        future = concurrent.futures.Future()

        def wrapper():
            try:
                future.set_result(func(*args))
            except BaseException as exc:   # surfaced to the caller
                future.set_exception(exc)

        self.loop.call_soon_threadsafe(wrapper)
        return future.result(timeout)

    def pause_dispatch(self) -> None:
        self.do(self.server.pause_dispatch)

    def resume_dispatch(self) -> None:
        self.do(self.server.resume_dispatch)

    def submit(self, doc: dict, client: str = None):
        """Submit on the loop thread, bypassing HTTP (unit tests)."""
        return self.do(lambda: self.server.submit(doc, client=client))
