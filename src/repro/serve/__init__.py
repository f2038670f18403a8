"""repro.serve: simulation-as-a-service over the frozen v1 API.

The package turns the :mod:`repro.api` facade into a long-lived HTTP
service with four moving parts:

* :mod:`~repro.serve.http` -- a dependency-free asyncio HTTP/1.1 + SSE
  substrate;
* :mod:`~repro.serve.registry` -- the content-addressed run registry
  (config x trace x policy -> result, deduplicated, with a
  run-ledger manifest per entry);
* :mod:`~repro.serve.jobs` -- request validation, the persistent job
  store, thread-pool execution, crash recovery;
* :mod:`~repro.serve.app` -- the ``/v1`` routes and SSE event stream.

:class:`Server` ties them together::

    from repro.serve import Server

    server = Server("state/", host="127.0.0.1", port=8765)
    server.start()          # background thread; returns once listening
    ...                     # POST /v1/runs, GET /v1/leaderboard, ...
    server.stop()

or, blocking, ``repro-sim serve --data-dir state/`` (``python -m
repro.serve`` takes the same flags).
"""

from __future__ import annotations

import asyncio
import sys
import threading
from typing import Optional

from ..errors import ReproError
from .app import build_router
from .http import (HttpError, Request, Response, Router, SseResponse,
                   handle_connection, json_response)
from .jobs import JobManager, JobRecord
from .registry import RegistryEntry, RegistryKey, RunRegistry, registry_key

__all__ = [
    "HttpError", "JobManager", "JobRecord", "RegistryEntry",
    "RegistryKey", "Request", "Response", "Router", "RunRegistry",
    "Server", "SseResponse", "build_router", "handle_connection",
    "json_response", "registry_key",
]


class Server:
    """The repro-sim job server: asyncio front end, threaded back end.

    ``start()`` spins the event loop on a daemon thread and blocks only
    until the listening socket is bound (so tests and the CLI know the
    port is live); ``serve_forever()`` runs the loop on the calling
    thread instead.  On startup the job manager recovers any jobs the
    previous process left queued or running -- in-flight checkpointed
    runs resume rather than restart.
    """

    def __init__(self, data_dir, *, host: str = "127.0.0.1",
                 port: int = 8765, max_workers: int = 2,
                 default_timeout_s: Optional[float] =
                 JobManager.DEFAULT_TIMEOUT_S) -> None:
        self.host = host
        self.port = port
        self.manager = JobManager(data_dir, max_workers=max_workers,
                                  default_timeout_s=default_timeout_s)
        self._router = build_router(self.manager)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stop_requested = threading.Event()
        self._startup_error: Optional[BaseException] = None

    async def _serve(self) -> None:
        recovered = self.manager.recover()
        if recovered:
            # Visible in server logs/stdout: these jobs survived a kill.
            print(f"repro-serve: re-enqueued {len(recovered)} "
                  f"interrupted job(s): {', '.join(recovered)}")
        server = await asyncio.start_server(
            lambda reader, writer: handle_connection(
                self._router, reader, writer),
            host=self.host, port=self.port)
        if self.port == 0:
            self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        async with server:
            await server.serve_forever()

    def serve_forever(self) -> None:
        """Run the server on the calling thread until interrupted."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            pass
        finally:
            self.manager.close()

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve())
        except asyncio.CancelledError:
            pass
        except BaseException as exc:  # noqa: BLE001 -- surfaced in start()
            self._startup_error = exc
            self._started.set()
        finally:
            loop.close()

    def start(self, timeout_s: float = 10.0) -> "Server":
        """Start on a background thread; returns once the port is bound."""
        if self._thread is not None:
            raise ReproError("server was already started")
        self._thread = threading.Thread(target=self._thread_main,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise ReproError(
                f"server did not start within {timeout_s:g}s")
        if self._startup_error is not None:
            raise ReproError(
                f"server failed to start: {self._startup_error}")
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the background server and its job executor."""
        loop = self._loop
        if loop is not None and loop.is_running():
            # Cancel every task (serve_forever included); the loop then
            # falls out of run_until_complete and closes.
            def _cancel_all() -> None:
                for task in asyncio.all_tasks(loop):
                    task.cancel()
            loop.call_soon_threadsafe(_cancel_all)
        if self._thread is not None:
            self._thread.join(timeout_s)
        self.manager.close()

    @property
    def base_url(self) -> str:
        """The server's root URL (valid once started)."""
        return f"http://{self.host}:{self.port}"


def main(argv: Optional[list] = None) -> int:
    """``python -m repro.serve``: ``repro-sim serve`` with ``argv``."""
    from ..cli import main as cli_main
    return cli_main(["serve", *(sys.argv[1:] if argv is None else argv)])
