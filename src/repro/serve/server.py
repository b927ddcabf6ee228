"""The asyncio job-queue server behind ``repro serve``.

One :class:`ResultServer` owns one shared
:class:`~repro.sweep.runner.SweepRunner` (and through it one
:class:`~repro.store.ResultStore`). Connections are accepted
concurrently, but jobs execute **one at a time** from a FIFO queue —
parallelism belongs *inside* a job (the runner's backend), not across
jobs, which is what makes results reproducible: identical jobs against
the same starting store state return identical bytes regardless of how
many clients are connected.

Each job runs in a worker thread (``asyncio.to_thread``) so the event
loop stays responsive: while a job computes, the owning connection
receives ``progress`` heartbeats carrying elapsed time and live store
counters, and other clients can still connect and queue.

After every job the store's stats are flushed to its ``.stats/`` shard,
so the shared directory's lifetime hit/miss totals survive server
restarts.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import obs
from repro.errors import ConfigurationError
from repro.serve.jobs import run_job
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    decode_line,
    encode_line,
    validate_request,
)

#: Default seconds between ``progress`` heartbeats to a waiting client.
DEFAULT_HEARTBEAT_S = 1.0

#: Longest request line accepted (a request is one JSON object naming a
#: preset and a few scalars — far below this; the limit bounds memory
#: against a misbehaving client).
MAX_REQUEST_BYTES = 1 << 20


@dataclass
class _Job:
    """One queued request and its event stream back to the client."""

    id: int
    kind: str
    params: "dict[str, Any]"
    events: "asyncio.Queue[dict[str, Any]]" = field(
        default_factory=asyncio.Queue
    )


class ResultServer:
    """Serve sweep/optimize/runtime/fleet jobs over one warm store.

    Parameters
    ----------
    runner:
        The shared :class:`~repro.sweep.runner.SweepRunner`; its cache
        is the store every job warms. Defaults to a fresh memory-only
        runner (tests); production passes a directory-backed store.
    host / port:
        Bind address; port 0 picks a free port (``self.port`` holds the
        real one once started).
    heartbeat_s:
        Progress-event interval for clients with a running job.
    """

    def __init__(
        self,
        runner: "Any | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        if runner is None:
            from repro.sweep import SweepRunner

            runner = SweepRunner()
        self.runner = runner
        self.host = host
        self.port = port
        self.heartbeat_s = heartbeat_s
        self.jobs_completed = 0
        self.jobs_failed = 0
        self._ids = itertools.count(1)
        self._queue: "Optional[asyncio.Queue[_Job]]" = None
        self._server: "Optional[asyncio.AbstractServer]" = None
        self._worker: "Optional[asyncio.Task[None]]" = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "asyncio.AbstractServer":
        """Bind the socket and start the worker; resolves ``self.port``."""
        self._queue = asyncio.Queue()
        self._worker = asyncio.create_task(self._work())
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port,
            limit=MAX_REQUEST_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self._server

    async def close(self) -> None:
        """Stop accepting, cancel the worker, release the socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass

    async def serve_forever(self, on_ready: "Any | None" = None) -> None:
        """Start and block until cancelled (the CLI entry point).

        ``on_ready(self)`` is called once the port is bound — the CLI
        uses it to print the resolved address."""
        await self.start()
        if on_ready is not None:
            on_ready(self)
        assert self._server is not None
        try:
            async with self._server:
                await self._server.serve_forever()
        finally:
            await self.close()

    # -- the single-lane worker ------------------------------------------------

    async def _work(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            await job.events.put({"event": "started", "job": job.id})
            try:
                result = await asyncio.to_thread(
                    run_job, job.kind, job.params, self.runner
                )
            except asyncio.CancelledError:
                raise
            except ConfigurationError as error:
                self.jobs_failed += 1
                obs.inc("serve.errors")
                await job.events.put({
                    "event": "error", "job": job.id, "message": str(error),
                })
            except Exception as error:  # noqa: BLE001 — server must survive
                self.jobs_failed += 1
                obs.inc("serve.errors")
                await job.events.put({
                    "event": "error", "job": job.id,
                    "message": f"{type(error).__name__}: {error}",
                })
            else:
                self.jobs_completed += 1
                obs.inc("serve.jobs")
                await job.events.put({
                    "event": "done", "job": job.id, "result": result,
                })
            finally:
                self._flush_store_stats()
                self._queue.task_done()

    def _flush_store_stats(self) -> None:
        """Persist the shared store's counters (best effort)."""
        flush = getattr(self.runner.cache, "flush_stats", None)
        if flush is not None:
            try:
                flush()
            except OSError:
                pass  # a read-only or vanished store dir is not fatal

    # -- one connection ----------------------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            await self._converse(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; its job (if queued) still runs
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _converse(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        assert self._queue is not None
        try:
            raw = await reader.readline()
        except ValueError:
            # The reader's limit: a request line over MAX_REQUEST_BYTES.
            # Answer it, then drop the rest of the line, so that closing
            # does not reset the connection under the reply.
            writer.write(encode_line({
                "event": "error", "job": None,
                "message": f"request line exceeds {MAX_REQUEST_BYTES} bytes",
            }))
            await writer.drain()
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk or b"\n" in chunk:
                    return
        if not raw:
            return
        try:
            kind, params = validate_request(decode_line(raw))
        except ConfigurationError as error:
            writer.write(encode_line({
                "event": "error", "job": None, "message": str(error),
            }))
            await writer.drain()
            return
        job = _Job(next(self._ids), kind, params)
        position = self._queue.qsize()
        await self._queue.put(job)
        writer.write(encode_line({
            "event": "queued", "job": job.id, "position": position,
            "version": PROTOCOL_VERSION,
        }))
        await writer.drain()
        started_at: "float | None" = None
        while True:
            try:
                event = await asyncio.wait_for(
                    job.events.get(), timeout=self.heartbeat_s
                )
            except asyncio.TimeoutError:
                if started_at is not None:
                    # Heartbeat: elapsed wall time plus the store's live
                    # counters, so a client can watch warmth build.
                    writer.write(encode_line({
                        "event": "progress", "job": job.id,
                        "elapsed_ms": int(
                            1000.0 * (time.perf_counter() - started_at)
                        ),
                        "store": self.runner.cache.stats(),
                    }))
                    await writer.drain()
                continue
            if event["event"] == "started":
                started_at = time.perf_counter()
            writer.write(encode_line(event))
            await writer.drain()
            if event["event"] in ("done", "error"):
                return


class BackgroundServer:
    """Run a :class:`ResultServer` on a daemon thread (tests, benches,
    and the CI smoke script).

    Context-manager use::

        with BackgroundServer(ResultServer(runner)) as server:
            ServeClient("127.0.0.1", server.port).submit("sweep", ...)
    """

    def __init__(self, server: "ResultServer | None" = None) -> None:
        self.server = server if server is not None else ResultServer()
        self._ready = threading.Event()
        self._startup_error: "BaseException | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop: "asyncio.Event | None" = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:  # surface bind failures to start()
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.close()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
