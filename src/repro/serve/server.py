"""The asyncio job-queue server behind ``repro serve``.

One :class:`ResultServer` owns one shared
:class:`~repro.sweep.runner.SweepRunner` (and through it one
:class:`~repro.store.ResultStore`). Connections are accepted
concurrently, but jobs execute **one at a time** from a FIFO queue —
parallelism belongs *inside* a job (the runner's backend), not across
jobs, which is what makes results reproducible: identical jobs against
the same starting store state return identical bytes regardless of how
many clients are connected.

A job that may evaluate runs in a worker thread (``asyncio.to_thread``)
so the event loop stays responsive: while it computes, the owning
connection receives ``progress`` heartbeats carrying elapsed time and
live store counters, and other clients can still connect and queue.
A *warm replay* -- a request whose last run here read every scenario
from the store -- runs on the loop thread itself: it is a few
milliseconds of lookups, and the hand-off to a thread and back costs
about as much again, more on a loaded machine. A replay whose entries
were evicted meanwhile evaluates on the loop, with no heartbeats, and
goes back to the thread next time. The loop writes a job's ``started``
line before the job runs and its ``done`` line as soon as it ends, both
before the next job starts, so no line waits for the interpreter lock
behind another job.

The store's stats reach its ``.stats/`` shard within
:data:`STATS_FLUSH_S` of a job's end (jobs that end in the
meantime share one write) and once more on close, so the shared
directory's lifetime hit/miss totals survive server restarts without a
file write on every warm job.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from collections import OrderedDict
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

#: Longest lag [s] of the persisted store stats behind a job's end.
STATS_FLUSH_S = 1.0

#: Warm replays remembered (least recently run forgotten first).
MAX_WARM_REPLAYS = 1024

#: Longest request line accepted (a request is one JSON object naming a
#: preset and a few scalars — far below this; the limit bounds memory
#: against a misbehaving client).
MAX_REQUEST_BYTES = 1 << 20


@dataclass
class _Job:
    """One queued request and the connection its events go to."""

    id: int
    kind: str
    params: "dict[str, Any]"
    writer: asyncio.StreamWriter
    #: ``perf_counter`` time the worker started the job (``None`` while
    #: it waits in the queue).
    started_at: "float | None" = None
    #: Resolved once the job's last event is written.
    finished: "asyncio.Future[None]" = field(
        default_factory=lambda: asyncio.get_running_loop().create_future()
    )

    def send(self, event: "dict[str, Any]") -> None:
        """Write one event line now, unless the client went away."""
        if not self.writer.is_closing():
            self.writer.write(encode_line(event))


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
        self._stats_flush: "Optional[asyncio.TimerHandle]" = None
        #: Request lines of the warm replays (see the module docstring).
        self._warm: "OrderedDict[bytes, None]" = OrderedDict()

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
        """Stop accepting, cancel the worker, release the socket, and
        write any stats a pending flush still owes."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
        if self._stats_flush is not None:
            self._stats_flush.cancel()
            self._flush_store_stats()

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
            job.started_at = time.perf_counter()
            job.send({"event": "started", "job": job.id})
            request = encode_line({"kind": job.kind, "params": job.params})
            warm = request in self._warm
            self._warm.pop(request, None)
            try:
                if warm:
                    result = run_job(job.kind, job.params, self.runner)
                else:
                    result = await asyncio.to_thread(
                        run_job, job.kind, job.params, self.runner
                    )
            except asyncio.CancelledError:
                raise
            except ConfigurationError as error:
                self.jobs_failed += 1
                obs.inc("serve.errors")
                job.send({
                    "event": "error", "job": job.id, "message": str(error),
                })
            except Exception as error:  # noqa: BLE001 — server must survive
                self.jobs_failed += 1
                obs.inc("serve.errors")
                job.send({
                    "event": "error", "job": job.id,
                    "message": f"{type(error).__name__}: {error}",
                })
            else:
                self.jobs_completed += 1
                obs.inc("serve.jobs")
                if result.get("store", {}).get("misses") == 0:
                    self._warm[request] = None
                    if len(self._warm) > MAX_WARM_REPLAYS:
                        self._warm.popitem(last=False)
                job.send({
                    "event": "done", "job": job.id, "result": result,
                })
            finally:
                if not job.finished.done():
                    job.finished.set_result(None)
                self._schedule_stats_flush()
                self._queue.task_done()

    def _schedule_stats_flush(self) -> None:
        """Persist the store's counters :data:`STATS_FLUSH_S` from now,
        unless a write is already pending: it also covers this job."""
        if self._stats_flush is None:
            self._stats_flush = asyncio.get_running_loop().call_later(
                STATS_FLUSH_S, self._flush_store_stats
            )

    def _flush_store_stats(self) -> None:
        """Persist the shared store's counters (best effort).

        A write that lands while a job runs holds that job's counts so
        far; the shard is overwritten whole, so the next write (at the
        latest on close) brings it up to date.
        """
        self._stats_flush = None
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
        job = _Job(next(self._ids), kind, params, writer)
        job.send({
            "event": "queued", "job": job.id,
            "position": self._queue.qsize(), "version": PROTOCOL_VERSION,
        })
        await self._queue.put(job)
        await writer.drain()
        # The worker writes the started and done (or error) lines; this
        # connection adds heartbeats while the job runs.
        while True:
            try:
                await asyncio.wait_for(
                    asyncio.shield(job.finished), timeout=self.heartbeat_s
                )
            except asyncio.TimeoutError:
                if job.started_at is not None:
                    # Heartbeat: elapsed wall time plus the store's live
                    # counters, so a client can watch warmth build.
                    job.send({
                        "event": "progress", "job": job.id,
                        "elapsed_ms": int(
                            1000.0 * (time.perf_counter() - job.started_at)
                        ),
                        "store": self.runner.cache.stats(),
                    })
                    await writer.drain()
                continue
            await writer.drain()
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
