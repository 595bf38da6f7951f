"""Asyncio HTTP front end: advisor sessions served over the wire.

The paper frames WARLOCK as an *interactive* what-if advisor an administrator
probes repeatedly against one warehouse.  This module serves that interaction
over HTTP on the standard library alone: an :func:`asyncio.start_server`
listener parses requests, a :class:`~repro.service.registry.SessionRegistry`
maps each warehouse onto one warm :class:`~repro.api.AdvisorSession`, and a
bounded :class:`~repro.service.executor.RequestExecutor` runs the submits on
worker threads so the event loop never blocks on a sweep.

Endpoints (one request per connection, ``Connection: close``):

=======  ==============================  ==========================================
method   path                            behaviour
=======  ==============================  ==========================================
GET      ``/healthz``                    liveness probe (registry/executor stats)
GET      ``/warehouses``                 registered warehouses + session states
PUT      ``/warehouses/{name}``          register a warehouse (JSON body: the CLI
                                         config format, or ``{"dataset": ...}``)
DELETE   ``/warehouses/{name}``          drop the registration, close its session
POST     ``/warehouses/{name}/submit``   serve one advisor request (the
                                         ``to_dict`` form of
                                         :mod:`repro.api.requests`)
=======  ==============================  ==========================================

``POST .../submit`` answers JSON by default.  With ``?stream=1`` or
``Accept: text/event-stream`` it streams Server-Sent Events instead: one
``progress`` frame per :class:`~repro.api.ProgressEvent` (the engine's chunk
boundaries, composite "sweep k of n" for tune/simulate), then one ``result``
frame with the full response, then ``done``.  A client that disconnects
mid-stream flips the request's :class:`~repro.api.CancellationToken`: the
sweep stops cooperatively at its next chunk boundary and every completed
evaluation stays in the session cache (content-addressed, so the next request
resumes warm) — abandoning a browser tab never wastes the work it paid for.

A response is encoded on the worker that ran the request, after the session
lock is released, so a recommendation's fingerprint never stalls the event
loop; the loop only writes bytes.  A recommendation's JSON text is kept on
its result (:attr:`~repro.api.RecommendResult.json_text`), and a candidate's
on the candidate (:attr:`~repro.core.FragmentationCandidate.json_text`), so a
memoized ``recommend`` or a warm ``evaluate_spec`` is encoded once however
often it is asked.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.api.options import EngineOptions
from repro.api.progress import CancellationToken
from repro.api.requests import request_from_dict
from repro.api.results import EvaluateSpecResult, RecommendResult
from repro.core.config import AdvisorConfig
from repro.errors import EvaluationCancelled, ServiceError, WarlockError
from repro.service.executor import RequestExecutor
from repro.service.registry import SessionRegistry

__all__ = ["AdvisorServer", "warehouse_inputs_from_dict"]

#: Upper bound on accepted request bodies (a config for a big schema is KBs).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Status lines for the responses the server actually produces.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    499: "Client Closed Request",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _response_json(result: Any, kind: Any = None, with_kind: bool = True) -> str:
    """``json.dumps`` of a request's response object, built from its parts.

    The response is ``{"kind": ..., "result": result.to_dict(),
    "fingerprint": ...}``: the SSE ``result`` frame leaves ``kind`` out, and
    only a recommendation has a fingerprint.  The result text of a
    recommendation or a single evaluation is the JSON text its result or
    candidate keeps, not a fresh encoding.
    """
    members = ['"kind": ' + json.dumps(kind)] if with_kind else []
    if isinstance(result, RecommendResult):
        members.append('"result": ' + result.json_text)
        members.append('"fingerprint": ' + json.dumps(result.fingerprint))
    elif isinstance(result, EvaluateSpecResult):
        members.append('"result": ' + result.candidate.json_text)
    else:
        members.append('"result": ' + json.dumps(result.to_dict()))
    return "{" + ", ".join(members) + "}"


def warehouse_inputs_from_dict(raw: Dict[str, Any]) -> Tuple[Any, Any, Any, Any, Dict]:
    """Parse a warehouse registration body.

    Two forms are accepted: the CLI's JSON configuration format (``schema`` /
    ``workload`` / ``system`` blocks, see ``warlock example-config``) or the
    bundled-dataset shorthand ``{"dataset": "apb1"|"retail", "scale": ...,
    "skew": ..., "disks": ..., "architecture": ...}``.  Both may carry an
    ``advisor`` block (:class:`~repro.core.AdvisorConfig` fields) and an
    ``engine`` block (:class:`~repro.api.EngineOptions` overrides).

    Returns ``(schema, workload, system, config, engine_overrides)``.
    """
    from repro.io.config import (
        BUNDLED_DATASETS,
        bundled_inputs,
        engine_section_from_dict,
        numeric_field,
        parse_config,
    )

    if "dataset" in raw:
        dataset = raw["dataset"]
        if dataset not in BUNDLED_DATASETS:
            raise ServiceError(f"unknown dataset {dataset!r} (apb1 or retail)")
        # Knobs the body leaves out take the bundled defaults; a wrong-typed
        # knob is a 400.
        try:
            knobs = {
                key: numeric_field(raw, key, None, convert)
                for key, convert in (("scale", float), ("skew", float), ("disks", int))
                if key in raw
            }
        except ValueError as error:
            raise ServiceError(str(error)) from None
        if "architecture" in raw:
            knobs["architecture"] = raw["architecture"]
        schema, workload, system = bundled_inputs(dataset, **knobs)
    else:
        schema, workload, system = parse_config(raw)
    config = None
    if raw.get("advisor"):
        try:
            config = AdvisorConfig(**raw["advisor"])
        except TypeError as error:
            raise ServiceError(f"invalid advisor block: {error}")
    engine = engine_section_from_dict(raw)
    return schema, workload, system, config, engine


class AdvisorServer:
    """The advisor-as-a-service front end (stdlib asyncio, no hard deps)."""

    def __init__(
        self,
        registry: Optional[SessionRegistry] = None,
        executor: Optional[RequestExecutor] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self.registry = registry if registry is not None else SessionRegistry()
        self.executor = executor if executor is not None else RequestExecutor()
        self.host = host
        self.port = port
        #: Default engine options for warehouses registered over HTTP (their
        #: ``engine`` block overrides individual fields).
        self.options = options if options is not None else EngineOptions()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_requested = threading.Event()
        #: Connection handlers that have read a whole request and not yet
        #: answered it: stop_async() waits for them.
        self._requests: "Set[asyncio.Task[Any]]" = set()
        #: Requests served, by outcome (monotone counters for /healthz).
        self.served = 0
        self.cancelled = 0

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener (``port=0`` picks a free port, reported back)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.executor.start()

    async def stop_async(self) -> None:
        """Close the listener, answer every accepted request, then the sessions.

        The workers are joined off the event loop, which meanwhile writes
        the answers of the jobs they finish; a job still queued fails with a
        503.  The sessions are closed last, once every request that had been
        read is answered, so no worker rebuilds a session after they close.
        """
        if self._server is not None:
            self._server.close()
            self._server = None
        await asyncio.to_thread(self.executor.shutdown)
        while self._requests:
            await asyncio.wait(set(self._requests))
        self.registry.close()

    async def serve_until(
        self, shutdown=None, poll_interval: float = 0.1, on_ready=None
    ) -> None:
        """Serve until ``shutdown`` (a cancel signal) fires or stop() is called."""
        from repro.api.progress import cancel_requested

        await self.start()
        if on_ready is not None:
            on_ready(self)
        try:
            while not self._stop_requested.is_set():
                if shutdown is not None and cancel_requested(shutdown):
                    break
                await asyncio.sleep(poll_interval)
        finally:
            await self.stop_async()

    def run(self, shutdown=None, on_ready=None) -> None:
        """Blocking entry point (the CLI ``serve`` command)."""
        asyncio.run(self.serve_until(shutdown=shutdown, on_ready=on_ready))

    def start_in_background(self, timeout: float = 10.0) -> "AdvisorServer":
        """Run the server on a daemon thread; returns once the port is bound.

        The test-and-benchmark harness: callers talk to ``self.port`` over
        real sockets and call :meth:`stop` to tear down.
        """
        ready = threading.Event()

        def _runner() -> None:
            try:
                asyncio.run(
                    self.serve_until(poll_interval=0.05, on_ready=lambda _: ready.set())
                )
            finally:
                ready.set()  # unblock the waiter on a failed bind too

        self._thread = threading.Thread(
            target=_runner, name="advisor-http-server", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout) or self._server is None and self.port == 0:
            raise ServiceError("advisor server failed to start", status=500)
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop a background server started with :meth:`start_in_background`."""
        self._stop_requested.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.host}:{self.port}"

    # -- connection handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        try:
            try:
                method, path, query, headers, body = await self._read_request(reader)
            except ServiceError as error:
                await self._write_json(writer, error.status, {"error": str(error)})
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return  # malformed or aborted before a full request: nothing to answer
            if handler is not None:
                self._requests.add(handler)
            try:
                await self._dispatch(reader, writer, method, path, query, headers, body)
            except ServiceError as error:
                await self._write_json(writer, error.status, {"error": str(error)})
            except WarlockError as error:
                await self._write_json(
                    writer, 400, {"error": str(error), "type": type(error).__name__}
                )
            except (ConnectionError, BrokenPipeError):
                pass  # client went away mid-response; cancellation already handled
            except Exception as error:  # pragma: no cover - defensive catch-all
                try:
                    await self._write_json(
                        writer, 500, {"error": f"internal error: {error}"}
                    )
                except Exception:
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass
            if handler is not None:
                self._requests.discard(handler)

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line:
            raise ValueError("empty request")
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            raise ServiceError("malformed request line", status=400)
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        # The request line is read, so a malformed length can be answered.
        length_text = headers.get("content-length") or "0"
        if not (length_text.isascii() and length_text.isdigit()):
            raise ServiceError(f"invalid Content-Length {length_text!r}", status=400)
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            raise ServiceError(f"request body over {MAX_BODY_BYTES} bytes", status=413)
        body = await reader.readexactly(length) if length else b""
        parts = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        return method.upper(), parts.path.rstrip("/") or "/", query, headers, body

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, Any]:
        if not body:
            raise ServiceError("request body must be a JSON object")
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError) as error:
            # Undecodable bytes and bad JSON raise ValueErrors; a body nested
            # past the recursion limit raises RecursionError.
            raise ServiceError(f"invalid JSON body: {error}")
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    # -- routing ----------------------------------------------------------------

    async def _dispatch(self, reader, writer, method, path, query, headers, body):
        if path == "/healthz" and method == "GET":
            await self._write_json(
                writer,
                200,
                {
                    "status": "ok",
                    "served": self.served,
                    "cancelled": self.cancelled,
                    "pending": self.executor.pending,
                    "live_sessions": self.registry.live_sessions,
                    "store": self.registry.store_health(),
                },
            )
            return
        if path == "/warehouses" and method == "GET":
            await self._write_json(writer, 200, self.registry.describe())
            return
        parts = [part for part in path.split("/") if part]
        if len(parts) == 2 and parts[0] == "warehouses":
            name = parts[1]
            if method == "PUT":
                await self._register_warehouse(writer, name, body)
                return
            if method == "DELETE":
                removed = self.registry.remove(name)
                await self._write_json(writer, 200 if removed else 404,
                                       {"removed": removed, "name": name})
                return
            raise ServiceError(f"method {method} not allowed here", status=405)
        if len(parts) == 3 and parts[0] == "warehouses" and parts[2] == "submit":
            if method != "POST":
                raise ServiceError(f"method {method} not allowed here", status=405)
            await self._submit(reader, writer, parts[1], query, headers, body)
            return
        raise ServiceError(f"no route for {method} {path}", status=404)

    async def _register_warehouse(self, writer, name: str, body: bytes) -> None:
        payload = self._json_body(body)
        schema, workload, system, config, engine = warehouse_inputs_from_dict(payload)
        options = self.options.replace(**engine) if engine else self.options
        entry = self.registry.register(
            name, schema, workload, system, config=config, options=options
        )
        await self._write_json(writer, 200, {"registered": entry.describe()})

    # -- request execution ------------------------------------------------------

    async def _submit(self, reader, writer, name, query, headers, body) -> None:
        payload = self._json_body(body)
        try:
            request = request_from_dict(payload)
        except TypeError as error:
            # Unknown/missing fields surface as dataclass constructor errors;
            # they are the client's malformed body, not a server fault.
            raise ServiceError(f"invalid request body: {error}")
        entry = self.registry.acquire(name)
        stream = query.get("stream") not in (None, "0", "false") or (
            "text/event-stream" in headers.get("accept", "")
        )
        loop = asyncio.get_running_loop()
        events: "asyncio.Queue[Tuple[str, Any]]" = asyncio.Queue()
        token = CancellationToken()

        def emit(event) -> None:
            # Worker thread → event loop: hop through call_soon_threadsafe.
            loop.call_soon_threadsafe(events.put_nowait, ("progress", event.to_dict()))

        def run() -> bytes:
            # One request at a time per session: the evaluation cache is not
            # thread-safe, and serializing here keeps every session's warmth
            # (memo, cache) consistent under concurrent clients.
            with entry.lock:
                session = entry.ensure_session()
                result = session.submit(
                    request, on_progress=emit if stream else None, cancel=token
                )
            # Encoded here, on the worker and outside the session lock: the
            # fingerprint of a fresh recommendation must not stall the event
            # loop, nor hold up the session's next request.
            if stream:
                text = _response_json(result, with_kind=False)
                return f"event: result\ndata: {text}\n\n".encode()
            return _response_json(result, payload.get("kind")).encode()

        job = self.executor.submit(
            run,
            label=f"{name}:{payload.get('kind', '?')}",
            on_done=lambda: loop.call_soon_threadsafe(events.put_nowait, ("done", None)),
            cancel=token,
        )
        # From here on the client has sent its full request; any further read
        # returns data we ignore — EOF means the client hung up, which turns
        # into a cooperative cancel at the next chunk boundary.
        watchdog = asyncio.create_task(self._cancel_on_disconnect(reader, token))
        try:
            if stream:
                await self._stream_response(writer, events, job, token)
            else:
                while True:
                    kind, _data = await events.get()
                    if kind == "done":
                        break
                await self._finish_plain(writer, job)
        finally:
            watchdog.cancel()

    async def _cancel_on_disconnect(self, reader, token: CancellationToken) -> None:
        try:
            while True:
                data = await reader.read(4096)
                if not data:
                    break
        except (ConnectionError, asyncio.CancelledError):
            return  # cancelled by normal completion, or reset already handled
        except Exception:  # pragma: no cover - any transport error = hung up
            pass
        token.cancel()
        self.cancelled += 1

    async def _finish_plain(self, writer, job) -> None:
        try:
            body = job.outcome()
        except EvaluationCancelled as error:
            # A deadline-tripped cancel is the server's 504; every other
            # cancel came from the client hanging up (499).  Either way the
            # session's completed entries stay warm for a retry.
            status = 504 if job.timed_out else 499
            await self._write_json(writer, status, {"error": str(error)})
            return
        self.served += 1
        await self._write_body(writer, 200, body)

    async def _stream_response(self, writer, events, job, token) -> None:
        headers = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        writer.write(headers)
        disconnected = False
        while True:
            kind, data = await events.get()
            if kind == "done":
                break
            if disconnected:
                continue  # drain remaining frames; the cancel is already set
            frame = f"event: progress\ndata: {json.dumps(data)}\n\n".encode()
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                # The client hung up between watchdog polls: same contract.
                token.cancel()
                self.cancelled += 1
                disconnected = True
        if disconnected:
            return
        try:
            final = job.outcome()
            self.served += 1
        except EvaluationCancelled as error:
            cause = "deadline" if job.timed_out else "cancelled"
            final = self._error_frame({"error": str(error), "cause": cause})
        except WarlockError as error:
            final = self._error_frame({"error": str(error), "type": type(error).__name__})
        try:
            writer.write(final)
            writer.write(b"event: done\ndata: {}\n\n")
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass

    # -- response writing -------------------------------------------------------

    @staticmethod
    def _error_frame(payload: Dict[str, Any]) -> bytes:
        return f"event: error\ndata: {json.dumps(payload)}\n\n".encode()

    async def _write_json(self, writer, status: int, payload: Dict[str, Any]) -> None:
        await self._write_body(writer, status, json.dumps(payload).encode())

    async def _write_body(self, writer, status: int, body: bytes) -> None:
        reason = _REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
