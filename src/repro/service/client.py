"""Stdlib client for the anonymization daemon.

Used by the ``repro-anonymize submit`` subcommand and the test suite;
kept dependency-free (:mod:`http.client` only) so anything that can run
the anonymizer can also talk to it.  Supports both transports:

    client = ServiceClient("http://127.0.0.1:8753")
    client = ServiceClient(unix_socket="/run/repro.sock")

    session = client.create_session("owner-secret")
    client.freeze(session["id"], {"rtr1.conf": text1, "rtr2.conf": text2})
    result = client.anonymize(session["id"], text1, source="rtr1.conf")
    result["text"]              # anonymized bytes
    result["report"]["flags"]   # leak-highlight lines for human review
    client.delete_session(session["id"])

``anonymize`` can also stream: pass ``chunks=<iterable of str>`` and the
body goes out chunked (``Transfer-Encoding: chunked``), so a corpus can
be piped through without materializing each file twice.

:class:`RetryingServiceClient` layers crash-safety on top: bounded
exponential backoff with jitter for transient failures (backpressure,
dropped connections, a daemon mid-restart), ``Retry-After`` honored,
an optional per-request deadline, idempotency keys derived from each
file's content digest (:mod:`repro.core.digests`) so a resubmission
after an ambiguous failure returns the daemon's journaled result, and
automatic session resume when a restarted daemon answers 404 with
``"recoverable": true``.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple
from urllib.parse import urlparse

from repro.core.digests import idempotency_key_for

__all__ = [
    "MAX_RETRY_AFTER",
    "RetryPolicy",
    "RetryingServiceClient",
    "ServiceClient",
    "ServiceClientError",
    "ServiceUnavailableError",
]

#: Cap on an honored ``Retry-After`` header, in seconds.  A malformed,
#: non-finite, negative, or absurdly large value (a buggy or hostile
#: server must not be able to park the client for an hour) is treated as
#: absent and the bounded backoff schedule applies instead.
MAX_RETRY_AFTER = 60.0


def _parse_retry_after(header: Optional[str]) -> Optional[float]:
    """A usable ``Retry-After`` value, or None to fall back to backoff."""
    if not header:
        return None
    try:
        value = float(header)
    except (TypeError, ValueError):
        # Includes the HTTP-date form, which this stdlib-only client
        # does not parse — backoff is a safe substitute.
        return None
    if not math.isfinite(value) or value < 0 or value > MAX_RETRY_AFTER:
        return None
    return value


class ServiceClientError(RuntimeError):
    """The daemon answered with an error status.

    ``retry_after`` carries the daemon's ``Retry-After`` header (seconds,
    or None); ``recoverable`` is True when a 404 body flagged the session
    as resumable from durable state.
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
        recoverable: bool = False,
    ):
        super().__init__("HTTP {}: {}".format(status, message))
        self.status = status
        self.message = message
        self.retry_after = retry_after
        self.recoverable = recoverable


class ServiceUnavailableError(ServiceClientError):
    """Backpressure: the daemon answered 429 or 503 (retryable)."""


class _UnixHTTPConnection(http.client.HTTPConnection):
    def __init__(self, socket_path: str, timeout: Optional[float] = None):
        super().__init__("localhost", timeout=timeout)
        self._socket_path = socket_path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._socket_path)
        self.sock = sock


class _StaleConnectionError(Exception):
    """A pooled keep-alive connection died between requests (internal)."""


class ServiceClient:
    """A keep-alive client with per-thread pooled connections.

    Each thread owns its connections (thread-safe by construction:
    concurrent callers never share a connection object), and each
    connection is reused across requests — against the threaded daemon
    this removes a TCP handshake per request; against the pre-fork
    daemon it additionally *pins* the thread to one worker, so a
    session created there never pays a redirect.

    Two sharding behaviors are built in:

    * A ``307`` answer (the request landed on a worker that does not own
      the session's shard) is followed once to the ``Location`` /
      ``X-Repro-Shard`` target, and the session → shard affinity is
      remembered so every later request for that session goes direct.
    * A reused connection that turns out to be stale (the daemon closed
      it while parked: drain, worker respawn, idle timeout) is replaced
      and the request replayed exactly once — only when the body is
      replayable bytes, never a consumed stream.
    """

    #: Failures that mean "the parked connection is gone", as opposed to
    #: "the daemon answered and then closed".
    _STALE_ERRORS = (
        http.client.RemoteDisconnected,
        ConnectionResetError,
        BrokenPipeError,
    )

    def __init__(
        self,
        base_url: Optional[str] = None,
        unix_socket: Optional[str] = None,
        timeout: float = 300.0,
    ):
        if (base_url is None) == (unix_socket is None):
            raise ValueError("pass exactly one of base_url or unix_socket")
        if base_url is not None and base_url.startswith("unix://"):
            unix_socket = base_url[len("unix://"):]
            base_url = None
        self._unix_socket = unix_socket
        self.timeout = timeout
        if base_url is not None:
            parsed = urlparse(base_url)
            if parsed.scheme != "http" or not parsed.hostname:
                raise ValueError(
                    "base_url must look like http://host:port, got "
                    "{!r}".format(base_url)
                )
            self._host = parsed.hostname
            self._port = parsed.port or 80
        else:
            self._host = self._port = None
        self._local = threading.local()
        #: session id -> (host, port) learned from 307 redirects; shared
        #: across threads (it is pure routing state, last-write-wins).
        self._affinity: Dict[str, Tuple[str, int]] = {}
        self._affinity_lock = threading.Lock()

    # -- the connection pool (per thread) --------------------------------

    def _pool(self) -> Dict:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        return pool

    def _checkout(self, target) -> Tuple[http.client.HTTPConnection, bool]:
        """A pooled connection for *target* and whether it is fresh."""
        pool = self._pool()
        connection = pool.get(target)
        if connection is not None:
            return connection, False
        if target[0] is None:
            connection = _UnixHTTPConnection(target[1], timeout=self.timeout)
        else:
            connection = http.client.HTTPConnection(
                target[0], target[1], timeout=self.timeout
            )
        pool[target] = connection
        return connection, True

    def _discard(self, target, connection) -> None:
        if self._pool().get(target) is connection:
            self._pool().pop(target, None)
        try:
            connection.close()
        except Exception:
            pass

    def close(self) -> None:
        """Close this thread's pooled connections (others keep theirs)."""
        pool = self._pool()
        for target in list(pool):
            self._discard(target, pool[target])

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shard routing ----------------------------------------------------

    @staticmethod
    def _session_id_in(path: str) -> Optional[str]:
        parts = [part for part in path.split("?", 1)[0].split("/") if part]
        if len(parts) >= 2 and parts[0] == "sessions":
            return parts[1]
        return None

    def _target_for(self, path: str) -> Tuple:
        if self._unix_socket is not None:
            return (None, self._unix_socket)
        session_id = self._session_id_in(path)
        if session_id is not None:
            with self._affinity_lock:
                pinned = self._affinity.get(session_id)
            if pinned is not None:
                return pinned
        return (self._host, self._port)

    def _pin_affinity(self, session_id: str, target: Tuple[str, int]) -> None:
        with self._affinity_lock:
            self._affinity[session_id] = target

    @staticmethod
    def _replayable(body, chunked: bool) -> bool:
        return not chunked and (
            body is None or isinstance(body, (bytes, bytearray, str))
        )

    # -- request plumbing -------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body=None,
        headers: Optional[Dict[str, str]] = None,
        chunked: bool = False,
    ):
        target = self._target_for(path)
        redirects = 0
        while True:
            response, payload = self._request_once(
                target, method, path, body, headers, chunked
            )
            if response.status != 307:
                break
            location = response.getheader("Location")
            if not location or redirects >= 2:
                raise ServiceClientError(
                    307, "redirect loop talking to the sharded daemon"
                )
            parsed = urlparse(location)
            target = (parsed.hostname, parsed.port or 80)
            session_id = self._session_id_in(path)
            if session_id is not None:
                # From now on this session's requests go direct to the
                # owning worker — one redirect per session, ever.
                self._pin_affinity(session_id, target)
            if not self._replayable(body, chunked):
                raise ServiceClientError(
                    307,
                    "request for shard {} landed on the wrong worker and "
                    "its streamed body cannot be replayed; retry (the "
                    "shard affinity is now pinned)".format(
                        response.getheader("X-Repro-Shard")
                    ),
                )
            redirects += 1
        if response.status >= 400:
            document: Dict = {}
            try:
                document = json.loads(payload.decode("utf-8"))
                message = document["error"]
            except (ValueError, KeyError, UnicodeDecodeError):
                message = payload.decode("utf-8", errors="replace")[:200]
            if not isinstance(document, dict):
                document = {}
            retry_after = _parse_retry_after(
                response.getheader("Retry-After")
            )
            # 507 is the disk-degraded park: the daemon rolled the write
            # back cleanly and asked for a retry, so it is as transient
            # as backpressure.
            cls = (
                ServiceUnavailableError
                if response.status in (429, 503, 507)
                else ServiceClientError
            )
            raise cls(
                response.status,
                message,
                retry_after=retry_after,
                recoverable=bool(document.get("recoverable", False)),
            )
        return response, payload

    def _request_once(
        self, target, method, path, body, headers, chunked: bool
    ):
        """One exchange on a pooled connection, replacing a stale one.

        A *reused* connection that fails with a disconnect-class error
        before any response bytes arrive is almost always one the daemon
        closed while it was parked; it is replaced and the request
        replayed exactly once (replayable bodies only).  A *fresh*
        connection failing the same way is a real error and propagates.
        """
        replayed = False
        while True:
            connection, fresh = self._checkout(target)
            may_replay = (
                not fresh and not replayed and self._replayable(body, chunked)
            )
            try:
                try:
                    connection.request(
                        method,
                        path,
                        body=body,
                        headers=headers or {},
                        encode_chunked=chunked,
                    )
                except self._STALE_ERRORS:
                    if may_replay:
                        raise _StaleConnectionError()
                    if connection.sock is None:
                        # Reset while connecting (a daemon dying with
                        # the SYN in its backlog): no response to read.
                        raise
                    # The daemon may have rejected the body mid-stream
                    # (413) and closed its read side; its early response
                    # is usually still in our receive buffer — read it
                    # instead of losing the status code.
                    pass
                response = connection.getresponse()
                payload = response.read()
            except _StaleConnectionError:
                self._discard(target, connection)
                replayed = True
                continue
            except self._STALE_ERRORS:
                self._discard(target, connection)
                if may_replay:
                    replayed = True
                    continue
                raise
            except Exception:
                self._discard(target, connection)
                raise
            if response.will_close:
                self._discard(target, connection)
            return response, payload

    def _json(self, method: str, path: str, document=None):
        body = None
        headers = {}
        if document is not None:
            body = json.dumps(document).encode("utf-8")
            headers["Content-Type"] = "application/json"
        _, payload = self._request(method, path, body=body, headers=headers)
        return json.loads(payload.decode("utf-8")) if payload else None

    # -- operations ------------------------------------------------------

    def healthz(self) -> Dict:
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        _, payload = self._request("GET", "/metrics")
        return payload.decode("utf-8")

    # -- session lifecycle ----------------------------------------------

    def create_session(
        self,
        salt: str,
        options: Optional[Dict] = None,
        state: Optional[Dict] = None,
    ) -> Dict:
        document: Dict = {"salt": salt}
        if options:
            document["options"] = options
        if state is not None:
            document["state"] = state
        return self._json("POST", "/sessions", document)

    def sessions(self) -> Dict:
        return self._json("GET", "/sessions")

    def session(self, session_id: str) -> Dict:
        return self._json("GET", "/sessions/{}".format(session_id))

    def delete_session(self, session_id: str) -> Dict:
        return self._json("DELETE", "/sessions/{}".format(session_id))

    def resume_session(self, salt: str, session_id: str) -> Dict:
        """Resume a recovered session on a restarted daemon.

        The daemon verifies the salt against the stored fingerprint and
        replays the session's journal; idempotent if already live.
        """
        return self._json(
            "POST", "/sessions", {"salt": salt, "resume": session_id}
        )

    def freeze(self, session_id: str, files: Dict[str, str]) -> Dict:
        return self._json(
            "POST", "/sessions/{}/freeze".format(session_id), {"files": files}
        )

    # -- anonymization ---------------------------------------------------

    def anonymize(
        self,
        session_id: str,
        text: Optional[str] = None,
        source: str = "<config>",
        chunks: Optional[Iterable[str]] = None,
        idempotency_key: Optional[str] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Dict:
        """Anonymize one file; pass *text* whole or stream it as *chunks*."""
        if (text is None) == (chunks is None):
            raise ValueError("pass exactly one of text or chunks")
        path = "/sessions/{}/anonymize".format(session_id)
        headers = {"X-Repro-Source": source, "Content-Type": "text/plain"}
        if extra_headers:
            headers.update(extra_headers)
        if idempotency_key:
            headers["X-Repro-Idempotency-Key"] = idempotency_key
        if chunks is not None:
            body = (chunk.encode("utf-8") for chunk in chunks)
            headers["Transfer-Encoding"] = "chunked"
            _, payload = self._request(
                "POST", path, body=body, headers=headers, chunked=True
            )
        else:
            _, payload = self._request(
                "POST", path, body=text.encode("utf-8"), headers=headers
            )
        return json.loads(payload.decode("utf-8"))

    # -- state persistence ----------------------------------------------

    def export_state(self, session_id: str) -> Dict:
        return self._json("GET", "/sessions/{}/state".format(session_id))

    def import_state(self, session_id: str, state: Dict) -> Dict:
        return self._json(
            "PUT", "/sessions/{}/state".format(session_id), state
        )


@dataclass
class RetryPolicy:
    """Bounded exponential backoff with jitter.

    ``deadline`` (seconds, measured per request from the first attempt)
    caps the total time spent retrying one operation — a retry whose
    backoff would overrun the deadline is not attempted.
    """

    max_attempts: int = 5
    base_delay: float = 0.1
    max_delay: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.1
    deadline: Optional[float] = None

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The sleep before retry *attempt* (1-based), jittered."""
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class RetryingServiceClient(ServiceClient):
    """A :class:`ServiceClient` that survives daemon restarts.

    Three mechanisms compose into exactly-once *effects* over an
    at-least-once wire:

    * transient failures (429/503 backpressure, dropped connections,
      connection-refused while the daemon restarts) are retried under
      :class:`RetryPolicy`, honoring ``Retry-After``;
    * every ``anonymize`` carries an idempotency key derived from the
      file's content digest, so a resubmission after an *ambiguous*
      failure (connection dropped after the daemon committed) returns
      the journaled result instead of re-running the request;
    * a 404 flagged ``"recoverable": true`` triggers an automatic
      session resume (re-presenting *salt*) and the operation repeats
      against the restored session.

    ``sleep``/``rng``/``clock`` are injectable so tests can drive the
    backoff schedule deterministically without real waiting.
    """

    #: Transient failures worth retrying: backpressure responses plus
    #: any transport-level breakage (refused, reset, torn response).
    RETRYABLE = (ServiceUnavailableError, OSError, http.client.HTTPException)

    def __init__(
        self,
        base_url: Optional[str] = None,
        unix_socket: Optional[str] = None,
        timeout: float = 300.0,
        salt: Optional[str] = None,
        policy: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(
            base_url=base_url, unix_socket=unix_socket, timeout=timeout
        )
        self.salt = salt
        self.policy = policy or RetryPolicy()
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._clock = clock
        #: Failures absorbed by the retry loop / resume path.  The
        #: corpus fan-out layer reads these to count failovers that the
        #: per-shard client rode out invisibly (a worker respawn healed
        #: by a stale-connection replay plus an auto-resume would
        #: otherwise never surface).
        self.retries = 0
        self.resumes = 0
        self._stats_lock = threading.Lock()

    # -- the retry loop --------------------------------------------------

    def _with_retries(self, fn: Callable[[], Dict]) -> Dict:
        policy = self.policy
        deadline = (
            None if policy.deadline is None else self._clock() + policy.deadline
        )
        attempt = 0
        while True:
            try:
                return fn()
            except self.RETRYABLE as exc:
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
                delay = policy.backoff(attempt, self._rng)
                retry_after = getattr(exc, "retry_after", None)
                if retry_after is not None:
                    delay = max(delay, float(retry_after))
                if deadline is not None and self._clock() + delay > deadline:
                    raise
                with self._stats_lock:
                    self.retries += 1
                self._sleep(delay)

    def _resumable(self, session_id: str, fn: Callable[[], Dict]) -> Dict:
        """Run *fn* with retries, auto-resuming a recovered session."""

        def attempt() -> Dict:
            try:
                return fn()
            except ServiceClientError as exc:
                if (
                    exc.status == 404
                    and exc.recoverable
                    and self.salt is not None
                ):
                    # The daemon restarted and holds this session's
                    # durable history: re-present the salt, replay, redo.
                    self.resume_session(self.salt, session_id)
                    with self._stats_lock:
                        self.resumes += 1
                    return fn()
                raise

        return self._with_retries(attempt)

    # -- retried operations ----------------------------------------------

    def create_session(
        self,
        salt: str,
        options: Optional[Dict] = None,
        state: Optional[Dict] = None,
    ) -> Dict:
        return self._with_retries(
            lambda: ServiceClient.create_session(self, salt, options, state)
        )

    def resume(self, session_id: str) -> Dict:
        if self.salt is None:
            raise ValueError("construct RetryingServiceClient with salt=...")
        return self._with_retries(
            lambda: self.resume_session(self.salt, session_id)
        )

    def freeze(self, session_id: str, files: Dict[str, str]) -> Dict:
        def call() -> Dict:
            try:
                return ServiceClient.freeze(self, session_id, files)
            except ServiceClientError as exc:
                if exc.status == 409 and "already frozen" in exc.message:
                    # The freeze committed before an ambiguous failure
                    # (or survived a restart via the journal): converge.
                    info = ServiceClient.session(self, session_id)
                    stats = info.get("freeze_stats") or {}
                    return dict(stats, frozen=True, already_frozen=True)
                raise

        return self._resumable(session_id, call)

    def anonymize(
        self,
        session_id: str,
        text: Optional[str] = None,
        source: str = "<config>",
        chunks: Optional[Iterable[str]] = None,
        idempotency_key: Optional[str] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Dict:
        if chunks is not None:
            if text is not None:
                raise ValueError("pass exactly one of text or chunks")
            # A retry must be able to send the same bytes again, and the
            # idempotency key must cover them: materialize the stream.
            text = "".join(chunks)
        if idempotency_key is None and text is not None:
            idempotency_key = idempotency_key_for(source, text)
        return self._resumable(
            session_id,
            lambda: ServiceClient.anonymize(
                self,
                session_id,
                text=text,
                source=source,
                idempotency_key=idempotency_key,
                extra_headers=extra_headers,
            ),
        )

    def session(self, session_id: str) -> Dict:
        return self._resumable(
            session_id, lambda: ServiceClient.session(self, session_id)
        )

    def delete_session(self, session_id: str) -> Dict:
        def call() -> Dict:
            try:
                return ServiceClient.delete_session(self, session_id)
            except ServiceClientError as exc:
                if exc.status == 404 and not exc.recoverable:
                    # The delete committed before the response was lost.
                    return {"id": session_id, "already_deleted": True}
                raise

        return self._resumable(session_id, call)
