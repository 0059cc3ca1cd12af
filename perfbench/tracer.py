"""Span tracing for the benchmark's traced run.

Nothing in ``src/`` knows about this module.  :class:`Tracer.install`
replaces public functions and methods of the program's modules with
timing wrappers, and :meth:`Tracer.uninstall` puts every original back.
The untraced run never calls :meth:`install`, so it runs the program's
own code objects.

Two kinds of wrapper:

* **Span** wrappers sit at per-file (or coarser) boundaries.  Each call
  records ``(id, name, start, end, parent id, request id, pid)`` in
  memory.  A layer's self time is its span time minus the part of the
  interval that its child spans cover.
* **Leaf** wrappers sit on per-line and per-token calls (dispatch
  classify, rule apply, token pass, trie lookups).  A span per call would
  cost more memory than the run itself, so each thread adds the call's
  count and time into its own table instead.  Leaf calls made inside a
  freeze are kept apart (``freeze/<name>``) so the freeze's warm-up loops
  can be told from the rewrite path.

Counts ride on the same boundaries: the ``anonymize_file`` wrapper reads
each per-file ``AnonymizationReport`` and the ``freeze_mappings`` wrapper
reads the ``FreezeStats`` it returns.

Processes the program starts inherit the wrappers (pool workers and the
daemon's workers are forked).  They write their spans and tables to
``<flush_dir>/trace-<pid>.jsonl``: pool workers after every task, daemon
workers when they drain, because both leave through ``os._exit`` and no
``atexit`` handler would run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
import threading
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Rule id -> family for the per-family rule metrics.  The report's own
#: ``rule_family`` folds R10-R21 into one "asn" family; the benchmark
#: splits out the AS-path regexp and community rules because they are
#: costed very differently (automata rewriting vs. a keyed permutation).
_FAMILY_BY_RULE = {
    "R14": "regexp", "J2": "regexp",
    "R15": "community", "R16": "community", "R17": "community",
    "J3": "community",
    "R10": "asn", "R11": "asn", "R12": "asn", "R13": "asn", "R18": "asn",
    "R19": "asn", "R20": "asn", "R21": "asn", "J1": "asn", "J7": "asn",
    "J8": "asn",
    "R22": "ip", "R23": "ip", "R24": "ip", "R25": "ip", "X1": "ip",
    "J10": "ip",
    "R26": "secret", "R27": "secret", "R27b": "secret", "R28": "secret",
    "J4": "secret", "J6": "secret", "J9": "secret",
    "R6": "misc", "R7": "misc", "R8": "misc", "R9": "misc", "J5": "misc",
    "J5a": "misc",
}
_FAMILY_BY_PREFIX = (("V", "ipv6"), ("B", "blobs"), ("E", "eos"))

RULE_FAMILIES = (
    "ip", "asn", "regexp", "community", "secret", "misc", "ipv6", "blobs",
    "eos",
)

#: Request-id header the benchmark's service clients send in traced runs
#: so daemon-side spans can be joined to client-side ones.
REQUEST_HEADER = "X-Bench-Request"


def rule_family(rule_id: str) -> str:
    family = _FAMILY_BY_RULE.get(rule_id)
    if family is not None:
        return family
    for prefix, name in _FAMILY_BY_PREFIX:
        if rule_id.startswith(prefix):
            return name
    return "other"


class Tracer:
    """In-memory spans and per-thread leaf tables, plus the patch list."""

    def __init__(self, flush_dir: Optional[Path] = None):
        self.flush_dir = None if flush_dir is None else Path(flush_dir)
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self.installed = False
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded (also run in every forked child)."""
        self.spans: List[tuple] = []
        self._tables: List[Dict[str, list]] = []
        self._local = threading.local()

    def _table(self) -> Dict[str, list]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            self._tables.append(table)
        return table

    def add(self, name: str, count: float = 1, seconds: float = 0.0) -> None:
        """Add *count* and *seconds* to this thread's row for *name*."""
        table = self._table()
        row = table.get(name)
        if row is None:
            table[name] = [count, seconds]
        else:
            row[0] += count
            row[1] += seconds

    def set_request(self, request_id: Optional[str]) -> None:
        self._local.request = request_id

    def current_request(self) -> Optional[str]:
        return getattr(self._local, "request", None)

    def _in_freeze(self) -> bool:
        return getattr(self._local, "freeze_depth", 0) > 0

    def span(self, name: str, fn: Callable, on_result=None,
             freeze: bool = False) -> Callable:
        """Wrap *fn* so every call records one span named *name*."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            if freeze:
                local.freeze_depth = getattr(local, "freeze_depth", 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if freeze:
                    local.freeze_depth -= 1
                tracer.spans.append((
                    span_id, name, start, end, parent,
                    getattr(local, "request", None), os.getpid(),
                ))
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.bench_traced = True
        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Wrap *fn* so every call adds to this thread's row for *name*."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = "freeze/" + name if tracer._in_freeze() else name
                tracer.add(key, 1, elapsed)

        wrapper.bench_traced = True
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_instance(self, obj, attr: str, replacement) -> None:
        # Marker None: the attribute lived on the class, so restoring
        # means deleting the instance override.
        self._patches.append((obj, attr, obj.__dict__.get(attr)))
        setattr(obj, attr, replacement)

    def wrap_method(self, cls, attr: str, name: str, kind: str = "span",
                    **options) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            inner = self.span(name, original.__func__, **options)
            self._patch(cls, attr, classmethod(inner))
        elif kind == "leaf":
            self._patch(cls, attr, self.leaf(name, original))
        else:
            self._patch(cls, attr, self.span(name, original, **options))

    def install(self, daemon: bool = False) -> None:
        """Install every wrapper.  ``daemon=True`` also flushes on drain."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        from repro import cli
        from repro.core import engine, parallel, runner, tokens
        from repro.core.asn import AsnPermutation
        from repro.core.community import CommunityAnonymizer
        from repro.core.dispatch import CompiledDispatch
        from repro.core.ipanon import PrefixPreservingMap
        from repro.service import client, corpus, journal, server, sessions

        Anonymizer = engine.Anonymizer
        self.wrap_method(Anonymizer, "__init__", "engine.init",
                         on_result=self._after_init)
        self.wrap_method(Anonymizer, "freeze_mappings", "freeze",
                         on_result=self._count_freeze, freeze=True)
        self.wrap_method(Anonymizer, "_insert_addresses",
                         "freeze.trie_insert")
        self.wrap_method(Anonymizer, "anonymize_file", "rewrite",
                         on_result=self._count_file)
        self._patch(tokens, "segment_word",
                    self.leaf("vocab_warm", tokens.segment_word))
        self.wrap_method(tokens.TokenAnonymizer, "warm", "vocab_warm",
                         kind="leaf")
        self.wrap_method(tokens.TokenAnonymizer, "anonymize_text", "tokens",
                         kind="leaf")
        self.wrap_method(AsnPermutation, "map_asn", "asn_warm", kind="leaf")
        self.wrap_method(CommunityAnonymizer, "map_community", "asn_warm",
                         kind="leaf")
        self.wrap_method(PrefixPreservingMap, "map_int", "ipanon.map_int",
                         kind="leaf")
        self._patch(CompiledDispatch, "classify",
                    self._classify_wrapper(CompiledDispatch.classify))

        self.wrap_method(parallel.FrozenSnapshot, "capture",
                         "parallel.capture")
        fanout = self._fanout_wrapper(parallel.anonymize_files)
        self._patch(parallel, "anonymize_files", fanout)
        self._patch(runner, "anonymize_files", fanout)
        for attr in ("_rewrite_chunk", "_rewrite_one"):
            self._patch(parallel, attr, self._worker_task_wrapper(
                getattr(parallel, attr)))
        self._patch(runner, "atomic_write_text",
                    self._write_wrapper(runner.atomic_write_text))
        self._patch(cli, "main", self.span("cli.main", cli.main))

        Client = client.ServiceClient
        self.wrap_method(Client, "create_session", "client.create_session")
        self.wrap_method(Client, "freeze", "client.freeze")
        self.wrap_method(Client, "anonymize", "client.anonymize")
        self.wrap_method(corpus.ResumeManifest, "record",
                         "corpus.manifest_record")
        self.wrap_method(corpus.CorpusRunner, "run", "corpus.run")

        Handler = server.ServiceRequestHandler
        self._patch(Handler, "_handle_anonymize",
                    self._handler_wrapper(Handler._handle_anonymize))
        self._patch(server.BoundedExecutor, "submit",
                    self._submit_wrapper(server.BoundedExecutor.submit))
        self.wrap_method(sessions.Session, "anonymize", "session.anonymize")
        self.wrap_method(sessions.Session, "freeze", "session.freeze")
        self.wrap_method(journal.SessionJournal, "append", "journal.append")
        self.wrap_method(journal.SessionJournal, "write_snapshot",
                         "journal.snapshot")
        if daemon:
            Service = server.AnonymizationService
            drain_close = Service.drain_close

            @functools.wraps(drain_close)
            def drain_then_flush(service_self):
                try:
                    return drain_close(service_self)
                finally:
                    self.flush()

            self._patch(Service, "drain_close", drain_then_flush)
        os.register_at_fork(after_in_child=self._after_fork)
        self.installed = True

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                try:
                    delattr(owner, attr)
                except AttributeError:
                    pass
            else:
                setattr(owner, attr, original)
        self._patches = []
        self.installed = False

    def _after_fork(self) -> None:
        # A forked child starts with an empty trace; whatever the parent
        # recorded stays the parent's.  (register_at_fork hooks cannot be
        # removed, hence the installed check.)
        if self.installed:
            self.reset()

    # -- wrappers with extra bookkeeping ---------------------------------

    def _after_init(self, result, args, kwargs) -> None:
        """Time every rule and block filter of a new Anonymizer."""
        anonymizer = args[0]
        seen = set()
        for rule in list(anonymizer.rules) + list(anonymizer._junos_rules):
            if id(rule) in seen or rule.apply is None or getattr(
                rule.apply, "bench_traced", False
            ):
                continue
            seen.add(id(rule))
            name = "rules." + rule_family(rule.rule_id)
            self._patch_instance(rule, "apply", self.leaf(name, rule.apply))
        filters = []
        for plugin in anonymizer.plugins:
            if plugin.block_filter() is not None:
                filters.append(plugin.family)
            if getattr(plugin.freeze_scan, "bench_traced", False):
                continue
            self._patch_instance(
                plugin, "freeze_scan",
                self.span("freeze.plugin_scan", plugin.freeze_scan),
            )
        anonymizer._block_filters = [
            self.leaf("rules." + family, block_filter)
            for family, block_filter in zip(filters, anonymizer._block_filters)
        ]

    def _count_freeze(self, stats, args, kwargs) -> None:
        for field in ("addresses", "words_warmed", "asns_warmed",
                      "communities_warmed", "ipv6_addresses"):
            self.add("count/freeze." + field, getattr(stats, field))

    def _count_file(self, result, args, kwargs) -> None:
        report = result[1]
        self.add("count/rewrite.files")
        self.add("count/rewrite.lines", report.lines_in)
        self.add("count/rewrite.fail_closed_lines", report.lines_failed_closed)
        self.add("count/tokens.seen", report.tokens_seen)
        self.add("count/tokens.hashed", report.tokens_hashed)
        for rule_id, hits in report.rule_hits.items():
            self.add("count/rules.{}.hits".format(rule_family(rule_id)), hits)

    def _classify_wrapper(self, classify):
        tracer = self

        @functools.wraps(classify)
        def wrapper(dispatch, lowered):
            start = perf_counter()
            candidates = classify(dispatch, lowered)
            elapsed = perf_counter() - start
            tracer.add("dispatch.classify", 1, elapsed)
            if candidates:
                tracer.add("count/dispatch.with_candidates")
            return candidates

        return wrapper

    def _fanout_wrapper(self, anonymize_files):
        tracer = self
        inner = self.span("parallel.anonymize_files", anonymize_files)

        @functools.wraps(anonymize_files)
        def wrapper(anonymizer, configs, jobs=1, *args, **kwargs):
            if jobs <= 1:
                return inner(anonymizer, configs, jobs, *args, **kwargs)
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            outputs = tracer.span("parallel.fanout", anonymize_files)(
                anonymizer, configs, jobs, *args, **kwargs
            )
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            tracer.add(
                "parallel.worker_cpu", 1,
                (after.ru_utime - children.ru_utime)
                + (after.ru_stime - children.ru_stime),
            )
            tracer.add("count/parallel.quarantined",
                       len(configs) - len(outputs))
            return outputs

        return wrapper

    def _worker_task_wrapper(self, task):
        tracer = self
        inner = self.span("parallel.worker_task", task)

        @functools.wraps(task)
        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.flush()

        return wrapper

    def _write_wrapper(self, atomic_write_text):
        tracer = self
        inner = self.span("runner.write", atomic_write_text)

        @functools.wraps(atomic_write_text)
        def wrapper(path, text, *args, **kwargs):
            try:
                digest = inner(path, text, *args, **kwargs)
            except OSError:
                tracer.add("count/runner.write_failed")
                raise
            tracer.add("count/runner.writes")
            tracer.add("count/runner.bytes_written",
                       len(text.encode("utf-8")))
            return digest

        return wrapper

    def _handler_wrapper(self, handle):
        tracer = self
        inner = self.span("server.anonymize", handle)

        @functools.wraps(handle)
        def wrapper(handler, session_id):
            tracer.set_request(handler.headers.get(REQUEST_HEADER))
            try:
                return inner(handler, session_id)
            finally:
                tracer.set_request(None)

        return wrapper

    def _submit_wrapper(self, submit):
        """Time each executor job's queue wait and carry the request id
        from the handler thread into the executor thread."""
        tracer = self
        run_job = self.span("executor.job", lambda fn: fn())

        @functools.wraps(submit)
        def wrapper(executor, fn):
            queued = perf_counter()
            request_id = tracer.current_request()

            def job():
                tracer.add("executor.queue_wait", 1, perf_counter() - queued)
                tracer.set_request(request_id)
                try:
                    return run_job(fn)
                finally:
                    tracer.set_request(None)

            return submit(executor, job)

        return wrapper

    # -- output ------------------------------------------------------------

    def snapshot(self) -> Dict:
        """Everything recorded so far, as one JSON-able document."""
        tables: Dict[str, list] = {}
        for table in list(self._tables):
            for name, (count, seconds) in list(table.items()):
                row = tables.setdefault(name, [0, 0.0])
                row[0] += count
                row[1] += seconds
        return {"pid": os.getpid(), "spans": list(self.spans),
                "tables": tables}

    def flush(self) -> None:
        """Append this process's trace to its file and start afresh."""
        if self.flush_dir is None:
            return
        document = self.snapshot()
        self.spans = []
        for table in list(self._tables):
            table.clear()
        path = self.flush_dir / "trace-{}.jsonl".format(os.getpid())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(document) + "\n")


def load_traces(flush_dir: Path) -> List[Dict]:
    """Every document flushed under *flush_dir* by any process."""
    documents = []
    for path in sorted(Path(flush_dir).glob("trace-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    documents.append(json.loads(line))
    return documents


def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Pass the spans of one process: a forked child keeps counting span ids
    from where its parent was, so ids are unique only within a process.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _, start, end, _, _, _ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result
