"""Per-layer metrics of a traced run.

Times come from the tracer's spans and leaf tables (the benchmark
process, every pool worker and every daemon worker).  Counts come from
the per-file reports and ``FreezeStats`` the wrappers read, from the
workload's own corpus reports, and from ``/metrics`` deltas scraped
around the traced window.  A layer the workload bypasses reads 0.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from tracer import RULE_FAMILIES, self_times

_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')

REJECTED_CODES = ("413", "429", "503", "507")


def parse_metrics(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line.strip())
        if match is None:
            continue
        labels = dict(_LABEL_RE.findall(match.group(2) or ""))
        try:
            samples.append((match.group(1), labels, float(match.group(3))))
        except ValueError:
            continue
    return samples


def _metric_total(samples, name: str, **labels) -> float:
    total = 0.0
    for sample_name, sample_labels, value in samples:
        if sample_name != name:
            continue
        if all(sample_labels.get(key) in (want if isinstance(want, tuple)
                                          else (want,))
               for key, want in labels.items()):
            total += value
    return total


def _delta(before, after, name: str, **labels) -> float:
    return _metric_total(after, name, **labels) - _metric_total(
        before, name, **labels)


def _mean_ms(total_s: float, count: float) -> float:
    return total_s * 1000.0 / count if count else 0.0


def per_layer_metrics(documents, traced, untraced, metrics_before,
                      metrics_after) -> Dict[str, Tuple[float, str]]:
    """Metric name -> (value, unit) for every per-layer metric.

    *documents* are the traces of every process (``Tracer.snapshot`` and
    ``load_traces``); *traced* and *untraced* are the two windows.
    """
    span_total: Dict[str, float] = {}
    span_count: Dict[str, int] = {}
    freeze_self = 0.0
    tables: Dict[str, List[float]] = {}
    for document in documents:
        spans = [tuple(span) for span in document["spans"]]
        own = self_times(spans)
        for span_id, name, start, end, _, _, _ in spans:
            span_total[name] = span_total.get(name, 0.0) + (end - start)
            span_count[name] = span_count.get(name, 0) + 1
            if name == "freeze":
                freeze_self += own[span_id]
        for name, (count, seconds) in document["tables"].items():
            row = tables.setdefault(name, [0, 0.0])
            row[0] += count
            row[1] += seconds

    def spent(name):
        return span_total.get(name, 0.0)

    def mean_span_ms(name):
        return _mean_ms(span_total.get(name, 0.0), span_count.get(name, 0))

    def calls(name):
        return tables.get(name, [0, 0.0])[0]

    def busy(name):
        return tables.get(name, [0, 0.0])[1]

    def count(name):
        return calls("count/" + name)

    before = parse_metrics(metrics_before)
    after = parse_metrics(metrics_after)
    vocab_warm = busy("freeze/vocab_warm")
    asn_warm = busy("freeze/asn_warm")
    classified = calls("dispatch.classify")
    tokens_seen = count("tokens.seen")
    requests_delta = _delta(before, after, "repro_request_seconds_count",
                            endpoint="anonymize")
    server_ms = _mean_ms(
        _delta(before, after, "repro_request_seconds_sum",
               endpoint="anonymize"), requests_delta)
    client_ms = _mean_ms(sum(traced.latencies), len(traced.latencies))

    out: Dict[str, Tuple[float, str]] = {
        "engine.init_s": (spent("engine.init"), "s"),
        "freeze.busy_s": (spent("freeze"), "s"),
        "freeze.self_s": (max(freeze_self - vocab_warm - asn_warm, 0.0), "s"),
        "freeze.trie_insert_s": (spent("freeze.trie_insert"), "s"),
        "freeze.vocab_warm_s": (vocab_warm, "s"),
        "freeze.asn_warm_s": (asn_warm, "s"),
        "freeze.plugin_scan_s": (spent("freeze.plugin_scan"), "s"),
    }
    for field in ("addresses", "words_warmed", "asns_warmed",
                  "communities_warmed", "ipv6_addresses"):
        out["freeze." + field] = (count("freeze." + field), "count")
    out.update({
        "rewrite.busy_s": (spent("rewrite"), "s"),
        "rewrite.files": (count("rewrite.files"), "count"),
        "rewrite.lines": (count("rewrite.lines"), "count"),
        "rewrite.fail_closed_lines": (count("rewrite.fail_closed_lines"),
                                      "count"),
        "dispatch.classify_s": (busy("dispatch.classify"), "s"),
        "dispatch.candidate_ratio": (
            count("dispatch.with_candidates") / classified
            if classified else 0.0, "ratio"),
    })
    for family in RULE_FAMILIES:
        out["rules.{}.busy_s".format(family)] = (
            busy("rules." + family), "s")
        out["rules.{}.hits".format(family)] = (
            count("rules.{}.hits".format(family)), "count")
    out.update({
        "tokens.busy_s": (busy("tokens"), "s"),
        "tokens.seen": (tokens_seen, "count"),
        "tokens.hashed": (count("tokens.hashed"), "count"),
        "tokens.hashed_ratio": (
            count("tokens.hashed") / tokens_seen if tokens_seen else 0.0,
            "ratio"),
        "ipanon.map_int.calls": (calls("ipanon.map_int"), "count"),
        "ipanon.map_int.busy_s": (busy("ipanon.map_int"), "s"),
        "parallel.capture_s": (spent("parallel.capture"), "s"),
        "parallel.fanout_s": (spent("parallel.fanout"), "s"),
        "parallel.worker_cpu_s": (busy("parallel.worker_cpu"), "s"),
        "parallel.quarantined": (count("parallel.quarantined"), "count"),
        "runner.write_s": (spent("runner.write"), "s"),
        "runner.writes": (count("runner.writes"), "count"),
        "runner.bytes_written": (count("runner.bytes_written"), "count"),
        "runner.write_failed": (count("runner.write_failed"), "count"),
        "client.create_session_s": (spent("client.create_session"), "s"),
        "client.freeze_s": (spent("client.freeze"), "s"),
        "client.retries": (traced.counts.get("client_retries", 0), "count"),
        "client.resumes": (traced.counts.get("client_resumes", 0), "count"),
        "server.anonymize_ms": (server_ms, "ms"),
        "server.outside_ms": (
            client_ms - server_ms if requests_delta else 0.0, "ms"),
        "server.requests": (_delta(before, after, "repro_requests_total",
                                   endpoint="anonymize"), "count"),
        "server.rejected": (_delta(before, after, "repro_requests_total",
                                   code=REJECTED_CODES), "count"),
        "server.timed_out": (_delta(before, after,
                                    "repro_requests_timed_out_total"),
                             "count"),
        "executor.queue_wait_ms": (
            _mean_ms(busy("executor.queue_wait"),
                     calls("executor.queue_wait")), "ms"),
        "session.anonymize_ms": (mean_span_ms("session.anonymize"), "ms"),
        "session.freeze_s": (spent("session.freeze"), "s"),
        "journal.append_ms": (mean_span_ms("journal.append"), "ms"),
        "journal.snapshot_ms": (mean_span_ms("journal.snapshot"), "ms"),
        "journal.records": (_delta(before, after,
                                   "repro_service_journal_records_total"),
                            "count"),
        "journal.snapshots": (_delta(before, after,
                                     "repro_service_journal_snapshots_total"),
                              "count"),
        "journal.snapshot_failures": (
            _delta(before, after,
                   "repro_service_journal_snapshot_failures_total"),
            "count"),
        "worker.respawns": (_delta(before, after,
                                   "repro_worker_respawns_total"), "count"),
        "worker.hung": (_delta(before, after, "repro_worker_hung_total"),
                        "count"),
        "corpus.manifest_record_ms": (mean_span_ms("corpus.manifest_record"),
                                      "ms"),
        "corpus.files": (_delta(before, after, "repro_corpus_files_total"),
                         "count"),
        "corpus.failovers": (traced.counts.get("failovers_total", 0),
                             "count"),
        "trace.overhead_ratio": (
            (traced.lines / traced.ref_elapsed)
            / (untraced.lines / untraced.ref_elapsed), "ratio"),
    })
    return out
