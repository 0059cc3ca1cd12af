"""The benchmark's four workloads.

Each workload is set up from a generated corpus, then driven for a
timed window through one public surface of the program, then checked
against a reference computed outside the window:

* ``batch-j1`` -- ``repro.cli.main`` with default flags, once per network.
* ``batch-j2`` -- the same with ``--jobs 2`` (freeze, snapshot, pool).
* ``service-stream`` -- a ``serve --workers 2`` daemon, two frozen
  sessions, a closed loop of two keep-alive ``ServiceClient`` threads.
* ``corpus-durable`` -- a ``serve --workers 2 --state-dir`` daemon
  driven by ``CorpusRunner`` with two jobs, one run per network.

A window runs whole operations (a network for batch and corpus, a
one-second round of requests for the stream) until they have taken
``seconds``; the operation in flight when time runs out completes and
counts.  A host-speed probe (``hostspeed``) runs before the first
operation and after each one, outside their time.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Corpus scale.  ``paper_dataset`` floors every network at two POPs
#: (backbone) or one (enterprise), so any scale at or below 0.02 gives
#: the same ~470 files / ~275k lines: the smallest corpus that still has
#: all 31 networks and every categorical property the paper counts.
SCALE = 0.02

#: Mean request size (lines) the ``service-stream`` sessions are picked
#: for: near the median backbone config size over seeds.
REQUEST_LINES = 900

DAEMON_READY_TIMEOUT = 60.0
DAEMON_STOP_TIMEOUT = 30.0

WORKLOADS = ("batch-j1", "batch-j2", "service-stream", "corpus-durable")


@dataclass
class Network:
    name: str
    kind: str  # "backbone" or "enterprise"
    configs: Dict[str, str]  # file name -> text
    lines: int
    in_dir: Optional[Path] = None


def generate_corpus(seed: int, scale: float = SCALE,
                    only: Optional[List[int]] = None) -> List[Network]:
    """``paper_dataset(seed, scale)``; *only* keeps those network indices."""
    from repro.iosgen.dataset import paper_dataset_specs
    from repro.iosgen.generate import generate_network

    specs = paper_dataset_specs(seed=seed, scale=scale)
    if only is not None:
        specs = [specs[index] for index in only]
    networks = []
    for spec in specs:
        generated = generate_network(spec)
        configs = {
            name + ".cfg": text for name, text in generated.configs.items()
        }
        lines = sum(len(text.splitlines()) for text in configs.values())
        networks.append(Network(spec.name, spec.kind, configs, lines))
    return networks


def write_inputs(networks: List[Network], directory: Path) -> None:
    for network in networks:
        network.in_dir = directory / network.name
        network.in_dir.mkdir(parents=True)
        for name, text in network.configs.items():
            (network.in_dir / name).write_text(text, encoding="utf-8")


def salt_for(seed: int, network: Network) -> str:
    """One salt per network: the paper's per-owner method."""
    return "perfbench-{}-{}".format(seed, network.name)


def cli_configs(network: Network) -> Dict[str, str]:
    """The network keyed and ordered the way the CLI reads its directory."""
    return {
        str(network.in_dir / name): network.configs[name]
        for name in sorted(network.configs)
    }


# -- references ---------------------------------------------------------


def reference(network: Network, salt: str, two_pass: bool) -> Dict[str, str]:
    """File name -> expected anonymized text, from the library (jobs 1).

    Also checks line conservation on the reference run itself: every
    input line is either written out or counted as a stripped comment or
    banner line (rules R3-R5 remove lines, so ``lines_out`` equals
    ``lines_in`` only for comment-free files).
    """
    from repro.core import Anonymizer, AnonymizerConfig

    anonymizer = Anonymizer(
        AnonymizerConfig(salt=salt.encode("utf-8"), two_pass=two_pass)
    )
    configs = cli_configs(network) if network.in_dir else dict(network.configs)
    result = anonymizer.anonymize_network(configs, two_pass=two_pass, jobs=1)
    report = result.report
    if report.lines_out + report.comment_lines_removed != report.lines_in:
        raise AssertionError(
            "reference run for {} lost lines: {} out + {} stripped != {} "
            "in".format(network.name, report.lines_out,
                        report.comment_lines_removed, report.lines_in)
        )
    return {
        Path(name).name: result.configs[new_name]
        for name, new_name in result.name_map.items()
    }


class References:
    """Reference outputs, computed once per (network, mode) on demand."""

    def __init__(self, seed: int):
        self.seed = seed
        self._cache: Dict[Tuple[str, bool], Dict[str, str]] = {}

    def get(self, network: Network, two_pass: bool) -> Dict[str, str]:
        key = (network.name, two_pass)
        if key not in self._cache:
            self._cache[key] = reference(
                network, salt_for(self.seed, network), two_pass
            )
        return self._cache[key]

    def prefetch(self, wanted: List[Tuple[Network, bool]]) -> None:
        """Compute the missing references in two worker processes."""
        todo = {}
        for network, two_pass in wanted:
            key = (network.name, two_pass)
            if key not in self._cache:
                todo[key] = (network, two_pass)
        if len(todo) < 2:
            return
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            futures = {
                key: pool.submit(reference, network,
                                 salt_for(self.seed, network), two_pass)
                for key, (network, two_pass) in todo.items()
            }
            for key, future in futures.items():
                self._cache[key] = future.result()


# -- process helpers ----------------------------------------------------


def _tree_pids(pid: int) -> List[int]:
    """*pid* and every live descendant (Linux ``/proc``)."""
    pids, todo = [], [pid]
    while todo:
        current = todo.pop()
        pids.append(current)
        for task in Path("/proc/{}/task".format(current)).glob("*/children"):
            try:
                todo.extend(int(child) for child in task.read_text().split())
            except OSError:
                continue
    return pids


#: ``prctl`` option: orphaned descendants re-parent to this process.
PR_SET_CHILD_SUBREAPER = 36
DESCENDANT_STOP_TIMEOUT = 10.0


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant it outlives.

    A grandchild whose parent dies (a daemon worker, say) is then
    re-parented here rather than to init, so ``stop_descendants`` can
    still see and reap it.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _is_zombie(pid: int) -> bool:
    try:
        stat = Path("/proc/{}/stat".format(pid)).read_text()
    except OSError:
        return True  # already gone
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def _reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(timeout: float = DESCENDANT_STOP_TIMEOUT) -> None:
    """Stop and reap every process this run started, then return.

    The ``spawn`` pool that computes references leaves multiprocessing's
    resource tracker running until interpreter exit; it is closed first,
    so it exits cleanly.  Anything else still alive gets SIGTERM, then
    SIGKILL once *timeout* has passed.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None:
        try:
            tracker._stop()
        except Exception:  # gone already; the loop below reaps it
            pass
    deadline = time.monotonic() + timeout
    while True:
        _reap_children()
        live = [pid for pid in _tree_pids(os.getpid())[1:]
                if not _is_zombie(pid)]
        if not live:
            _reap_children()
            return
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in live:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def tree_cpu_seconds(pid: int) -> float:
    """User+system CPU of *pid* and its live descendants."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for current in _tree_pids(pid):
        try:
            stat = Path("/proc/{}/stat".format(current)).read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / ticks


def tree_peak_rss_kb(pid: int) -> int:
    """Sum of each live process's own peak resident set (VmHWM)."""
    total = 0
    for current in _tree_pids(pid):
        try:
            status = Path("/proc/{}/status".format(current)).read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


class Daemon:
    """One ``repro-anonymize serve --workers 2`` process over loopback TCP."""

    def __init__(self, directory: Path, state_dir: Optional[Path] = None,
                 trace_dir: Optional[Path] = None):
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        ready = directory / "ready"
        args = ["serve", "--workers", "2", "--host", "127.0.0.1",
                "--port", "0", "--ready-file", str(ready)]
        if state_dir is not None:
            args += ["--state-dir", str(state_dir)]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli"] + args
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(trace_dir)] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.pop("REPRO_FAULT_PLAN", None)
        self._log = open(directory / "daemon.log", "wb")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=str(directory),
        )
        deadline = time.monotonic() + DAEMON_READY_TIMEOUT
        while not ready.exists() or not ready.read_text().endswith("\n"):
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    "daemon did not become ready; log:\n" + self.log_text()
                )
            time.sleep(0.01)
        self.base_url = ready.read_text().strip()

    def log_text(self) -> str:
        return (self.directory / "daemon.log").read_text(errors="replace")

    def shard_urls(self) -> List[str]:
        from repro.service.client import ServiceClient

        with ServiceClient(base_url=self.base_url) as client:
            shards = client.healthz()["shards"]
        return [url for _, url in sorted(shards.items(),
                                         key=lambda item: int(item[0]))]

    def metrics_text(self) -> str:
        from repro.service.client import ServiceClient

        with ServiceClient(base_url=self.base_url) as client:
            return client.metrics_text()

    def cpu_seconds(self) -> float:
        return tree_cpu_seconds(self.process.pid)

    def peak_rss_kb(self) -> int:
        return tree_peak_rss_kb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; always reaps."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=DAEMON_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


# -- results ------------------------------------------------------------


@dataclass
class Window:
    """What one timed window did."""

    #: Wall seconds spent in operations (host-speed probes excluded).
    elapsed: float = 0.0
    lines: int = 0
    attempted: int = 0
    failed: int = 0
    #: Wall seconds per request (per file of a CLI run for batch).
    latencies: List[float] = field(default_factory=list)
    #: (network, file name, produced text or None when missing)
    outputs: List[Tuple[Network, str, Optional[str]]] = field(
        default_factory=list)
    #: Counts the workload reports itself (client retries, ...).
    counts: Dict[str, float] = field(default_factory=dict)
    #: (wall seconds, request latencies, wall factor) per operation.
    operations: List[Tuple[float, List[float], float]] = field(
        default_factory=list)
    #: CPU seconds the host-speed probes themselves took.
    probe_cpu: float = 0.0
    #: Reference CPU seconds per CPU second during the window.
    cpu_factor: float = 1.0
    #: Filled by ``normalize``: ``elapsed`` and ``latencies`` at the
    #: reference host speed (see ``hostspeed``).
    ref_elapsed: float = 0.0
    ref_latencies: List[float] = field(default_factory=list)
    cpu_share: float = 1.0

    def close(self, speed: HostSpeed,
              operations: List[Tuple[float, List[float]]]) -> None:
        """Add *operations* -- (wall seconds, request latencies) in the
        order they ran, operation *i* between probes *i* and *i* + 1."""
        for index, (seconds, latencies) in enumerate(operations):
            self.elapsed += seconds
            self.latencies.extend(latencies)
            self.operations.append(
                (seconds, latencies, speed.wall_factor(index)))
        self.probe_cpu = sum(speed.cpus)
        self.cpu_factor = speed.cpu_factor()

    def normalize(self, cpu_share: float) -> None:
        """Scale the CPU-bound *cpu_share* of every operation's time by
        its host-speed factor; the rest (timer and disk waits) stays."""
        self.cpu_share = cpu_share
        self.ref_elapsed = 0.0
        self.ref_latencies = []
        for seconds, latencies, factor in self.operations:
            scale = 1.0 - cpu_share + cpu_share * factor
            self.ref_elapsed += seconds * scale
            self.ref_latencies.extend(value * scale for value in latencies)


def check_outputs(window: Window, references: References,
                  two_pass: bool) -> List[str]:
    """Mismatch descriptions (empty when every output is byte-identical)."""
    problems = []
    for network, name, text in window.outputs:
        expected = references.get(network, two_pass)[name]
        if text is None:
            problems.append("{}/{}: no output".format(network.name, name))
        elif text != expected:
            problems.append("{}/{}: output differs from the reference".format(
                network.name, name))
    return problems


# -- workloads ----------------------------------------------------------


def stratified_order(networks: List[Network], seed: int) -> List[int]:
    """A seeded network order with the backbones spread evenly through it.

    A window ends wherever its time runs out, so it usually covers a
    prefix of the order.  Spreading the six large backbone networks
    evenly keeps every prefix's backbone/enterprise mix close to the
    corpus's, instead of letting the shuffle bunch them at one end.
    """
    rng = random.Random(seed)
    backbone = [i for i, n in enumerate(networks) if n.kind == "backbone"]
    enterprise = [i for i, n in enumerate(networks) if n.kind != "backbone"]
    rng.shuffle(backbone)
    rng.shuffle(enterprise)
    share = len(backbone) / len(networks)
    order, taken = [], 0
    for position in range(len(networks)):
        # Take a backbone whenever the prefix is short of its share.
        if backbone and (taken < round((position + 1) * share)
                         or not enterprise):
            order.append(backbone.pop())
            taken += 1
        else:
            order.append(enterprise.pop())
    return order


class Workload:
    name = ""
    #: Operations in flight at once, when the window's wall time is not
    #: all CPU work: the CPU-bound share of it is then measured as CPU
    #: seconds / (wall seconds x this).  None: the wall time is CPU work.
    concurrency: Optional[int] = None
    #: Reference mode: single-pass (False) or freeze-then-rewrite (True).
    two_pass = True
    #: Pool workers the window forks per operation (for peak memory).
    pool_jobs = 0

    def __init__(self, seed: int, networks: List[Network]):
        self.seed = seed
        self.networks = networks
        self.order = stratified_order(networks, seed)
        self.daemon: Optional[Daemon] = None

    def setup(self, directory: Path, trace_dir: Optional[Path] = None) -> None:
        write_inputs(self.networks, directory / "in")
        self.directory = directory

    def window(self, seconds: float, tracer=None) -> Window:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


class BatchWorkload(Workload):
    def __init__(self, seed, networks, jobs: int):
        super().__init__(seed, networks)
        self.jobs = jobs
        self.name = "batch-j{}".format(jobs)
        self.two_pass = jobs > 1
        self.pool_jobs = jobs if jobs > 1 else 0

    def window(self, seconds, tracer=None) -> Window:
        from repro import cli
        from repro.core.runner import MANIFEST_NAME

        result = Window()
        speed = HostSpeed()
        operations = []
        runs = []
        measured = 0.0
        index = 0
        speed.probe()
        while True:
            network = self.networks[self.order[index % len(self.order)]]
            out_dir = self.directory / "out" / "{}-{}".format(
                index, network.name)
            argv = [str(network.in_dir), "--out-dir", str(out_dir),
                    "--salt", salt_for(self.seed, network)]
            if self.jobs > 1:
                argv += ["--jobs", str(self.jobs)]
            began = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv)
            except Exception as exc:  # the run's files count as failed
                print("batch run of {} raised {}".format(
                    network.name, type(exc).__name__), file=sys.stderr)
            took = perf_counter() - began
            speed.probe()
            # One latency per run: its mean time per file.  A run's own
            # time follows its network's size, which the seed decides.
            operations.append((took, [took / len(network.configs)]))
            runs.append((network, out_dir))
            result.lines += network.lines
            measured += took
            index += 1
            if measured >= seconds:
                break
        result.close(speed, operations)
        for network, out_dir in runs:
            manifest = out_dir / MANIFEST_NAME
            entries = {}
            if manifest.exists():
                files = json.loads(manifest.read_text(encoding="utf-8"))
                entries = {Path(path).name: entry
                           for path, entry in files["files"].items()}
            for name in sorted(network.configs):
                entry = entries.get(name)
                text = None
                if entry is not None and entry["status"] == "written":
                    text = Path(entry["out_path"]).read_text(encoding="utf-8")
                else:
                    result.failed += 1
                result.attempted += 1
                result.outputs.append((network, name, text))
        return result


class ServiceStreamWorkload(Workload):
    name = "service-stream"
    clients = 2
    concurrency = clients
    #: The clients pause together this often, so the host-speed probe
    #: runs with the daemon idle; the last request of a round completes.
    round_seconds = 1.0

    def __init__(self, seed, networks):
        super().__init__(seed, networks)
        # The sessions serve the backbone networks whose mean config size
        # is nearest REQUEST_LINES.  Each request pays a fixed cost (the
        # delayed-ACK stall alone is ~40 ms), so lines/s and latency follow
        # the request size; a network's mean config size ranges from about
        # 650 to 1,250 lines, and even the backbone class mean moves ~10%
        # between seeds.  A fixed target keeps the request mix, and the
        # numbers, from moving with the seed.
        backbones = [n for n in networks if n.kind == "backbone"]
        backbones = backbones or list(networks)

        def mean_size(network):
            return network.lines / len(network.configs)

        ranked = sorted(backbones, key=lambda network: abs(
            mean_size(network) - REQUEST_LINES))
        self.session_networks = [ranked[slot % len(ranked)]
                                 for slot in range(self.clients)]

    def setup(self, directory, trace_dir=None) -> None:
        from repro.service.client import ServiceClient

        super().setup(directory, trace_dir)
        self.daemon = Daemon(directory / "daemon", trace_dir=trace_dir)
        shard_urls = self.daemon.shard_urls()

        def open_session(slot: int):
            # Created over the shard's own listener, so that worker owns
            # the session; the shards freeze concurrently.
            network = self.session_networks[slot]
            url = shard_urls[slot % len(shard_urls)]
            with ServiceClient(base_url=url) as client:
                session = client.create_session(salt_for(self.seed, network))
                client.freeze(session["id"], dict(network.configs))
            return url, session["id"], network

        with ThreadPoolExecutor(max_workers=self.clients) as pool:
            self.sessions = list(pool.map(open_session, range(self.clients)))

    def window(self, seconds, tracer=None) -> Window:
        from repro.service.client import ServiceClient, ServiceClientError
        from tracer import REQUEST_HEADER

        result = Window()
        speed = HostSpeed()
        rounds: List[float] = []  # wall seconds of each finished round
        clock = {"round": -1, "stop": False}

        def next_round():
            # Runs with every client parked at the barrier: after the
            # warm-ups, then after each round.  The probe runs while the
            # daemon is idle and outside every round's time.
            if clock["round"] >= 0:
                rounds.append(perf_counter() - clock["start"])
            speed.probe()
            if sum(rounds) >= seconds:
                clock["stop"] = True
                return
            clock["round"] += 1
            clock["start"] = perf_counter()
            clock["deadline"] = clock["start"] + min(
                self.round_seconds, seconds - sum(rounds))

        barrier = threading.Barrier(len(self.sessions), action=next_round)
        per_thread: List[Window] = [Window() for _ in self.sessions]
        #: Per thread: (round, wall seconds) of each request.
        timed: List[List[Tuple[int, float]]] = [[] for _ in self.sessions]
        errors: List[BaseException] = []

        def drive(slot: int) -> None:
            url, session_id, network = self.sessions[slot]
            mine = per_thread[slot]
            names = sorted(network.configs)
            random.Random("{}-{}".format(self.seed, slot)).shuffle(names)
            client = ServiceClient(base_url=url)
            try:
                # Untimed warm-up: opens this thread's keep-alive
                # connection before the window starts.
                client.anonymize(session_id, network.configs[names[0]],
                                 source=names[0])
                barrier.wait()
                sent = 0
                while not clock["stop"]:
                    current, deadline = clock["round"], clock["deadline"]
                    while perf_counter() < deadline:
                        name = names[sent % len(names)]
                        text = network.configs[name]
                        headers = None
                        if tracer is not None:
                            request_id = "c{}-{}".format(slot, sent)
                            tracer.set_request(request_id)
                            headers = {REQUEST_HEADER: request_id}
                        sent += 1
                        mine.attempted += 1
                        began = perf_counter()
                        try:
                            response = client.anonymize(
                                session_id, text, source=name,
                                extra_headers=headers)
                        except (ServiceClientError, OSError):
                            timed[slot].append(
                                (current, perf_counter() - began))
                            mine.failed += 1
                            mine.outputs.append((network, name, None))
                            continue
                        timed[slot].append((current, perf_counter() - began))
                        report = response["report"]
                        ok = (
                            response["status"] == "ok"
                            and report["lines_in"] == len(text.splitlines())
                            and report["lines_out"]
                            + report["comment_lines_removed"]
                            == report["lines_in"]
                        )
                        if not ok:
                            mine.failed += 1
                        mine.lines += len(text.splitlines())
                        mine.outputs.append((network, name, response["text"]))
                    barrier.wait()
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)
                barrier.abort()
            finally:
                client.close()

        threads = [threading.Thread(target=drive, args=(slot,))
                   for slot in range(len(self.sessions))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        by_round: List[List[float]] = [[] for _ in rounds]
        for requests in timed:
            for current, latency in requests:
                by_round[current].append(latency)
        result.close(speed, list(zip(rounds, by_round)))
        for mine in per_thread:
            result.lines += mine.lines
            result.attempted += mine.attempted
            result.failed += mine.failed
            result.outputs.extend(mine.outputs)
        return result


class CorpusDurableWorkload(Workload):
    name = "corpus-durable"
    jobs = 2
    concurrency = jobs

    def __init__(self, seed, networks):
        super().__init__(seed, networks)
        # Runs cycle over the enterprise networks, the corpus's many small
        # owners (25 of 31).  One backbone network takes a third of a
        # window here, so letting the seeded order decide how many
        # backbones land in the window would swing every metric.
        enterprise = [i for i in self.order
                      if networks[i].kind == "enterprise"]
        self.order = enterprise or self.order

    def setup(self, directory, trace_dir=None) -> None:
        super().setup(directory, trace_dir)
        self.daemon = Daemon(directory / "daemon",
                             state_dir=directory / "state",
                             trace_dir=trace_dir)

    def window(self, seconds, tracer=None) -> Window:
        from repro.core.runner import resolve_out_paths
        from repro.service.corpus import MANIFEST_NAME, CorpusRunner

        class TimedRunner(CorpusRunner):
            """Times each file's drive: one request when nothing fails."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.latencies: List[float] = []

            def _drive_file(self, name, overall_deadline):
                began = perf_counter()
                try:
                    return super()._drive_file(name, overall_deadline)
                finally:
                    self.latencies.append(perf_counter() - began)

        result = Window()
        speed = HostSpeed()
        operations = []
        runs = []
        measured = 0.0
        index = 0
        speed.probe()
        while True:
            network = self.networks[self.order[index % len(self.order)]]
            out_dir = self.directory / "out" / "{}-{}".format(
                index, network.name)
            configs = cli_configs(network)
            began = perf_counter()
            out_paths = resolve_out_paths(configs, str(out_dir), ".anon")
            runner = TimedRunner(
                base_url=self.daemon.base_url, unix_socket=None,
                salt=salt_for(self.seed, network), configs=configs,
                out_paths=out_paths, jobs=self.jobs,
                manifest_path=out_dir / MANIFEST_NAME, log=lambda _: None,
            )
            try:
                runner.run()
            except Exception as exc:  # the run's files count as failed
                print("corpus run of {} raised {}".format(
                    network.name, type(exc).__name__), file=sys.stderr)
            finally:
                runner.close()
            took = perf_counter() - began
            speed.probe()
            operations.append((took, runner.latencies))
            report = runner.report
            result.attempted += len(configs)
            if report:
                result.failed += (report["files_fail_closed"]
                                  + len(report["files_quarantined"]))
            else:
                result.failed += len(configs)
            for key in ("client_retries", "client_resumes",
                        "failovers_total"):
                result.counts[key] = (result.counts.get(key, 0)
                                      + report.get(key, 0))
            result.lines += network.lines
            runs.append((network, out_paths))
            measured += took
            index += 1
            if measured >= seconds:
                break
        result.close(speed, operations)
        for network, out_paths in runs:
            for path, out_path in out_paths.items():
                text = (out_path.read_text(encoding="utf-8")
                        if out_path.exists() else None)
                result.outputs.append((network, Path(path).name, text))
        return result


def make_workload(name: str, seed: int, networks: List[Network]) -> Workload:
    if name == "batch-j1":
        return BatchWorkload(seed, networks, jobs=1)
    if name == "batch-j2":
        return BatchWorkload(seed, networks, jobs=2)
    if name == "service-stream":
        return ServiceStreamWorkload(seed, networks)
    if name == "corpus-durable":
        return CorpusDurableWorkload(seed, networks)
    raise ValueError("unknown workload {!r}".format(name))
