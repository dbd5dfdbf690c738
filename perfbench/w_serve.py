"""serve-lint: the ``repro serve`` daemon, driven from one client process.

The daemon runs as a subprocess with ``--workers`` = core count,
``--engine codegen --lint error --optimize flow``.  Two phases:

* an open loop at a fixed rate on one connection from one thread,
  latency timed from each request's due send time;
* a closed loop on two connections (at most the core count), one thread
  and one request in flight on each.

30% of requests carry a program the daemon has not seen (a salted
variant of a hot program), so its worker parses, analyzes and compiles
it; the rest come from the hot set every worker prewarmed.  The lint
gate analyzes every request.  Spans inside the forked workers are not
taken; the traced run splits each round trip into worker service time
(the response's ``duration``) and socket/queue time, then replays the
same requests in-process through ``execute_request`` with the config
the CLI builds for the daemon, to time its layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import Dict, List, Optional

from common import (
    ROOT,
    InvalidRun,
    Pace,
    WorkloadBase,
    child_env,
    cores,
    median,
    mix_shares,
    process_tree_hwm_mb,
    quantile,
    ratio,
)
from layers import latency_ms, span_layers
from oracle import Oracle, outcome, reference_outcome
from programs import dealt, salted, serve_deck, strict_pairs
from spans import ROOT as ROOT_SPAN
from spans import Span

#: Open-loop rate (requests/s): about half the lowest closed-loop
#: capacity seen on a 2-vCPU host whose speed drifts (82 req/s; 150-200
#: typical).  At 70 req/s a slow spell queued requests without bound.
RATE = 40.0
#: Share of the run given to the open loop; the closed loop gets the rest.
OPEN_SHARE = 1 / 3
#: Closed-loop throughput is the median over windows of this many seconds.
WINDOW_S = 1.0
#: A run whose sender fell this far behind schedule (p90) is invalid.
LATE_LIMIT_S = 0.010
#: Closed-loop connections, one thread and one request in flight each;
#: never more than the cores (load discipline).
CONNECTIONS = min(2, cores())
#: How long to wait for outstanding responses after a phase.
DRAIN_S = 30.0
#: Sampled salted programs re-checked on the reference engine.
SALT_CHECKS = 5


def serve_argv(socket_path: str, prewarm: str) -> List[str]:
    return [
        "serve",
        "--socket",
        socket_path,
        "--workers",
        str(cores()),
        "--engine",
        "codegen",
        "--lint",
        "error",
        "--optimize",
        "flow",
        "--prewarm",
        prewarm,
    ]


def daemon_config(argv: List[str]):
    """The ``RunConfig`` the CLI builds for the daemon from ``argv``.

    Captured by running ``repro.cli.main`` with ``Server`` replaced, so
    the in-process replica runs with exactly the options the daemon's
    workers get, whatever the CLI does with each flag.
    """
    import repro.runtime.serve as serve_module
    from repro.cli import main

    captured = {}

    class Captured(Exception):
        pass

    class Capture:
        def __init__(self, *, config, **_):
            captured["config"] = config
            raise Captured

    original = serve_module.Server
    serve_module.Server = Capture
    try:
        main(argv)
    except Captured:
        pass
    finally:
        serve_module.Server = original
    if "config" not in captured:
        raise RuntimeError(f"repro serve rejected its arguments: {argv}")
    return captured["config"]


def _kill_group(pgid: int) -> None:
    """Kill what is left of a daemon's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = perf_counter() + 10
    while perf_counter() < deadline and _group_alive(pgid):
        time.sleep(0.01)


def _group_alive(pgid: int) -> bool:
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group; zombies
        # of reparented workers are reaped by init.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def serve_metrics(result: Dict[str, object]) -> Dict[str, float]:
    """The ``runtime.serve.*`` and ``runtime.process_pool.*`` metrics."""
    return {
        "runtime.serve.ipc_p50_ms": result["ipc_p50_ms"],
        "runtime.process_pool.service_p50_ms": result["service_p50_ms"],
        "runtime.serve.rejected": float(result["rejected"]),
        "runtime.serve.cold_share": result["cold_share"],
        "runtime.serve.late_p90_ms": result["late_p90_ms"],
    }


def serve_probe(tmp: str, seconds: float) -> Dict[str, float]:
    """A short serve-lint run whose serve and pool layers another workload
    reports: serve-lint itself is too unsteady on a small shared host for
    the gated set (see README)."""
    workload = Workload(random.Random(0), tiny=False, tmp=tmp)
    workload.pace = Pace()
    oracle = Oracle()
    try:
        workload.setup(1)
        workload.build_oracle(oracle)
        result = workload.measure(seconds, oracle)
    finally:
        workload.close()
    if oracle.mismatches or result["failed"]:
        oracle.report()
        raise RuntimeError(f"serve probe: {result['failed']} failed requests")
    return serve_metrics(result)


class Connection:
    """One JSONL client connection."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def send(self, record: Dict[str, object]) -> None:
        self.sock.sendall((json.dumps(record) + "\n").encode("utf-8"))

    def receive(self) -> Optional[Dict[str, object]]:
        line = self.reader.readline()
        return json.loads(line) if line else None

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.reader.close()
        self.sock.close()


class Workload(WorkloadBase):
    name = "serve-lint"
    #: Import metrics come from the daemon's own entry point.
    probe = ["cli"]

    def __init__(self, rng: random.Random, tiny: bool, tmp: str) -> None:
        self.rng = rng
        self.tmp = tmp
        self.deck = serve_deck()
        self.hot = strict_pairs()
        if tiny:
            self.hot = self.hot[::11]
            keep = set(self.hot)
            self.deck = [entry for entry in self.deck if (entry[0], entry[1]) in keep]
        self.stream = dealt(self.deck, rng)
        self.salt = rng.randrange(1, 1 << 30) * 1000
        self.socket_path = ""
        self.prewarm_path = os.path.join(tmp, "prewarm.jsonl")
        self.daemon: Optional[subprocess.Popen] = None
        self.stopping: List[subprocess.Popen] = []
        self.daemon_rss = 0.0
        self.rate = RATE
        self.params = {
            "rate": self.rate,
            "workers": cores(),
            "hot": len(self.hot),
            "new_share": sum(new for _, _, new in self.deck) / len(self.deck),
            "argv": serve_argv("SOCKET", "PREWARM"),
        }

    # -- oracle ----------------------------------------------------------------

    def build_oracle(self, oracle: Oracle) -> None:
        for source, tools in self.hot:
            oracle.expect((source, tools), reference_outcome(source, tools))
        # A salted program denotes what its base does; confirm on a sample.
        for source, tools in self.rng.sample(self.hot, min(SALT_CHECKS, len(self.hot))):
            oracle.check(
                (source, tools),
                reference_outcome(salted(source, 7), tools),
                request=("salted", source, tools),
            )

    # -- daemon lifecycle ------------------------------------------------------

    def setup(self, repeats: int) -> List[float]:
        """Daemon start to first ``ping`` answered: imports, worker fork and
        prewarm.  The last daemon started stays up for the measurement."""
        with open(self.prewarm_path, "w", encoding="utf-8") as handle:
            for source, tools in self.hot:
                handle.write(json.dumps({"program": source, "tools": tools}) + "\n")
        samples = []
        for _ in range(repeats):
            if self.daemon is not None:
                # Stopping takes seconds of idle waiting inside the daemon;
                # let it run out while the next one starts, and reap it
                # before the measurement.
                self.daemon.send_signal(signal.SIGTERM)
                self.stopping.append(self.daemon)
            self.pace.burst()
            samples.append(self._start())
        return samples

    def _start(self) -> float:
        # One path per daemon: a stopping daemon unlinks its own socket
        # path on exit.  Relative to the root, as AF_UNIX paths are short.
        self.socket_path = os.path.relpath(
            os.path.join(self.tmp, f"serve-{len(self.stopping)}.sock"), ROOT
        )
        began = perf_counter()
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro"] + serve_argv(self.socket_path, self.prewarm_path),
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            # Its own process group, so the forked workers can be reaped
            # even when the daemon dies without stopping them.
            start_new_session=True,
        )
        deadline = began + 120
        while perf_counter() < deadline:
            if self.daemon.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.daemon.returncode}")
            try:
                conn = Connection(self.socket_path)
            except OSError:
                time.sleep(0.005)
                continue
            try:
                conn.send({"op": "ping"})
                reply = conn.receive()
            except OSError:
                reply = None
            finally:
                conn.close()
            if reply and reply.get("ok"):
                return perf_counter() - began
        raise RuntimeError("repro serve did not answer a ping within 120 s")

    def _reap(self) -> None:
        """Stop every daemon this workload started and wait for each."""
        if self.daemon is not None:
            self.stopping.append(self.daemon)
            self.daemon = None
        for daemon in self.stopping:
            if daemon.poll() is None:
                daemon.send_signal(signal.SIGTERM)
        for daemon in self.stopping:
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait(timeout=30)
            _kill_group(daemon.pid)
        self.stopping = []

    def extra_rss_mb(self) -> float:
        return self.daemon_rss

    # -- load ------------------------------------------------------------------

    def _next(self, ident: int) -> Dict[str, object]:
        source, tools, new = next(self.stream)
        self.salt += 1
        program = salted(source, self.salt) if new else source
        return {
            "id": ident,
            "program": program,
            "tools": tools,
            "_key": (source, tools),
            "_new": new,
        }

    def _open_loop(self, seconds: float, sent: List[Dict[str, object]]):
        """Send on schedule from this one thread, reading replies while it
        waits for each due time."""
        conn = Connection(self.socket_path)
        received: Dict[int, tuple] = {}
        pending = [b""]
        total = max(1, int(seconds * self.rate))

        def read(timeout: float) -> None:
            ready, _, _ = select.select([conn.sock], [], [], max(0.0, timeout))
            if not ready:
                return
            chunk = conn.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("repro serve closed the connection")
            arrived = perf_counter()
            *lines, pending[0] = (pending[0] + chunk).split(b"\n")
            for line in lines:
                reply = json.loads(line)
                received[reply["id"]] = (arrived, reply)

        late = []
        start = perf_counter() + 0.01
        try:
            for index in range(total):
                due = start + index / self.rate
                while perf_counter() < due:
                    read(due - perf_counter())
                request = self._next(index)
                request["_due"] = due
                request["_sent"] = perf_counter()
                conn.send({k: v for k, v in request.items() if not k.startswith("_")})
                late.append(request["_sent"] - due)
                sent.append(request)
            drained = perf_counter() + DRAIN_S
            while len(received) < total and perf_counter() < drained:
                read(drained - perf_counter())
        finally:
            conn.close()
        return received, late

    def _closed_loop(self, seconds: float, sent: List[Dict[str, object]]):
        received: Dict[int, tuple] = {}
        lock = threading.Lock()
        ids = iter(range(1 << 40, 1 << 41))
        stop = perf_counter() + seconds

        def client() -> None:
            conn = Connection(self.socket_path)
            try:
                while perf_counter() < stop:
                    with lock:
                        request = self._next(next(ids))
                        sent.append(request)
                    request["_sent"] = perf_counter()
                    conn.send({k: v for k, v in request.items() if not k.startswith("_")})
                    reply = conn.receive()
                    if reply is None:
                        return
                    with lock:
                        received[reply["id"]] = (perf_counter(), reply)
            finally:
                conn.close()

        began = perf_counter()
        threads = [
            threading.Thread(target=client, name=f"perfbench-closed-{n}")
            for n in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + DRAIN_S)
        return received, began

    def measure(self, seconds: float, oracle: Oracle, recorder=None) -> Dict[str, object]:
        for daemon in self.stopping:
            daemon.wait(timeout=30)
        open_sent: List[Dict[str, object]] = []
        closed_sent: List[Dict[str, object]] = []
        # Kernel samples only while the daemon is idle: under load it
        # would time contention with the system under test, not the host.
        self.pace.burst(0.5)
        open_replies, late = self._open_loop(seconds * OPEN_SHARE, open_sent)
        self.pace.burst(0.5)
        closed_replies, closed_began = self._closed_loop(
            seconds * (1 - OPEN_SHARE), closed_sent
        )
        self.daemon_rss = max(self.daemon_rss, process_tree_hwm_mb(self.daemon.pid))
        late_p90 = quantile(late, 0.9)
        if late_p90 > LATE_LIMIT_S:
            raise InvalidRun(
                f"open-loop sender ran {late_p90 * 1e3:.1f} ms late at p90 "
                f"(limit {LATE_LIMIT_S * 1e3:.0f} ms)"
            )
        failed = rejected = 0
        latencies, ipc, service = [], [], []
        for phase, sent, replies in (
            ("open", open_sent, open_replies),
            ("closed", closed_sent, closed_replies),
        ):
            for request in sent:
                got = replies.get(request["id"])
                if got is None:
                    failed += 1
                    continue
                arrived, reply = got
                if reply.get("error_type") == "Overloaded":
                    rejected += 1
                matched = oracle.check(request["_key"], outcome(reply), request=request["program"])
                failed += not (reply.get("ok") and matched)
                rtt = arrived - request["_sent"]
                ipc.append(rtt - float(reply.get("duration", 0.0)))
                service.append(float(reply.get("duration", 0.0)))
                if phase == "open":
                    latencies.append(arrived - request["_due"])
                    if recorder is not None:
                        self._spans(recorder, request, arrived, reply)
        attempted = len(open_sent) + len(closed_sent)
        p50, p90 = latency_ms(latencies)
        everything = open_sent + closed_sent
        result = {
            "attempted": attempted,
            "failed": failed,
            "samples": len(latencies),
            "p50_ms": p50,
            "p90_ms": p90,
            "tail_ms": p90,
            "ops_per_s": self._windowed_rate(closed_replies, closed_began),
            "late_p90_ms": late_p90 * 1e3,
            "rejected": rejected,
            "ipc_p50_ms": 1e3 * median(ipc),
            "service_p50_ms": 1e3 * median(service),
            "cold_share": ratio(sum(1 for r in everything if r["_new"]), len(everything)),
            "open_sent": open_sent,
            "mix": mix_shares(
                [
                    {"metrics": False, "new": r["_new"], "lint": True, "monitored": bool(r["tools"]), "engine": "codegen"}
                    for r in everything
                ]
            ),
        }
        return result

    @staticmethod
    def _windowed_rate(replies: Dict[int, tuple], began: float) -> float:
        """Median over whole ``WINDOW_S`` windows of completions per second."""
        counts: Dict[int, int] = {}
        for arrived, _ in replies.values():
            window = int((arrived - began) / WINDOW_S)
            counts[window] = counts.get(window, 0) + 1
        whole = [counts.get(w, 0) for w in range(max(counts, default=0))]
        return median(whole) / WINDOW_S if whole else 0.0

    @staticmethod
    def _spans(recorder, request, arrived: float, reply) -> None:
        """Round trip = worker service (the wire ``duration``) + the rest.

        The worker's interval is placed at the end of the round trip; only
        its length is measured, which is all the self-time split uses.
        """
        rid = ("open", request["id"])
        base = 10_000_000 + 3 * request["id"]
        duration = min(float(reply.get("duration", 0.0)), arrived - request["_sent"])
        recorder.spans.append(Span(base, ROOT_SPAN, request["_sent"], arrived, None, rid, {}))
        recorder.spans.append(
            Span(base + 1, "runtime.process_pool.service", arrived - duration, arrived, base, rid, {})
        )
        recorder.spans.append(
            Span(base + 2, "runtime.serve.ipc", request["_sent"], arrived - duration, base, rid, {})
        )

    def named(self, result: Dict[str, object]) -> Dict[str, object]:
        return {
            "serve_p50_ms": (result["p50_ms"], "ms"),
            "serve_p90_ms": (result["p90_ms"], "ms"),
            "serve_rps": (result["ops_per_s"], "req/s"),
            "serve_late_p90_ms": (result["late_p90_ms"], "ms"),
        }

    def layers(self, result: Dict[str, object], recorder) -> Dict[str, float]:
        import repro.runtime.batch as batch
        from repro.runtime import CompilationCache, RunRequest

        from spans import SpanRecorder, install

        out = serve_metrics(result)
        # In-process replica of a worker: the daemon's config, a cache
        # prewarmed with the hot set, then the open-loop requests in order.
        config = daemon_config(serve_argv(self.socket_path, self.prewarm_path))
        cache = CompilationCache(128)
        with contextlib.redirect_stderr(io.StringIO()):
            for source, tools in self.hot:
                batch.execute_request(0, RunRequest(source, tools), config=config, cache=cache)
        replica = SpanRecorder()
        uninstall = install(replica, batch_ids=lambda args, kwargs: args[0])
        try:
            # The lint gate prints warnings to stderr; the daemon's go nowhere.
            with contextlib.redirect_stderr(io.StringIO()):
                for index, request in enumerate(result["open_sent"]):
                    batch.execute_request(  # looked up after install(): the wrapped one
                        index,
                        RunRequest(request["program"], request["tools"]),
                        config=config,
                        cache=cache,
                    )
        finally:
            uninstall()
        out.update(span_layers(replica.spans, cache=cache))
        return out

    def close(self) -> None:
        self._reap()
