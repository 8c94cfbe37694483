"""Service workload: open-loop portal traffic against ``repro serve``.

The server runs as a child process over the generated project file.
One load-generator process with :data:`CONNECTIONS` threads, each on one
keep-alive connection, sends operations on a fixed schedule of
:data:`RATE` per second whatever the replies' latency; each latency is
timed from when its operation was due.  After the timed phase a seeded
sample of ``/cite`` bodies is compared byte for byte with a fresh
in-benchmark engine over the benchmark's mirror of the final data.
Times are scaled to a reference host speed by calibration units the
benchmark runs while the server is idle (see :mod:`perfbench.calibrate`).
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Any

from perfbench import inputs, layers
from perfbench.calibrate import Calibration, describe, scale_for
from perfbench.library import build_engine
from perfbench.stats import beyond, finite, median, percentile

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = 3200
PERSONS = 400
RATE = 20.0
WRITE_SHARE = 0.005
CONNECTIONS = 2
SETUPS = 5
WARM_READS = 100
SAMPLE = 40
START_TIMEOUT_S = 60.0
UNITS_BEFORE_SETUP = 10
IDLE_GAP_S = 0.015
UNIT_PAUSE_S = 0.005
WINDOW_S = 5.0


class Connection:
    """One keep-alive HTTP connection; a broken one is reopened."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str,
                payload: Any = None) -> tuple[int, bytes]:
        body = None if payload is None else json.dumps(payload).encode()
        try:
            self.http.request(method, path, body=body,
                              headers={"Content-Type": "application/json"})
            response = self.http.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            self.http = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=60)
            return 0, b""

    def stats(self) -> dict[str, Any]:
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.http.close()


def _operation(connection: Connection, op: inputs.PortalOp,
               include_tuples: bool = False) -> tuple[int, bytes]:
    if op.kind == "read":
        payload: dict[str, Any] = {"query": op.query}
        if include_tuples:
            payload["include_tuples"] = True
        return connection.request("POST", "/cite", payload)
    return connection.request("POST", f"/{op.kind}",
                              {"relation": "FC", "rows": [list(op.row)]})


class Server:
    """A ``repro serve`` child process (traced through the benchmark's
    launcher when ``dump`` is given)."""

    def __init__(self, project: Path, workdir: Path,
                 dump: Path | None) -> None:
        serve_args = ["--db", str(project), "--port", "0",
                      "--policy", "focused"]
        if dump is None:
            command = [sys.executable, "-m", "repro.cli", "serve",
                       *serve_args]
        else:
            command = [sys.executable,
                       str(ROOT / "perfbench" / "serve_traced.py"),
                       str(dump), *serve_args]
        self.log_path = workdir / "serve.log"
        self.log = open(self.log_path, "w")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = subprocess.Popen(command, stdout=self.log,
                                        stderr=subprocess.STDOUT, env=env,
                                        cwd=ROOT)
        self._seen = 0
        try:
            line = self.wait_for("serving ")
        except BaseException:
            self.stop()
            raise
        self.port = int(line.rsplit(":", 1)[1].split()[0])

    def wait_for(self, marker: str) -> str:
        """Block until the server logs a line containing ``marker``."""
        deadline = perf_counter() + START_TIMEOUT_S
        while perf_counter() < deadline:
            lines = self.log_path.read_text().splitlines()
            for number in range(self._seen, len(lines)):
                if marker in lines[number]:
                    self._seen = number + 1
                    return lines[number]
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"server never logged {marker!r}:\n"
                           + self.log_path.read_text()[-2000:])

    def signal(self, signum: int, marker: str) -> None:
        self.process.send_signal(signum)
        self.wait_for(marker)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def _drive(port: int, ops: list[inputs.PortalOp], start: float,
           out: list[tuple[inputs.PortalOp, int, float, float, float]],
           done: list[int], lock: threading.Lock) -> None:
    """Send ``ops`` on one connection, each no earlier than it is due;
    ``done[0]`` counts the replies of every connection."""
    connection = Connection(port)
    try:
        for op in ops:
            due = start + op.due
            wait = due - perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = perf_counter()
            status, __ = _operation(connection, op)
            out.append((op, status, due, sent, perf_counter()))
            with lock:
                done[0] += 1
    finally:
        connection.close()


def _calibrate_while_idle(calibration: Calibration, start: float,
                          dues: list[float], done: list[int],
                          threads: list[threading.Thread]
                          ) -> list[list[float]]:
    """Run calibration units while the load threads run, only when every
    operation due so far has its reply and none is due for a while, so
    a unit never overlaps the server's work nor delays a send.  Returns
    the unit times of each :data:`WINDOW_S` window of the phase."""
    windows: list[list[float]] = [[] for __ in range(_window(dues[-1],
                                                            start) + 1)]
    while any(thread.is_alive() for thread in threads):
        now = perf_counter()
        due_so_far = bisect.bisect_right(dues, now)
        if done[0] >= due_so_far and (due_so_far == len(dues)
                                      or dues[due_so_far] - now > IDLE_GAP_S):
            windows[_window(now, start, len(windows))].append(
                calibration.sample())
            time.sleep(UNIT_PAUSE_S)
        else:
            time.sleep(0.001)
    return windows


def _window(moment: float, start: float, count: int | None = None) -> int:
    """The window of the timed phase a moment falls in; moments after
    the last window's end count in the last window."""
    index = max(0, int((moment - start) // WINDOW_S))
    return index if count is None else min(index, count - 1)


def _stats_delta(before: dict[str, Any],
                 after: dict[str, Any]) -> dict[str, Any]:
    def endpoint_totals(stats: dict[str, Any],
                        only: str | None) -> tuple[int, float]:
        """Requests and summed server time, over one endpoint or over
        every endpoint but ``/stats``."""
        requests, total_ms = 0, 0.0
        for name, entry in stats["service"]["endpoints"].items():
            if name == only or (only is None and name != "GET /stats"):
                latency = entry["latency"]
                requests += entry["requests"]
                total_ms += latency["mean_ms"] * latency["count"]
        return requests, total_ms

    def delta(path: tuple[str, ...]) -> int:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    cite_after = endpoint_totals(after, "POST /cite")
    cite_before = endpoint_totals(before, "POST /cite")
    all_after = endpoint_totals(after, None)
    all_before = endpoint_totals(before, None)
    return {
        "cite_requests": cite_after[0] - cite_before[0],
        "cite_sum_ms": cite_after[1] - cite_before[1],
        "requests": all_after[0] - all_before[0],
        "sum_ms": all_after[1] - all_before[1],
        "plan_hits": delta(("engine", "plan_cache", "hits")),
        "plan_misses": delta(("engine", "plan_cache", "misses")),
        "rewrite_hits": delta(("engine", "rewriting_cache", "hits")),
        "rewrite_misses": delta(("engine", "rewriting_cache", "misses")),
        "batches": delta(("service", "batching", "batches_executed")),
        "batched_requests": delta(("service", "batching",
                                   "batched_requests")),
        "rejected": delta(("service", "rejected")),
        "timeouts": delta(("service", "timeouts")),
    }


def _fresh_body(engine: Any, query: str) -> bytes:
    """The ``/cite`` body (with tuples) a fresh engine would send."""
    result = engine.cite(query)
    payload = result.citation()
    payload["tuples"] = [{"tuple": list(tc.output), "citations": tc.records}
                         for tc in result.tuples.values()]
    return json.dumps(payload, default=str).encode("utf-8") + b"\n"


def _check(port: int, data: inputs.GtopdbData, applied: list[Any],
           ops: list[inputs.PortalOp], seed: int,
           workdir: Path) -> tuple[int, int, list[str]]:
    """Compare a seeded sample of ``/cite`` bodies with a fresh engine
    over the mirror of the final data; returns (checked, wrong, notes)."""
    # Row order matters: it is the order of result tuples.  The server
    # keeps insertion order, appending inserts and dropping deletes.
    present = {tuple(row): None for row in data.rows["FC"]}
    for kind, row in applied:
        if kind == "insert":
            present[row] = None
        else:
            present.pop(row, None)
    rows = dict(data.rows)
    rows["FC"] = [list(row) for row in present]
    final = inputs.GtopdbData(rows)
    project = workdir / "final.json"
    final.write_project(project)
    engine = build_engine(project, "focused")

    reads = sorted({op.query for op in ops if op.kind == "read"})
    touched = [inputs.PORTAL_TEMPLATES["committee"].format(fid=row[0])
               for __, row in applied]
    rng = random.Random(f"check/{seed}")
    sample = rng.sample(reads, min(SAMPLE, len(reads)))
    sample += sorted(set(touched))[:SAMPLE]
    connection = Connection(port)
    wrong, notes = 0, []
    try:
        for query in sample:
            status, body = _operation(
                connection, inputs.PortalOp(0.0, "read", query=query),
                include_tuples=True)
            expected = _fresh_body(engine, query)
            if status != 200 or body != expected:
                wrong += 1
                notes.append(f"FAILED check {query}: status {status}, "
                             "body differs from a fresh engine")
    finally:
        connection.close()
    return len(sample), wrong, notes


def run(seed: int, seconds: float, trace: bool,
        workdir: Path) -> dict[str, Any]:
    data = inputs.generate_gtopdb(seed, FAMILIES, PERSONS)
    project = workdir / "project.json"
    data.write_project(project)
    traffic = inputs.PortalTraffic(data, seed)
    warm = [inputs.PortalOp(0.0, "read", query=traffic.read(slot))
            for slot in range(WARM_READS)]
    ops = traffic.schedule(RATE, seconds, WRITE_SHARE)
    dump = workdir / "spans.jsonl" if trace else None
    report = [f"service-portal: {FAMILIES} families, {PERSONS} persons, "
              f"policy focused, open loop at {RATE:g} ops/s "
              f"({100 * WRITE_SHARE:g}% writes) from {CONNECTIONS} "
              f"keep-alive connections, {len(ops)} ops"]

    calibration = Calibration()
    setup_times, setup_raw = [], []
    server = None
    try:
        for attempt in range(SETUPS):
            # A calibration unit runs before the spawn and after every
            # warm-up reply, while the server is idle; its time is not
            # set-up time.
            for __ in range(UNITS_BEFORE_SETUP):
                calibration.sample()
            started = perf_counter()
            units = 0.0
            server = Server(project, workdir, dump)
            connection = Connection(server.port)
            try:
                for op in warm:
                    status, body = _operation(connection, op)
                    if status != 200:
                        raise RuntimeError(
                            f"warm-up {op.query} answered {status}: {body!r}")
                    units += calibration.sample()
            finally:
                connection.close()
            setup_raw.append(perf_counter() - started - units)
            setup_times.append(setup_raw[-1] * calibration.close_window())
            if attempt < SETUPS - 1:
                server.stop()

        control = Connection(server.port)
        before = control.stats()
        if trace:
            server.signal(signal.SIGUSR1, "tracing on")
        results: list[Any] = []
        start = perf_counter() + 0.05
        threads = []
        done, lock = [0], threading.Lock()
        for lane in range(CONNECTIONS):
            out: list[Any] = []
            results.append(out)
            thread = threading.Thread(
                target=_drive,
                args=(server.port, ops[lane::CONNECTIONS], start, out,
                      done, lock))
            thread.start()
            threads.append(thread)
        windows = _calibrate_while_idle(
            calibration, start, [start + op.due for op in ops], done,
            threads)
        for thread in threads:
            thread.join()
        # A window whose server never fell idle takes the phase's speed.
        phase = calibration.close_window()
        scales = [scale_for(units) if units else phase for units in windows]
        finished = max(record[4] for out in results for record in out)
        if trace:
            server.signal(signal.SIGUSR2, "tracing off")
        delta = _stats_delta(before, control.stats())
        control.close()

        records = sorted((r for out in results for r in out),
                         key=lambda record: record[2])
        # A 504 still completes on the server's engine lane.
        applied = [(op.kind, op.row) for op, status, *__ in records
                   if op.kind != "read" and status in (200, 504)]
        checked, wrong, notes = _check(server.port, data, applied, ops,
                                       seed, workdir)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    with open(workdir / "ops.jsonl", "w") as handle:
        for op, status, due, sent, done in records:
            handle.write(json.dumps([op.kind, status, due - start,
                                     sent - start, done - start]) + "\n")
    reads = [r for r in records if r[0].kind == "read"]
    writes = [r for r in records if r[0].kind != "read"]

    def latencies(chosen: list[Any]) -> list[float]:
        """Latencies from due time, each at the host speed of the window
        it was due in, scaled to the reference speed."""
        return [(done - due) * 1000.0 * scales[_window(due, start,
                                                       len(scales))]
                if status == 200 else float("inf")
                for __, status, due, __, done in chosen]

    read_ms, write_ms = latencies(reads), latencies(writes)
    # Each percentile is taken per window and the median over windows
    # reported, so a slow spell on a shared host moves few of them.
    by_window: list[list[float]] = [[] for __ in scales]
    for record, value in zip(reads, read_ms):
        by_window[_window(record[2], start, len(scales))].append(value)
    late_ms = [(sent - due) * 1000.0 for __, __, due, sent, __ in records]
    failed = sum(1 for r in records if r[1] != 200) + wrong
    attempted = len(records) + checked
    elapsed = finished - start
    ok_reads = sum(1 for r in reads if r[1] == 200)
    e2e = {
        "setup_s": median(setup_times),
        "peak_rss_mb": rss,
        "cites_per_s": ok_reads / elapsed,
        "cite_p50_ms": finite(median([percentile(values, 0.50)
                                      for values in by_window if values])),
        "cite_p90_ms": finite(median([percentile(values, 0.90)
                                      for values in by_window if values])),
    }
    statuses: dict[int, int] = {}
    for record in records:
        statuses[record[1]] = statuses.get(record[1], 0) + 1
    report += notes
    report += [
        f"timed: {len(records)} ops in {elapsed:.2f} s, statuses "
        f"{dict(sorted(statuses.items()))}; sample check {checked} "
        f"bodies, {wrong} wrong; set-ups measured "
        + ", ".join(f"{value:.3f}" for value in setup_raw) + " s, scaled "
        + ", ".join(f"{value:.3f}" for value in setup_times)
        + f" s; {describe(calibration)}; timed-phase windows of "
        f"{WINDOW_S:g} s scaled by "
        + ", ".join(f"{value:.3f}" for value in scales),
        "latency from due time, scaled to the reference host speed "
        "(late_p99_ms as measured):",
    ]
    for name, values, share in (("read_p50_ms", read_ms, 0.50),
                                ("read_p99_ms", read_ms, 0.99),
                                ("write_p50_ms", write_ms, 0.50),
                                ("write_p90_ms", write_ms, 0.90),
                                ("late_p99_ms", late_ms, 0.99)):
        report.append(
            f"  {name:<14} {finite(percentile(values, share)):14.4f} ms  "
            f"(n={len(values)}, {beyond(values, share)} beyond)")
    result: dict[str, Any] = {"attempted": attempted, "failed": failed,
                              "e2e": e2e, "report": report}
    if trace:
        with open(dump) as handle:
            header = json.loads(handle.readline())
        rtt = [(done - sent) * 1000.0 for __, __, __, sent, done in reads]
        client = {"read_rtt_ms": sum(rtt) / len(rtt),
                  "late_p99_ms": percentile(late_ms, 0.99)}
        result["per_layer"] = layers.service_layers(header["totals"], delta,
                                                    client)
        result["layer_base_s"] = delta["sum_ms"] / 1000.0
        report.append(f"spans: {header['totals']['spans_recorded']} "
                      f"written to {dump}")
    return result
