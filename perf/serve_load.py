"""The ``serve_rw`` load generator: one process, two connections.

One repetition starts the real server (``python -m repro serve P
--facts F --journal J --workers 2 --port 0``), then drives it over TCP:

* a **writer, open loop**: one ``+``/``-`` line of three facts every
  ``1 / write_rate`` seconds from a seeded script.  Latency runs from
  the moment the request was *due*, so a stall is charged to every
  request it delays, and the generator's own lateness is reported;
* a **reader, closed loop** (the protocol is request–reply per
  connection): the seeded read mix, next request when the reply is in.

After the load the generator asks the fixed check queries and compares
them with :mod:`oracle`'s answers over *its own* live edge set, stops
the server, and times ``python -m repro recover`` (three times) to a
dump that must equal that edge set and its closure.
"""

from __future__ import annotations

import bisect
import os
import signal
import socket
import statistics
import subprocess
import threading
import time
from time import perf_counter

import oracle
from calibrate import REFERENCE_MS, speed_ms, spin_ms

SPEED_CHECK_EVERY = 0.5  # seconds, inside the load
READ_LIMIT_MS = 50.0
WRITE_LIMIT_MS = 500.0


class Connection:
    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, line):
        """Send one command; returns (payload lines, status, reply bytes)."""
        self.sock.sendall(line.encode() + b"\n")
        payload, size = [], 0
        while True:
            reply = self.reader.readline()
            if not reply:
                raise ConnectionError("server closed the connection")
            size += len(reply)
            text = reply.decode().rstrip("\n")
            if text.startswith("= "):
                payload.append(text[2:])
            else:
                return payload, text, size

    def close(self):
        try:
            self.request("quit")
        except (OSError, ConnectionError):
            pass
        self.reader.close()
        self.sock.close()


def _wait_for_port(process, deadline):
    """The port from the server's ``listening on HOST:PORT`` line."""
    found = []

    def scan():
        for raw in process.stdout:
            line = raw.decode().strip()
            if line.startswith("listening on "):
                found.append(line.rsplit(":", 1))
                return

    thread = threading.Thread(target=scan, daemon=True)
    thread.start()
    thread.join(deadline)
    if not found:
        raise RuntimeError("server did not print 'listening on' in time")
    host = found[0][0][len("listening on "):]
    return host, int(found[0][1])


def _peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _stop(process):
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def _dump_problems(recovered, live, closure):
    """What is wrong with one ``repro recover`` dump (nothing, we hope)."""
    dumped = {"e": [], "t": []}
    for line in recovered.stdout.decode().splitlines():
        name, _, rest = line.partition("(")
        dumped[name].append(tuple(int(x) for x in rest.rstrip(").").split(",")))
    problems = []
    if recovered.returncode != 0 or set(dumped["e"]) != live:
        problems.append(f"recover: exit {recovered.returncode}, edge set differs")
    if oracle.digest(dumped["t"]) != closure:
        problems.append("recover: closure differs from the oracle's")
    return problems


def run_rep(inputs, expected, workdir, python, env, traced, root):
    """One repetition; returns the same record shape as ``rep.py``."""
    os.makedirs(workdir, exist_ok=True)
    program = os.path.join(workdir, "program.dl")
    facts = os.path.join(workdir, "facts.dl")
    journal = os.path.join(workdir, "journal.rjn")
    with open(program, "w") as handle:
        handle.write(inputs["text"])
    with open(facts, "w") as handle:
        handle.write(inputs["facts_text"])
    if os.path.exists(journal):  # a fresh journal per repetition
        os.remove(journal)

    def command(spans, *argv):
        if traced:
            return [python, os.path.join(root, "perf", "serve_traced.py"), spans, *argv]
        return [python, "-m", "repro", *argv]

    server_spans = os.path.join(workdir, "server-spans.jsonl")
    recover_spans = os.path.join(workdir, "recover-spans.jsonl")
    failures = []
    record = {"workload": "serve_rw", "traced": int(traced)}

    spawned = time.time()
    with open(os.path.join(workdir, "server.err"), "wb") as errors:
        server = subprocess.Popen(
            command(
                server_spans, "serve", program, "--facts", facts,
                "--journal", journal, "--workers", "2", "--port", "0",
            ),
            stdout=subprocess.PIPE, stderr=errors, env=env, cwd=root,
        )
    try:
        host, port = _wait_for_port(server, 60)
        raw_setup = time.time() - spawned
        checks = [speed_ms()]
        record["setup_s"] = raw_setup * REFERENCE_MS / checks[0]
        record["raw_setup_s"] = raw_setup
        reader, writer = Connection(host, port), Connection(host, port)

        noop_ms = []
        if traced:  # the socket + framing floor: a blank line answers "ok"
            for _ in range(200):
                begin = perf_counter()
                reader.request("")
                noop_ms.append((perf_counter() - begin) * 1000.0)

        writes, reads = inputs["writes"], inputs["reads"]
        interval = 1.0 / inputs["write_rate"]
        start = perf_counter() + 0.05
        write_ms, late_ms, read_ms = [], [], []  # (at, ...) samples
        writer_done = threading.Event()
        speed = [(perf_counter(), checks[0])]  # (at, spin ms) during the load

        def write_loop():
            try:
                for k, (sign, _, line) in enumerate(writes):
                    due = start + k * interval
                    delay = due - perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = perf_counter()
                    _, status, _ = writer.request(line)
                    write_ms.append((sent, sign, (perf_counter() - due) * 1000.0))
                    late_ms.append((sent - due) * 1000.0)
                    if not status.startswith("ok"):
                        failures.append(f"write {line!r}: {status}")
            except (OSError, ConnectionError) as exc:
                failures.append(f"writer connection: {exc}")
            finally:
                writer_done.set()

        def read_loop():
            # Closed loop, so the reader can afford a speed check every
            # half second between two requests: no read's latency
            # contains it, and the machine's speed is sampled while the
            # load runs, not only around it.
            i = 0
            next_check = start + SPEED_CHECK_EVERY
            try:
                while not writer_done.is_set():
                    begin = perf_counter()
                    if begin >= next_check:
                        speed.append((begin, spin_ms()))
                        next_check += SPEED_CHECK_EVERY
                        continue
                    _, status, _ = reader.request(reads[i % len(reads)])
                    read_ms.append((begin, (perf_counter() - begin) * 1000.0))
                    if not status.startswith("ok"):
                        failures.append(f"read {reads[i % len(reads)]!r}: {status}")
                    i += 1
            except (OSError, ConnectionError) as exc:
                failures.append(f"reader connection: {exc}")

        threads = [threading.Thread(target=write_loop), threading.Thread(target=read_loop)]
        load_begin = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        load_end = perf_counter()
        checks.append(speed_ms())
        speed.append((load_end, checks[1]))
        # the reader spent this long checking the speed, not reading
        load_s = load_end - load_begin
        read_s = load_s - sum(ms for _, ms in speed[1:-1]) / 1000.0

        check_times = [at for at, _ in speed]

        def scale(at):
            """Reference speed over the two speed checks around ``at``."""
            after = min(bisect.bisect_left(check_times, at), len(speed) - 1)
            before = max(0, after - 1)
            return REFERENCE_MS / ((speed[before][1] + speed[after][1]) / 2.0)

        # quiesced: the end state must be the generator's own
        reply_bytes = 0
        for line, want in zip(inputs["checks"], expected["checks"]):
            payload, status, size = reader.request(line)
            reply_bytes += size
            if not status.startswith("ok") or sorted(payload) != want:
                failures.append(f"check {line!r}: {status}, {len(payload)} rows")
        record["peak_rss_mb"] = _peak_rss_mb(server.pid)
        reader.close()
        writer.close()
    finally:
        _stop(server)

    # recovery is one short process: run it a few times, each between
    # two speed checks and each checked; the middle time counts
    live = {tuple(edge) for edge in expected["live"]}
    closure = oracle.digest(oracle.closure_rows(live))
    recoveries = []
    for _ in range(inputs["recoveries"]):
        begin = perf_counter()
        recovered = subprocess.run(
            command(recover_spans, "recover", program, journal, "--facts", facts),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root,
        )
        raw = perf_counter() - begin
        checks.append(speed_ms())
        recoveries.append((raw * REFERENCE_MS / ((checks[-2] + checks[-1]) / 2.0), raw))
        failures.extend(_dump_problems(recovered, live, closure))
    recover_s, raw_recover_s = sorted(recoveries)[len(recoveries) // 2]

    attempted = len(write_ms) + len(read_ms) + len(inputs["checks"]) + len(recoveries)
    over = (
        sum(ms > READ_LIMIT_MS for _, ms in read_ms)
        + sum(ms > WRITE_LIMIT_MS for _, _, ms in write_ms)
    )
    spin = statistics.median(ms for _, ms in speed)
    scaled_writes = [(sign, ms * scale(at)) for at, sign, ms in write_ms]
    record.update(
        # at reference speed, like every timing (see calibrate.py)
        wall_s=recover_s,
        raw_wall_s=raw_recover_s,
        raw_measured_s=load_s + sum(raw for _, raw in recoveries),
        reads_ms=[ms * scale(at) for at, ms in read_ms],
        writes_ms=[ms for _, ms in scaled_writes],
        spin_ms=spin,
        case_s={},
        serve={
            "insert_ms": [ms for sign, ms in scaled_writes if sign == "+"],
            "delete_ms": [ms for sign, ms in scaled_writes if sign == "-"],
            "late_ms": late_ms, "noop_ms": noop_ms,
            "reads_per_s": len(read_ms) / (read_s * REFERENCE_MS / spin),
            "over_limit_share": min(1.0, (over + len(failures)) / attempted),
            "reply_bytes": reply_bytes,
            "journal_bytes_per_fact": os.path.getsize(journal) / sum(len(edges) for _, edges, _ in writes),
        },
        counts={"writes": len(write_ms), "checks": len(inputs["checks"])},
        digest=oracle.digest([(reply_bytes, len(live))])[1],
        attempted=attempted,
        failed=len(failures),
        errors=failures[:5],
        spans=[server_spans, recover_spans] if traced else [],
    )
    return record
