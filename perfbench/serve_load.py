"""The serve workloads: a ``python -m repro.serve`` subprocess under a
closed-loop HTTP load from this process.

Server lifecycle: the server starts in its own session (so its own
process group), with a fresh cache directory and ledger inside the
checkout.  Its port is read from the ``serving on`` line.  Teardown
signals the whole process group, not only the server: SIGTERM to the
server process alone exits it but leaves its fork-pool workers alive,
still holding the listen socket, so the next bind fails with
EADDRINUSE.  That is a defect of the server, not fixed here.

Inputs come from this file's own generator, seeded by ``--seed``; the
program receives only the generated requests.
"""

import asyncio
import itertools
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import common
from common import WORKERS, percentile
from tracing import OFF

#: Pinned server scale and the fast kernel pair the requests use.
SCALE = 0.25
KERNELS = ("prtcl-2", "mri-g-1")

#: The hot pool: 4 controller keys x the 2 kernels = 8 digests.
HOT_KEYS = (("baseline",), ("equalizer", "performance"),
            ("equalizer", "energy"), ("dyncta",))

#: Each timed phase sends for ``--seconds`` seconds, and at least
#: ``MIN_REQUESTS`` requests so ``latency_p90_ms`` has 10 samples
#: beyond it.  Requests come in order from the seeded trace.
MIN_REQUESTS = 100

#: Full set-ups (boot + warm-up) per run; the last one is measured.
SETUPS = 5

#: Budget range of the distinct ``("boost", budget_w)`` miss jobs; the
#: warm-up job's budget lies outside it, so its digest is never in a
#: trace.
BUDGET_RANGE = (20.0, 500.0)
WARMUP_BUDGET = 777.0

#: Per-request deadline and the poll interval after a 202.
DEADLINE_S = 60.0
POLL_S = 0.02

#: Seconds to wait for the ``serving on`` line.
BOOT_TIMEOUT_S = 60.0


def hot_trace(seed: int) -> Iterator[Tuple[str, Tuple]]:
    """Endless draws from the hot pool."""
    pool = [(kernel, key) for key in HOT_KEYS for kernel in KERNELS]
    rng = random.Random(f"serve-hot:{seed}")
    while True:
        yield rng.choice(pool)


def miss_trace(seed: int) -> Iterator[Tuple[str, Tuple]]:
    """Endless distinct, never-seen boost jobs with continuous budgets.

    The kernels alternate, so every phase runs the same kernel mix and
    only the budgets depend on the seed.
    """
    rng = random.Random(f"serve-miss:{seed}")
    seen = set()
    for kernel in itertools.cycle(KERNELS):
        budget = round(rng.uniform(*BUDGET_RANGE), 6)
        while budget in seen:
            budget = round(rng.uniform(*BUDGET_RANGE), 6)
        seen.add(budget)
        yield kernel, ("boost", budget)


def request_body(kernel: str, key: Tuple, client: str) -> bytes:
    return json.dumps({"kernel": kernel, "key": list(key),
                       "client": client, "wait": True}).encode()


class Server:
    """One ``python -m repro.serve`` process group."""

    def __init__(self) -> None:
        self.dir = common.fresh_dir("serve-")
        self.port: Optional[int] = None
        self.boot_s = 0.0
        self._proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        start = time.perf_counter()
        self._log = open(os.path.join(self.dir, "server.log"), "wb")
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--scale", str(SCALE), "--workers", str(WORKERS),
             "--cache-dir", os.path.join(self.dir, "cache"),
             "--ledger", os.path.join(self.dir, "ledger.sqlite")],
            cwd=str(common.ROOT), env=common.child_env(),
            stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True)
        ready, _, _ = select.select([self._proc.stdout], [], [],
                                    BOOT_TIMEOUT_S)
        line = self._proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on http://"):
            with open(self._log.name, "rb") as f:
                log = f.read()[-2000:].decode(errors="replace")
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}\n{log}")
        self.port = int(line.rsplit(":", 1)[1])
        self.boot_s = time.perf_counter() - start

    def peak_rss_kib(self) -> int:
        if self._proc is None:
            return 0
        return max([0] + [common.vm_hwm_kib(pid) for pid in
                          common.group_members(self._proc.pid)])

    def stop(self) -> None:
        """Terminate the whole process group and wait for every member."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        try:
            common.stop_group(proc)
        finally:
            proc.stdout.close()
            self._log.close()
        common.remove_dir(self.dir)


async def _roundtrip(reader, writer, method: str, path: str,
                     body: bytes = b"") -> Tuple[int, bytes]:
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                 f"Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _request(port: int, conn: Dict, method: str, path: str,
                   body: bytes = b"") -> Tuple[Optional[int], bytes]:
    """One request on a keep-alive connection, reconnecting as needed;
    a 202 is followed by polling until the final reply."""
    try:
        if conn.get("writer") is None:
            conn["reader"], conn["writer"] = \
                await asyncio.open_connection("127.0.0.1", port)
        status, payload = await _roundtrip(conn["reader"],
                                           conn["writer"], method,
                                           path, body)
        while status == 202:
            await asyncio.sleep(POLL_S)
            digest = json.loads(payload)["digest"]
            status, payload = await _roundtrip(
                conn["reader"], conn["writer"], "GET",
                f"/result/{digest}")
        return status, payload
    except (OSError, asyncio.IncompleteReadError, ValueError):
        writer = conn.pop("writer", None)
        if writer is not None:
            writer.close()
        return None, b""


async def _drive(port: int, trace: Iterator, seconds: float,
                 min_requests: int, clients: int, tracer) -> Tuple[List,
                                                                 List]:
    """Closed loop: each client sends its next request after its reply,
    until ``seconds`` have passed and ``min_requests`` were sent.

    Returns the jobs sent and, per request, ``(start, end, status,
    payload)``; a failed request has status None.
    """
    sent: List = []
    results: List = []
    # Replies to one digest are byte-identical; keeping one copy of
    # each keeps the client's memory out of peak_rss_mb.
    distinct: Dict[bytes, bytes] = {}
    phase_start = time.perf_counter()

    async def client(name: str) -> None:
        conn: Dict = {}
        while (len(results) < min_requests
               or time.perf_counter() - phase_start < seconds):
            job = next(trace, None)
            if job is None:
                break
            index = len(results)
            sent.append(job)
            results.append(None)
            kernel, key = job
            body = request_body(kernel, key, name)
            start = time.perf_counter()
            try:
                status, payload = await asyncio.wait_for(
                    _request(port, conn, "POST", "/simulate", body),
                    DEADLINE_S)
            except asyncio.TimeoutError:
                status, payload = None, b""
                writer = conn.pop("writer", None)
                if writer is not None:
                    writer.close()
            end = time.perf_counter()
            tracer.record("serve.request", start, end, request=index)
            results[index] = (start, end, status,
                              distinct.setdefault(payload, payload))
        if conn.get("writer") is not None:
            conn["writer"].close()
            await conn["writer"].wait_closed()

    await asyncio.gather(*(client(f"bench-{i}")
                           for i in range(clients)))
    return sent, results


def send(port: int, trace: Iterable, seconds: float = 0,
         min_requests: int = 0, tracer=OFF,
         clients: int = WORKERS) -> Tuple[float, List, List]:
    """Send requests from a trace in order; returns (wall seconds, jobs
    sent, per-request results).  With the defaults a finite trace is
    sent whole."""
    start = time.perf_counter()
    sent, results = asyncio.run(_drive(port, iter(trace), seconds,
                                       min_requests or float("inf"),
                                       clients, tracer))
    return time.perf_counter() - start, sent, results


def stats(port: int) -> Dict:
    async def get() -> Tuple[Optional[int], bytes]:
        conn: Dict = {}
        try:
            return await _request(port, conn, "GET", "/stats")
        finally:
            if conn.get("writer") is not None:
                conn["writer"].close()
    status, payload = asyncio.run(get())
    if status != 200:
        raise RuntimeError(f"GET /stats answered {status}")
    return json.loads(payload)


def _setup(workload: str) -> Tuple[Server, float]:
    """Boot a server and warm it; returns it with the set-up time."""
    start = time.perf_counter()
    server = Server()
    try:
        server.start()
        if workload == "serve-hot":
            warm = [(kernel, key) for key in HOT_KEYS
                    for kernel in KERNELS]
        else:
            warm = [(KERNELS[0], ("boost", WARMUP_BUDGET))]
        _, _, results = send(server.port, warm)
        bad = [r[2] for r in results if r[2] != 200]
        if bad:
            raise RuntimeError(f"warm-up answered {bad}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def _timed(server: Server, trace: Iterator, seconds: float,
           tracer) -> Dict:
    before = stats(server.port)
    wall, sent, results = send(server.port, trace, seconds, MIN_REQUESTS,
                               tracer)
    after = stats(server.port)
    return {"wall": wall, "results": results, "trace": sent,
            "before": before, "after": after}


def run(workload: str, seed: int, seconds: int, tracer) -> Dict:
    """One run of a serve workload; see ``run.py`` for the metrics."""
    # Every phase continues the one seeded trace, so no miss repeats.
    trace = hot_trace(seed) if workload == "serve-hot" else \
        miss_trace(seed)

    setup_times, boots = [], []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server, setup_s = _setup(workload)
            setup_times.append(setup_s)
            boots.append(server.boot_s)
        if tracer.enabled:
            # Untraced, traced, untraced: the outer passes bracket the
            # traced one, so drift between passes cancels out of the
            # tracing overhead.
            phases = [_timed(server, trace, seconds / 2, OFF),
                      _timed(server, trace, seconds, tracer),
                      _timed(server, trace, seconds / 2, OFF)]
        else:
            phases = [_timed(server, trace, seconds, OFF)]
        rss_kib = max(server.peak_rss_kib(), common.self_rss_kib())
    finally:
        if server is not None:
            server.stop()

    phase = phases[len(phases) // 2]
    return _summarize(workload, seed, phase, phases, setup_times, boots,
                      rss_kib, tracer)


def _summarize(workload, seed, phase, phases, setup_times, boots,
               rss_kib, tracer) -> Dict:
    trace = phase["trace"]
    results = phase["results"]
    latencies = [(end - start) * 1e3 if status == 200 else float("inf")
                 for start, end, status, _ in results]
    failed = latencies.count(float("inf"))
    bodies: Dict[bytes, Dict] = {}
    for _, _, status, payload in results:
        if status == 200 and payload not in bodies:
            bodies[payload] = json.loads(payload)
    solo = _solo(trace, results, workload, seed, tracer)
    checks = _check(workload, trace, results, bodies, solo)
    out = {
        "setup_s": statistics.median(setup_times),
        "setup_samples": len(setup_times),
        "wall_s": phase["wall"],
        "attempted": len(results),
        "failed": failed,
        "latencies_ms": latencies,
        "ticks": sum(bodies[p]["result"]["result"]["ticks"]
                     for _, _, s, p in results if s == 200),
        "ops": len(results) - failed,
        "checks": checks,
        "rss_kib": rss_kib,
    }
    if tracer.enabled:
        out["layers"] = _layers(workload, phase, phases, boots,
                                solo, latencies)
    return out


def _solo(trace, results, workload, seed, tracer) -> Dict:
    """``execute_job`` in this process, after timing, on served jobs.

    Untraced runs pick at most 4 distinct seeded jobs, to check their
    bytes.  A traced ``serve-miss`` run executes every served job, so
    each request's latency splits into its solo time and the rest.
    """
    from repro.engine.executor import execute_job
    from repro.experiments.common import default_sim

    served = [i for i, r in enumerate(results) if r[2] == 200]
    if tracer.enabled and workload == "serve-miss":
        picks = served
    else:
        by_job = {}
        for i in served:
            by_job.setdefault(trace[i], i)
        distinct = sorted(by_job.values())
        picks = random.Random(f"{workload}-check:{seed}").sample(
            distinct, min(4, len(distinct)))
    sim = default_sim()
    solo = {}
    for i in picks:
        kernel, key = trace[i]
        start = time.perf_counter()
        result, _ = execute_job(kernel, key, SCALE, sim)
        end = time.perf_counter()
        tracer.record("serve.solo_exec", start, end, request=i)
        solo[i] = (result, end - start)
    return solo


def _check(workload, trace, results, bodies, solo) -> List[str]:
    """Digest and provenance of every 200; exact bytes of solo jobs."""
    from repro.engine.fingerprint import job_digest
    from repro.engine.jobs import Job
    from repro.experiments.common import default_sim
    from repro.serve.protocol import result_body
    from repro.workloads import kernel_by_name

    sim = default_sim()
    want = "cache" if workload == "serve-hot" else "simulated"
    digests: Dict = {}
    problems = []
    for i, (_, _, status, payload) in enumerate(results):
        if status != 200:
            continue
        kernel, key = trace[i]
        digest = digests.get(trace[i])
        if digest is None:
            digest = job_digest(Job(kernel=kernel, key=key),
                                kernel_by_name(kernel), sim, SCALE)
            digests[trace[i]] = digest
        body = bodies[payload]
        if body["digest"] != digest:
            problems.append(f"{workload} request {i}: digest "
                            f"{body['digest']} != {digest}")
        if body["provenance"] != want:
            problems.append(f"{workload} request {i}: provenance "
                            f"{body['provenance']!r} != {want!r}")
        if i in solo and payload != result_body(digest, want,
                                                solo[i][0]):
            problems.append(f"{workload} request {i}: result differs "
                            f"from execute_job on {kernel} {key}")
    return problems


def _layers(workload, phase, phases, boots, solo, latencies) -> Dict:
    ok = [r for r in phase["results"] if r[2] == 200]
    per_request = [p["wall"] / len(p["results"]) for p in phases]
    layers = {
        "serve.boot_s": statistics.median(boots),
        "serve.response_bytes": (sum(len(r[3]) for r in ok)
                                 / max(1, len(ok))),
        "trace.overhead_share": (2 * per_request[1]
                                 / (per_request[0] + per_request[2])
                                 - 1.0),
    }
    kind = "hit" if workload == "serve-hot" else "miss"
    for p in (50, 90):
        layers[f"serve.{kind}_ms.p{p}"] = percentile(latencies, p)
    if workload == "serve-miss":
        solo_ms = [solo[i][1] * 1e3 for i in sorted(solo)]
        overhead = [latencies[i] - solo[i][1] * 1e3 for i in sorted(solo)]
        for p in (50, 90):
            layers[f"serve.solo_exec_ms.p{p}"] = percentile(solo_ms, p)
            layers[f"serve.miss_overhead_ms.p{p}"] = percentile(overhead,
                                                                p)
    before, after = phase["before"], phase["after"]
    for name in ("cache_hits", "coalesce_joins", "runs_completed",
                 "quarantined", "requests"):
        layers[f"serve.{name}"] = (after["counters"][name]
                                   - before["counters"][name])
    # The counter includes the closing GET /stats itself.
    layers["serve.requests"] -= 1
    for verdict, count in after["admission"].items():
        layers[f"serve.admission.{verdict}"] = (
            count - before["admission"].get(verdict, 0))
    for state, count in after["ledger"].items():
        layers[f"serve.ledger.{state}"] = count
    layers["serve.runs_per_request"] = (layers["serve.runs_completed"]
                                        / len(phase["results"]))
    return layers
