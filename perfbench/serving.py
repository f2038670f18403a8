"""A ``repro-sim serve`` subprocess and a one-connection closed-loop client.

The server runs as its own process, started through the CLI exactly as
a user would start it, with one job worker: the client keeps at most one
request in flight, so a second worker would only idle.  Each request
opens one connection (the server closes it after every response), and
the client sends nothing else until the reply has arrived.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import socket
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Tuple

#: Sleep between status polls of a submitted job.  Each poll is one
#: request on the server's event loop, which shares the interpreter lock
#: with the job thread, so polling much faster slows the job it waits on.
POLL_S = 0.005

#: Seconds a spawned server gets to answer ``/v1/healthz``.
START_TIMEOUT_S = 60.0


class ServeError(RuntimeError):
    """The server could not be started or answered off-contract."""


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One ``repro-sim serve`` process with its own data directory."""

    def __init__(self, root: str, data_dir: str,
                 env: Dict[str, str]) -> None:
        self.root = root
        self.data_dir = data_dir
        self.env = env
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None
        self._log = None

    def start(self) -> float:
        """Spawn the server; return seconds until ``/v1/healthz`` is 200."""
        os.makedirs(self.data_dir)
        self.port = _free_port()
        self._log = open(self.data_dir + ".log", "wb")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--data-dir", self.data_dir, "--port", str(self.port),
             "--max-workers", "1"],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)
        deadline = began + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                status, _ = self.request("GET", "/v1/healthz")
            except OSError:
                time.sleep(0.005)
                continue
            if status == 200:
                return time.perf_counter() - began
        self.stop()
        raise ServeError(f"server did not become healthy; log tail: "
                         f"{self._log_tail()}")

    def _log_tail(self) -> str:
        try:
            with open(self.data_dir + ".log", "rb") as handle:
                return handle.read()[-600:].decode(errors="replace")
        except OSError:
            return "(no log)"

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None
                ) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        try:
            body = None if payload is None else json.dumps(payload)
            headers = ({"Content-Type": "application/json"}
                       if body is not None else {})
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), MiB; 0 if gone."""
        if self.proc is None or self.proc.poll() is not None:
            return 0.0
        try:
            with open(f"/proc/{self.proc.pid}/status", "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        """Stop the process, wait for it, and delete its data."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if self._log is not None:
            self._log.close()
            self._log = None
        shutil.rmtree(self.data_dir, ignore_errors=True)
        try:
            os.remove(self.data_dir + ".log")
        except OSError:
            pass


def send_run(server: ServerProcess,
             payload: Dict[str, Any]) -> Dict[str, Any]:
    """POST one run, poll it to completion, fetch its result.

    The latency runs from the POST until the result body has arrived.
    The returned dict carries the final job record (with the server's
    ``created_s``/``started_s``/``finished_s``), the parsed result
    body, its size, and the number of status polls.
    """
    began = time.perf_counter()
    status, body = server.request("POST", "/v1/runs", payload)
    if status != 202:
        raise ServeError(f"POST /v1/runs -> {status}: {body[:200]!r}")
    job_id = json.loads(body)["job"]["id"]
    polls = 0
    while True:
        status, body = server.request("GET", f"/v1/runs/{job_id}")
        polls += 1
        record = json.loads(body)
        if record["status"] in ("done", "failed"):
            break
        time.sleep(POLL_S)
    if record["status"] == "failed":
        raise ServeError(f"job {job_id} failed: {record.get('error')}")
    status, body = server.request("GET", f"/v1/runs/{job_id}/result")
    latency = time.perf_counter() - began
    if status != 200:
        raise ServeError(f"GET result -> {status}: {body[:200]!r}")
    return {"latency_s": latency, "record": record, "polls": polls,
            "result_bytes": len(body), "result": json.loads(body)}
