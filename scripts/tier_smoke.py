#!/usr/bin/env python3
"""Smoke test of the replicated tier as three real processes.

Starts kbforge_serve as a replication leader, then kbforge_follower and
kbforge_router, all on ephemeral ports. Inserts one fact through the
router, reads it back with min_epoch once through the router and once
directly from the follower, then sends SIGTERM to all three and
requires each to exit with code 0 (a clean drain, not a kill by the
signal).

Usage:
  python3 scripts/tier_smoke.py [--build-dir build]

Exits 0 on success and 1 with a message on the first failure.
"""

import argparse
import json
import os
import queue
import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time

# Whole-run budget: a sanitizer build takes about a minute (two harvests).
TIMEOUT_S = 300
# Budget for one request's round trip.
REQUEST_TIMEOUT_S = 10
ENTITY_NS = "http://kbforge.org/entity/"
PROPERTY_NS = "http://kbforge.org/prop/"


class Proc:
    """A child process whose stdout lines are collected by a thread."""

    def __init__(self, name, argv):
        self.name = name
        self.lines = queue.Queue()
        self.popen = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                      text=True, bufsize=1)
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self):
        for line in self.popen.stdout:
            self.lines.put(line.rstrip("\n"))

    def wait_for(self, pattern, deadline):
        """Returns the first match of `pattern` in a stdout line."""
        regex = re.compile(pattern)
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=0.1)
            except queue.Empty:
                if self.popen.poll() is not None:
                    break
                continue
            match = regex.search(line)
            if match:
                return match
        raise RuntimeError(f"{self.name}: no line matching {pattern!r}")


def call(port, request):
    """One request on a fresh connection: framed JSON out, JSON back."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=REQUEST_TIMEOUT_S) as sock:
        payload = json.dumps(request).encode()
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        header = _read_exactly(sock, 4)
        (length,) = struct.unpack(">I", header)
        return json.loads(_read_exactly(sock, length))


def _read_exactly(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise RuntimeError("connection closed mid-frame")
        data += chunk
    return data


def read_back(port, query, min_epoch, deadline):
    """Queries `port` until it has applied min_epoch; returns the rows."""
    request = {"op": "query", "sparql": query, "min_epoch": min_epoch,
               "no_cache": True}
    while True:
        response = call(port, request)
        if response.get("status") == "ok":
            return response["rows"]
        if response.get("error") != "stale_replica":
            raise RuntimeError(f"read on port {port} failed: {response}")
        if time.monotonic() >= deadline:
            raise RuntimeError(f"port {port} never reached epoch {min_epoch}")
        time.sleep(0.02)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build")
    args = parser.parse_args()

    def binary(name):
        path = os.path.join(args.build_dir, "src", name)
        if not os.access(path, os.X_OK):
            sys.exit(f"tier_smoke: {path} not found")
        return path

    serve, follower, router = (binary("kbforge_serve"),
                               binary("kbforge_follower"),
                               binary("kbforge_router"))
    deadline = time.monotonic() + TIMEOUT_S
    procs = []
    with tempfile.TemporaryDirectory(prefix="kbforge_tier_") as tmp:
        try:
            leader = Proc("kbforge_serve", [
                serve, "--port=0", "--repl-port=0", "--persons=60",
                f"--repl-data-dir={tmp}/log"])
            procs.append(leader)
            leader_port = int(leader.wait_for(
                r"^listening on 127\.0\.0\.1:(\d+)", deadline).group(1))
            repl_port = int(leader.wait_for(
                r"^replication on 127\.0\.0\.1:(\d+)", deadline).group(1))

            replica = Proc("kbforge_follower", [
                follower, "--port=0", f"--leader-repl-port={repl_port}",
                f"--data-dir={tmp}/follower", "--persons=60"])
            procs.append(replica)
            replica_port = int(replica.wait_for(
                r"^follower listening on 127\.0\.0\.1:(\d+)",
                deadline).group(1))

            front = Proc("kbforge_router", [
                router, "--port=0", f"--leader-port={leader_port}",
                f"--replicas={replica_port}"])
            procs.append(front)
            router_port = int(front.wait_for(
                r"^router listening on 127\.0\.0\.1:(\d+)",
                deadline).group(1))

            inserted = call(router_port, {"op": "insert_facts", "facts": [
                {"s": "Tier_Smoke", "p": "worksFor",
                 "o": "Tier_Smoke_Corp"}]})
            if inserted.get("status") != "ok" or inserted.get("inserted") != 1:
                raise RuntimeError(f"insert through the router: {inserted}")
            epoch = inserted["epoch"]

            query = (f"SELECT ?o WHERE {{ <{ENTITY_NS}Tier_Smoke> "
                     f"<{PROPERTY_NS}worksFor> ?o . }}")
            expected = [["kb:Tier_Smoke_Corp"]]
            for name, port in (("router", router_port),
                               ("follower", replica_port)):
                rows = read_back(port, query, epoch, deadline)
                if rows != expected:
                    raise RuntimeError(f"read through the {name}: {rows}")

            for proc in reversed(procs):
                proc.popen.send_signal(signal.SIGTERM)
            for proc in reversed(procs):
                remaining = max(1.0, deadline - time.monotonic())
                code = proc.popen.wait(timeout=remaining)
                if code != 0:
                    raise RuntimeError(f"{proc.name} exited with {code}")
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
            print(f"tier_smoke: FAILED: {error}", file=sys.stderr)
            return 1
        finally:
            for proc in procs:
                if proc.popen.poll() is None:
                    proc.popen.kill()
                    proc.popen.wait()
    print(f"tier_smoke: ok (fact at epoch {epoch} read back through the "
          "router and the follower; all three exited 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
