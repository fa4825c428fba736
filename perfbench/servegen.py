"""The open-loop traffic generator of the ``serve-mix`` workload.

Run as its own process by ``servemix.py``; it talks JSON lines over its
standard input and output:

1. it builds the seed's testbed traffic, packs it into v5 datagrams
   with one continuous ``flow_sequence``, writes the datagrams and the
   per-flow labels to the work directory and prints ``{"event": "ready"}``;
2. for each ``{"cmd": "phase", "first", "count", "rate", "t0", "port"}``
   it sends datagrams ``first .. first+count-1`` from one UDP socket,
   datagram ``j`` due at ``t0 + j * 30 / rate`` on the monotonic clock
   (shared by every process on the host), and prints
   ``{"event": "sent", "lateness_ms": [...]}``: how late each send was;
3. ``{"cmd": "quit"}`` ends it.

Sends never wait for the receiver: a slow daemon grows its queue.
"""

from __future__ import annotations

import argparse
import json
import socket
import struct
import sys
import time
from pathlib import Path

import harness

DATAGRAMS_FILE = "serve-mix.dgrams"
LABELS_FILE = "serve-mix.labels"
_LENGTH = struct.Struct("!I")


def write_datagrams(path: Path, datagrams) -> None:
    with path.open("wb") as out:
        for datagram in datagrams:
            out.write(_LENGTH.pack(len(datagram)))
            out.write(datagram)


def read_datagrams(path: Path):
    data = path.read_bytes()
    out = []
    offset = 0
    while offset < len(data):
        (length,) = _LENGTH.unpack_from(data, offset)
        offset += _LENGTH.size
        out.append(data[offset : offset + length])
        offset += length
    return out


def _emit(message) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _send_phase(sock, datagrams, command) -> None:
    first, count = command["first"], command["count"]
    interval = harness.RECORDS_PER_DATAGRAM / command["rate"]
    t0 = command["t0"]
    target = ("127.0.0.1", command["port"])
    lateness = []
    clock = time.monotonic
    for j in range(count):
        due = t0 + j * interval
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        lateness.append((clock() - due) * 1000.0)
        sock.sendto(datagrams[first + j], target)
    _emit({"event": "sent", "count": count, "lateness_ms": lateness})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="serve-mix traffic generator")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--records", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    harness.require_source()
    from repro.netflow.v5 import datagrams_for

    records, labels = harness.serve_mix_trace(args.seed, args.records)
    datagrams = list(datagrams_for(records, sys_uptime=0, unix_secs=0))
    del records
    write_datagrams(args.out / DATAGRAMS_FILE, datagrams)
    (args.out / LABELS_FILE).write_bytes(bytes(labels))
    _emit({"event": "ready", "datagrams": len(datagrams)})
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "quit":
                break
            _send_phase(sock, datagrams, command)
    finally:
        sock.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
