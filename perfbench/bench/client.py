"""A blocking HTTP/1.1 client for one request per connection.

The server closes every connection after its response, so a reply has been
read to its end when the socket reports end of file.  The client never
half-closes its side: the service reads a client EOF as a disconnect.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass


@dataclass
class Reply:
    status: int
    body: bytes
    latency_s: float
    first_answer_s: float | None
    wire_bytes: int


_FIRST_ANSWER = b"event: answer\n"


def post(port: int, path: str, payload: dict, timeout: float = 120.0) -> Reply:
    """Send one ``POST`` and read the reply to its end.

    ``first_answer_s`` is the time until the first complete SSE ``answer``
    frame had arrived (``None`` for a stream without answers and for
    non-stream replies).
    """
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    request = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("latin-1") + body
    start = time.perf_counter()
    first_answer = None
    watch = path.endswith("/stream")
    chunks = []
    received = bytearray()
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if watch and first_answer is None:
                received += chunk
                at = received.find(_FIRST_ANSWER)
                if at >= 0 and received.find(b"\n\n", at) >= 0:
                    first_answer = time.perf_counter() - start
    latency = time.perf_counter() - start
    raw = b"".join(chunks)
    head, _, payload_bytes = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return Reply(status, payload_bytes, latency, first_answer, len(raw))


def get_json(port: int, path: str, timeout: float = 30.0) -> dict:
    request = f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request.encode("latin-1"))
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    _, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return json.loads(body)


def sse_events(body: bytes) -> list[tuple[str, str]]:
    """``(event, data)`` pairs of an SSE body."""
    events = []
    for frame in body.decode("utf-8").split("\n\n"):
        if not frame:
            continue
        event = data = ""
        for line in frame.split("\n"):
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                data = line[len("data: "):]
        events.append((event, data))
    return events
