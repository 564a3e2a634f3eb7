"""A raw-socket HTTP/1.1 client for the serving tier's framing tests.

The tests send exact bytes (pipelined, malformed or split requests) and
read the responses back one by one.  Every socket has a timeout, so a
server that never answers fails the test instead of hanging it.
"""

from __future__ import annotations

import socket

#: Seconds any one socket operation of a test client may block.
TIMEOUT_S = 5.0

Reply = tuple[int, dict[str, str], bytes]


def connect(server) -> socket.socket:
    """A client socket connected to ``server``: a ``ReproServer`` or a ``(host, port)`` pair."""
    address = server if isinstance(server, tuple) else server.server_address[:2]
    sock = socket.create_connection(address, timeout=TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def read_reply(reader) -> Reply | None:
    """One ``(status, lower-cased headers, body)`` response, or ``None`` at end of stream."""
    status_line = reader.readline()
    if not status_line:
        return None
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def exchange(server, payload: bytes, n_replies: int, step: int = 0) -> tuple[list[Reply], bool]:
    """Send raw bytes on one connection and read up to ``n_replies`` responses.

    Returns the replies and whether the server closed the connection before
    sending ``n_replies``.  A ``100 Continue`` counts as a reply.  With
    ``step`` the payload goes out ``step`` bytes per ``send``.
    """
    replies: list[Reply] = []
    with connect(server) as sock, sock.makefile("rb") as reader:
        try:
            if step:
                for start in range(0, len(payload), step):
                    sock.sendall(payload[start:start + step])
            else:
                sock.sendall(payload)
        except (BrokenPipeError, ConnectionResetError):  # answered and closed mid-payload
            pass
        try:
            while len(replies) < n_replies:
                reply = read_reply(reader)
                if reply is None:
                    return replies, True
                replies.append(reply)
        except ConnectionResetError:  # closed with the rest of the payload unread
            return replies, True
    return replies, False
