"""Wire protocol for the fleet: length-prefixed pickled frames.

Every frame is ``MAGIC (4 bytes) | length (u32, big-endian) | payload``
where the payload is the pickled pair ``(kind, body)`` — ``kind`` a
short string constant from this module, ``body`` a dict (or ``None``).
The fixed header makes framing self-describing and lets either side
reject garbage (wrong magic, absurd length) before deserializing
anything.

The conversation starts with a version handshake: the client sends
``HELLO {version, client}``; the worker answers ``WELCOME {version,
worker, slots, cache_share}`` or ``REJECT {reason}`` when the versions
disagree.  Both sides check — a protocol bump must never be papered
over by luck of pickle compatibility.

Job frames are multiplexed over one connection by client-chosen
``token``; request/response frames (ping, stats, cache ops, shutdown)
are matched by client-chosen ``rid``, so heartbeats keep flowing while
jobs execute.

Trust model: the fleet runs between mutually trusting hosts (pickle on
the wire), same as ``multiprocessing`` — bind workers to loopback or a
private network, never the open internet.  ``backend="process"``'s
local daemons open no listener at all: each serves one end of a
``multiprocessing`` pipe that only its owning process holds.  Over such
a pipe the same ``(kind, body)`` pairs travel in the pipe's own
length-prefixed pickle framing (:func:`write_frame`/:func:`read_frame`);
the magic, the frame cap and the version check guard sockets that
other hosts can reach.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct

from repro.utils.errors import ProtocolError

#: Bump on any incompatible frame change; both ends refuse a mismatch.
PROTOCOL_VERSION = 1

MAGIC = b"RPFL"
_HEADER = struct.Struct(">4sI")

#: Ceiling on one frame's payload (a sweep job spec is kilobytes; even a
#: fat LUT-upload spec or cache entry stays far under this).
MAX_FRAME_BYTES = 64 * 1024 * 1024

# -- frame kinds --------------------------------------------------------------

HELLO = "hello"              #: client -> worker: {version, client}
WELCOME = "welcome"          #: worker -> client: {version, worker, pid, slots, cache_share}
REJECT = "reject"            #: worker -> client: {reason, version}
SUBMIT = "submit"            #: client -> worker: {token, spec, base_attempt}
CANCEL = "cancel"            #: client -> worker: {token} (best-effort)
RESULT = "result"            #: worker -> client: {token, result}
ERROR = "error"              #: worker -> client: {token, error}
PING = "ping"                #: client -> worker: {rid}
PONG = "pong"                #: worker -> client: {rid, active}
STATS = "stats"              #: client -> worker: {rid}
STATS_REPLY = "stats-reply"  #: worker -> client: {rid, stats}
CACHE_LIST = "cache-list"    #: client -> worker: {rid}
CACHE_NAMES = "cache-names"  #: worker -> client: {rid, names}
CACHE_GET = "cache-get"      #: client -> worker: {rid, name}
CACHE_DATA = "cache-data"    #: worker -> client: {rid, name, data | None}
CACHE_PUT = "cache-put"      #: client -> worker: {rid, name, data}
CACHE_OK = "cache-ok"        #: worker -> client: {rid, stored}
SHUTDOWN = "shutdown"        #: client -> worker: {rid}
BYE = "bye"                  #: worker -> client: {rid}

#: Reply kinds carrying an ``rid`` (matched to a waiting request).
REPLY_KINDS = frozenset(
    {PONG, STATS_REPLY, CACHE_NAMES, CACHE_DATA, CACHE_OK, BYE})


def send_frame(sock, kind: str, body: dict | None = None) -> None:
    """Serialize and write one frame (the caller serializes writers)."""
    payload = pickle.dumps((kind, body), protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(payload)}-byte {kind!r} frame "
            f"(cap {MAX_FRAME_BYTES})")
    sock.sendall(_HEADER.pack(MAGIC, len(payload)) + payload)


def _recv_exact(sock, n: int) -> bytes:
    """Read exactly ``n`` bytes; EOFError on a clean close at a boundary."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n and not chunks:
                raise EOFError("connection closed")
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of {n} "
                f"bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> tuple[str, dict | None]:
    """Read one frame; raises EOFError on clean close, ProtocolError on junk."""
    header = _recv_exact(sock, _HEADER.size)
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap")
    payload = _recv_exact(sock, length) if length else b""
    try:
        frame = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if (not isinstance(frame, tuple) or len(frame) != 2
            or not isinstance(frame[0], str)
            or not (frame[1] is None or isinstance(frame[1], dict))):
        raise ProtocolError(f"malformed frame structure: {type(frame)}")
    return frame


def write_frame(conn, kind: str, body: dict | None = None) -> None:
    """One frame out on a fleet socket or a local daemon's pipe."""
    if isinstance(conn, socket.socket):
        send_frame(conn, kind, body)
    else:
        conn.send((kind, body))


def read_frame(conn) -> tuple[str, dict | None]:
    """One frame in from a fleet socket or a local daemon's pipe."""
    if isinstance(conn, socket.socket):
        return recv_frame(conn)
    return conn.recv()


def hang_up(conn) -> None:
    """Close a socket or socket-backed pipe and wake its blocked reader.

    A thread blocked reading keeps the connection open through a bare
    close; shutting the socket down ends that read (and the peer's)
    with EOF at once.
    """
    try:
        sock = (conn if isinstance(conn, socket.socket)
                else socket.socket(fileno=os.dup(conn.fileno())))
    except OSError:
        return  # already closed
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()
    conn.close()
