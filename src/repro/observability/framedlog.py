"""Append-only, crash-safe, size-capped log files of wire frames.

The flight recorder (:mod:`repro.observability.flightlog`) and the
request journal (:mod:`repro.serving.journal`) both store their records
through this module.  Each record is one frame of the wire codec in
:mod:`repro.serving.net.protocol` (length prefix + header + body +
CRC32), so a torn tail from a crash (SIGKILL mid-write) or a concurrent
reader is *detected* — the length/CRC check fails and reading stops at
the last intact record instead of yielding garbage.

Size capping is rotate-once: when the live file would exceed
``max_bytes`` it is renamed to ``<path>.1`` (clobbering the previous
rotation) and a fresh file is started, bounding disk use at roughly
``2 * max_bytes`` without ever rewriting records in place.
"""

from __future__ import annotations

import os
import struct
import threading
from typing import Callable, Iterator, Optional, TypeVar

from repro.errors import ConfigurationError, ProtocolError

__all__ = ["FramedLog", "read_frames", "wire"]

T = TypeVar("T")


def wire():
    """The wire-protocol module, imported on first use.

    A module-level import would close a cycle: the observability package
    (which ``repro.core.runtime`` imports) and the serving package both
    use these logs, while ``repro.serving.net`` imports serving.  By the
    time a log actually encodes or decodes a frame, every package
    involved is fully initialised.
    """
    from repro.serving.net import protocol

    return protocol


class FramedLog:
    """Thread-safe appender of one frame type to a rotate-once file.

    Every frame is flushed before :meth:`append` returns, so the log is
    complete up to the last append even if the process dies right after.
    """

    def __init__(
        self, path: str, max_bytes: int, frame_type: int, max_bytes_name: str
    ):
        if max_bytes < 4096:
            raise ConfigurationError(f"{max_bytes_name} must be at least 4096")
        self.path = str(path)
        self.max_bytes = int(max_bytes)
        self.frame_type = frame_type
        self._lock = threading.Lock()
        self._fh = open(self.path, "ab")
        self._size = self._fh.tell()
        self._head: Optional[bytes] = None
        self.written = 0
        self.rotations = 0
        self._closed = False

    @property
    def rotated_path(self) -> str:
        return self.path + ".1"

    def append(self, request_id: int, body: bytes, head: bool = False) -> None:
        """Append one frame; silently drops after :meth:`close`.

        With ``head`` the frame also becomes the log's head, re-written
        first in every new generation so each file describes itself.
        """
        blob = wire().encode_frame(self.frame_type, request_id, body)
        with self._lock:
            if self._closed:
                return
            if head:
                self._head = blob
            if self._size and self._size + len(blob) > self.max_bytes:
                self._rotate_locked()
            self._write_locked(blob)

    def _write_locked(self, blob: bytes) -> None:
        self._fh.write(blob)
        self._fh.flush()
        self._size += len(blob)
        self.written += 1

    def _rotate_locked(self) -> None:
        self._fh.close()
        os.replace(self.path, self.rotated_path)
        self._fh = open(self.path, "ab")
        self._size = 0
        self.rotations += 1
        if self._head is not None:
            self._write_locked(self._head)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _read_file(
    path: str, frame_type: int, decode: Callable[[bytes], Optional[T]]
) -> Iterator[T]:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except FileNotFoundError:
        return
    protocol = wire()
    offset = 0
    while offset + 4 <= len(buf):
        (length,) = struct.unpack_from("<I", buf, offset)
        if (
            length < protocol.MIN_FRAME_LENGTH
            or offset + 4 + length > len(buf)
        ):
            return  # torn tail: a record was cut mid-write
        try:
            frame = protocol.decode_frame(buf[offset + 4: offset + 4 + length])
        except ProtocolError:
            return  # corrupted tail; everything before it was intact
        offset += 4 + length
        if frame.frame_type != frame_type:
            continue
        try:
            record = decode(frame.body)
        except ProtocolError:
            return  # body itself torn: stop, keep the intact prefix
        if record is not None:
            yield record


def read_frames(
    path: str,
    frame_type: int,
    decode: Callable[[bytes], Optional[T]],
    include_rotated: bool = True,
) -> Iterator[T]:
    """Yield ``decode(body)`` per intact frame, oldest first.

    The rotated generation (``<path>.1``) comes first.  Frames of other
    types are skipped, as are bodies ``decode`` maps to None; a body it
    rejects with :class:`ProtocolError` ends that file's reading.
    """
    if include_rotated:
        yield from _read_file(path + ".1", frame_type, decode)
    yield from _read_file(path, frame_type, decode)
