"""A minimal keep-alive HTTP/1.1 client on asyncio streams.

The benchmark owns its client so that a change to the program's own client
or load generator cannot change what the benchmark measures.  It speaks just
enough HTTP/1.1 for the solve endpoints: one request at a time per
connection, ``Content-Length`` framing in both directions, and
``Connection: keep-alive``.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple


class HttpError(Exception):
    """The server closed the connection or answered something unparsable."""


class Connection:
    """One persistent HTTP/1.1 connection (not safe for concurrent use)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 22
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
    ) -> Tuple[int, bytes]:
        """Send one request and return ``(status, body)``.

        A connection closed by an earlier reply or error is reopened first.
        """
        if self._writer is None:
            await self.open()
        assert self._reader is not None and self._writer is not None
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Connection: keep-alive",
            f"Content-Length: {len(body)}",
        ]
        if body:
            head.append("Content-Type: application/json")
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)
        await self._writer.drain()
        status, response_headers = await self._read_head()
        length = int(response_headers.get("content-length", "0"))
        payload = await self._reader.readexactly(length) if length else b""
        if response_headers.get("connection", "").lower() == "close":
            await self.close()
        return status, payload

    async def _read_head(self) -> Tuple[int, Dict[str, str]]:
        assert self._reader is not None
        line = await self._reader.readline()
        if not line:
            await self.close()
            raise HttpError("connection closed before a response")
        parts = line.decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise HttpError(f"bad status line {line!r}")
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return int(parts[1]), headers
