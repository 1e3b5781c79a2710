"""The stdlib HTTP client's reply decoding and failure surface.

Replies are data: 4xx/5xx come back as :class:`HttpReply` values carrying
the server's envelope, and only an unreachable server raises.
"""

import socket

import pytest

from repro.service import SladeHttpClient
from repro.service.client import HttpReply, TransportError, _build_reply


class TestBuildReply:
    def test_json_body_is_parsed(self):
        reply = _build_reply(200, {"Content-Type": "application/json"},
                             b'{"ok": true, "total_cost": 1.5}')
        assert reply.status == 200
        assert reply.payload == {"ok": True, "total_cost": 1.5}
        assert reply.text == '{"ok": true, "total_cost": 1.5}'
        assert reply.headers == {"Content-Type": "application/json"}

    def test_non_json_body_keeps_its_text(self):
        reply = _build_reply(502, {}, b"<html>bad gateway</html>")
        assert reply.payload is None
        assert reply.text == "<html>bad gateway</html>"

    def test_undecodable_bytes_are_replaced_not_raised(self):
        reply = _build_reply(200, {}, b"\xff\xfe")
        assert reply.payload is None
        assert reply.text == "\ufffd\ufffd"


class TestHttpReply:
    def test_ok_means_exactly_2xx(self):
        verdicts = {status: HttpReply(status, None).ok
                    for status in (199, 200, 204, 299, 300, 429, 503)}
        assert verdicts == {199: False, 200: True, 204: True, 299: True,
                            300: False, 429: False, 503: False}

    def test_raise_for_status_returns_the_reply_on_success(self):
        reply = HttpReply(200, {"ok": True})
        assert reply.raise_for_status() is reply

    def test_raise_for_status_carries_the_error_envelope(self):
        reply = HttpReply(
            429, {"ok": False, "error": {"type": "RateLimited", "message": "slow down"}}
        )
        with pytest.raises(TransportError, match="HTTP 429: .*RateLimited"):
            reply.raise_for_status()
        with pytest.raises(TransportError, match=r"^HTTP 502$"):
            HttpReply(502, None, text="<html/>").raise_for_status()

    def test_header_lookup_ignores_case_and_has_a_default(self):
        reply = HttpReply(429, None, headers={"Retry-After": "2"})
        assert reply.header("retry-after") == "2"
        assert reply.header("RETRY-AFTER") == "2"
        assert reply.header("X-Missing") is None
        assert reply.header("X-Missing", "none") == "none"


def test_unreachable_server_raises_transport_error():
    # Bind and release a loopback port, so nothing listens on it.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = SladeHttpClient(f"http://127.0.0.1:{port}/", timeout=5)
    assert client.base_url == f"http://127.0.0.1:{port}"
    with pytest.raises(TransportError, match="cannot reach"):
        client.healthz()
