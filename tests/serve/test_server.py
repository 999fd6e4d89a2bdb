"""Behavioral suite for the serve daemon.

The load-bearing contract is **byte identity**: a ``compress`` response
is exactly the container the one-shot CLI path produces for the same
config (including ``--auto`` planned containers), and ``decompress``
inverts both.  The rest pins the admission-control statuses
(BAD_REQUEST / BUSY / QUOTA / DRAINING), the typed handling of corrupt
payloads and garbage streams, and the HTTP shim's status mapping.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.compressors.lzrw import LzrwCodec
from repro.core.primacy import PrimacyCompressor, split_container
from repro.serve.daemon import ServeConfig
from repro.serve.protocol import (
    Op,
    Request,
    RequestConfig,
    ServeError,
    Status,
    response_assembler,
)
from repro.util.varint import encode_uvarint

from tests.serve.conftest import BASE_CONFIG
from tests.serve.harness import ServerHarness, reference_compress

#: Request-side knobs that materialize to exactly ``BASE_CONFIG``.
RC = RequestConfig(chunk_bytes=BASE_CONFIG.chunk_bytes)


# -- the core contract: byte identity with the one-shot path ------------


def test_compress_is_byte_identical_to_one_shot(server, payload):
    with server.client() as client:
        container = client.compress(payload, config=RC)
    assert container == reference_compress(payload, BASE_CONFIG)
    assert PrimacyCompressor(BASE_CONFIG).decompress(container) == payload


def test_auto_compress_matches_planned_one_shot(server, payload):
    with server.client() as client:
        container = client.compress(payload, config=RC, auto=True)
    assert container == reference_compress(payload, BASE_CONFIG, auto=True)
    assert PrimacyCompressor(BASE_CONFIG).decompress(container) == payload


def test_decompress_round_trip(server, payload):
    with server.client() as client:
        container = client.compress(payload, config=RC)
        assert client.decompress(container) == payload


def test_single_chunk_payload_takes_serial_path(server):
    data = b"primacy" * 40  # far below one chunk
    with server.client() as client:
        container = client.compress(data, config=RC)
        assert client.decompress(container) == data
    assert container == reference_compress(data, BASE_CONFIG)


def test_empty_payload(server):
    with server.client() as client:
        container = client.compress(b"", config=RC)
        assert client.decompress(container) == b""


def test_many_requests_on_one_connection(server, payload):
    with server.client() as client:
        for _ in range(3):
            container = client.compress(payload, config=RC)
            assert client.decompress(container) == payload
            assert client.health()["status"] == "ok"


# -- typed failure handling --------------------------------------------


def test_corrupt_container_is_typed_corrupt(server, payload):
    with server.client() as client:
        container = bytearray(client.compress(payload, config=RC))
        container[len(container) // 2] ^= 0xFF
        with pytest.raises(ServeError) as err:
            client.decompress(bytes(container))
    assert err.value.status is Status.CORRUPT


def test_empty_record_is_typed_corrupt(server, payload):
    # An empty record has no flags byte to say whether it carries its
    # own index; the reply must still be a typed CORRUPT.
    with server.client() as client:
        container = client.compress(payload, config=RC)
        header, records, _ = split_container(container)
        assert len(records) > 1
        damaged = container[: header.records_pos] + encode_uvarint(0)
        damaged += b"".join(encode_uvarint(len(r)) + r for r in records[1:])
        with pytest.raises(ServeError) as err:
            client.decompress(damaged)
        assert err.value.status is Status.CORRUPT
        assert client.decompress(container) == payload


def test_pylzo_stream_claiming_too_much_is_corrupt(server, payload, monkeypatch):
    # A client-supplied pylzo stream may promise any output size; the
    # decoder must refuse it as damage, not allocate it.
    streams: list[bytes] = []
    real_compress = LzrwCodec.compress

    def keep(codec, data):
        streams.append(real_compress(codec, data))
        return streams[-1]

    monkeypatch.setattr(LzrwCodec, "compress", keep)
    config = dataclasses.replace(BASE_CONFIG, codec="pylzo")
    container = bytearray(PrimacyCompressor(config).compress(payload)[0])
    monkeypatch.undo()
    stream = max(streams, key=len)
    at = container.find(stream)
    assert at >= 0
    # Same length, so no length field moves: 2**40 bytes from a short body.
    claim = encode_uvarint(2**40) + bytes([1])
    container[at : at + len(stream)] = claim + bytes(len(stream) - len(claim))
    with server.client() as client:
        with pytest.raises(ServeError) as err:
            client.decompress(bytes(container))
        assert err.value.status is Status.CORRUPT
        # The daemon keeps serving.
        assert client.decompress(client.compress(payload, config=RC)) == payload


def test_unknown_codec_is_bad_request(server, payload):
    with server.client() as client:
        with pytest.raises(ServeError) as err:
            client.compress(payload, config=RequestConfig(codec="nope"))
    assert err.value.status is Status.BAD_REQUEST


def test_garbage_stream_gets_typed_reply_then_hangup(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"\x10NOTAFRAMEATALL??")
        assembler = response_assembler()
        frames: list[bytes] = []
        while not frames:
            data = sock.recv(65536)
            if not data:
                raise AssertionError("connection closed with no reply")
            frames.extend(assembler.feed(data))
        from repro.serve.protocol import decode_response

        response = decode_response(frames[0])
        assert response.status is Status.BAD_REQUEST
        # after the typed reply the server hangs up
        assert sock.recv(65536) == b""


# -- introspection ops --------------------------------------------------


def test_health_document(server):
    with server.client() as client:
        doc = client.health()
    assert doc["status"] == "ok"
    assert doc["workers"] >= 1
    assert doc["uptime_seconds"] >= 0


def test_stat_document_counts_requests(server, payload):
    with server.client() as client:
        client.compress(payload, config=RC)
        doc = client.stat()
    assert doc["server"]["acknowledged"] >= 1
    assert doc["server"]["acknowledged"] == doc["server"]["answered"]
    assert doc["server"]["inflight_requests"] == 0
    assert doc["server"]["bytes_in"] >= len(payload)
    assert "engine" in doc


# -- admission control (dedicated cheap servers) ------------------------


def _refusal(serve_config: ServeConfig, payload: bytes, **kwargs) -> ServeError:
    with ServerHarness(serve_config) as harness:
        with harness.client() as client:
            with pytest.raises(ServeError) as err:
                client.compress(payload, **kwargs)
    return err.value


def test_payload_over_server_cap_is_bad_request():
    err = _refusal(
        ServeConfig(workers=1, base=BASE_CONFIG, max_payload_bytes=1024),
        b"x" * 2048,
        config=RC,
    )
    assert err.status is Status.BAD_REQUEST


def test_inflight_request_ceiling_is_busy():
    err = _refusal(
        ServeConfig(workers=1, base=BASE_CONFIG, max_inflight_requests=0),
        b"x" * 64,
        config=RC,
    )
    assert err.status is Status.BUSY


def test_tenant_quota_is_typed_quota():
    config = ServeConfig(
        workers=1, base=BASE_CONFIG, quota_bps=1.0, quota_burst_bytes=16
    )
    err = _refusal(config, b"x" * 256, config=RC, tenant="acme")
    assert err.status is Status.QUOTA


def test_draining_server_refuses_new_work(payload):
    config = ServeConfig(workers=1, base=BASE_CONFIG)
    with ServerHarness(config) as harness:
        with harness.client() as client:
            client.compress(payload, config=RC)  # healthy before drain
            harness.run(harness.server.drain())
            with pytest.raises(ServeError) as err:
                client.compress(payload, config=RC)
            assert err.value.status is Status.DRAINING
            # introspection stays answerable while draining
            assert client.health()["status"] == "draining"


def test_stat_health_are_never_admission_gated():
    config = ServeConfig(workers=1, base=BASE_CONFIG, max_inflight_requests=0)
    with ServerHarness(config) as harness:
        with harness.client() as client:
            assert client.health()["status"] == "ok"
            assert client.stat()["server"]["acknowledged"] == 0


# -- HTTP shim ----------------------------------------------------------


def _http(server, method: str, path: str, body: bytes | None = None):
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=body, method=method
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        return reply.status, reply.read()


def test_http_compress_decompress_round_trip(server, payload):
    qs = f"?chunk_bytes={BASE_CONFIG.chunk_bytes}"
    status, container = _http(server, "POST", f"/compress{qs}", payload)
    assert status == 200
    assert container == reference_compress(payload, BASE_CONFIG)
    status, restored = _http(server, "POST", "/decompress", container)
    assert status == 200
    assert restored == payload


def test_http_health_and_stat(server):
    status, body = _http(server, "GET", "/health")
    assert status == 200
    assert json.loads(body)["status"] == "ok"
    status, body = _http(server, "GET", "/stat")
    assert status == 200
    assert "server" in json.loads(body)


def test_http_garbage_decompress_is_422(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _http(server, "POST", "/decompress", b"not a container")
    assert err.value.code == 422
    assert json.loads(err.value.read())["error"] == "CORRUPT"


def test_http_unknown_route_is_404(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _http(server, "GET", "/nope")
    assert err.value.code == 404


# -- config validation --------------------------------------------------


def test_serve_config_rejects_reuse_chains():
    from repro.core.idmap import IndexReusePolicy
    import dataclasses

    chained = dataclasses.replace(
        BASE_CONFIG, index_policy=IndexReusePolicy.FIRST_CHUNK
    )
    with pytest.raises(ValueError):
        ServeConfig(base=chained)


def test_request_id_is_echoed(server):
    with server.client() as client:
        request = Request(op=Op.HEALTH, request_id=941)
        response = client.request(request)
    assert response.request_id == 941
