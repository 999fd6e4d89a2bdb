"""Wire protocol of the ``primacy serve`` daemon.

Messages are PRIF-style varint frames
(:class:`repro.storage.stream.FrameAssembler` /
:func:`repro.storage.stream.encode_frame`): a uvarint byte length
followed by the frame body.  Bodies reuse the storage layer's checked
decoding helpers, so every malformed input raises the same typed
:class:`~repro.compressors.base.CorruptionError` /
:class:`~repro.compressors.base.TruncationError` taxonomy as a damaged
PRIF file -- never a bare ``IndexError`` and never a hang.

Request body layout (all integers uvarint unless noted)::

    magic   "PSRQ"                      (4 bytes)
    version u8                          (PROTOCOL_VERSION)
    op      u8                          (Op)
    request_id
    flags   u8                          (FLAG_AUTO)
    tenant  len | ascii bytes           (<= 255 bytes)
    config  len | config body           (len 0: server defaults)
    payload len | bytes

    config body:
        codec        len | ascii bytes
        chunk_bytes
        high_bytes
        linearization u8                (0 column, 1 row)
        theta_milli                     (planner theta in 1/1000 MB/s;
                                         meaningful with FLAG_AUTO)

Response body layout::

    magic   "PSRS"                      (4 bytes)
    version u8
    status  u8                          (Status; 0 = OK)
    request_id
    detail  len | utf-8 bytes           (error message, or "")
    payload len | bytes                 (result bytes; JSON for
                                         stat/health)

The split between :class:`Status` values is part of the contract:
``BAD_REQUEST``/``CORRUPT`` describe the client's bytes, ``BUSY`` and
``QUOTA`` are admission-control refusals (retryable), ``DRAINING``
means the server is shutting down, and ``INTERNAL`` is a server-side
failure after the request was acknowledged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.compressors.base import CorruptionError, TruncationError, checked_uvarint
from repro.core.linearize import Linearization
from repro.storage.format import checked_bytes
from repro.storage.stream import FrameAssembler, encode_frame
from repro.util.varint import encode_uvarint

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_MAGIC",
    "RESPONSE_MAGIC",
    "MAX_PAYLOAD_BYTES",
    "FLAG_AUTO",
    "Op",
    "Status",
    "RequestConfig",
    "Request",
    "Response",
    "ServeError",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "request_assembler",
    "response_assembler",
]

PROTOCOL_VERSION = 1
REQUEST_MAGIC = b"PSRQ"
RESPONSE_MAGIC = b"PSRS"

#: Default cap on a request/response payload (256 MiB).  The daemon can
#: lower it; the protocol refuses to decode anything larger outright.
MAX_PAYLOAD_BYTES = 256 * 1024 * 1024

_MAX_TENANT_BYTES = 255
_MAX_DETAIL_BYTES = 64 * 1024
_MAX_CONFIG_BYTES = 4 * 1024
_MAX_NAME_BYTES = 64

FLAG_AUTO = 0x01
_KNOWN_FLAGS = FLAG_AUTO


class Op(enum.IntEnum):
    """Request operations."""

    COMPRESS = 1
    DECOMPRESS = 2
    STAT = 3
    HEALTH = 4


class Status(enum.IntEnum):
    """Response statuses."""

    OK = 0
    BAD_REQUEST = 1  # malformed op/config for this server
    CORRUPT = 2  # payload failed typed decode (CorruptionError)
    BUSY = 3  # admission control: in-flight byte cap reached
    QUOTA = 4  # admission control: tenant token bucket empty
    DRAINING = 5  # server is shutting down; request not acknowledged
    INTERNAL = 6  # server-side failure after acknowledgement


@dataclass(frozen=True)
class RequestConfig:
    """Per-request pipeline knobs (the CLI-visible subset).

    ``theta_milli`` is the planner's target transfer rate in 1/1000
    MB/s; it only matters for ``FLAG_AUTO`` requests, where the server
    builds a :class:`repro.planner.PlannerConfig` from ``chunk_bytes``
    and ``theta_milli`` and ignores the static fields.
    """

    codec: str = "pyzlib"
    chunk_bytes: int = 3 * 1024 * 1024
    high_bytes: int = 2
    linearization: Linearization = Linearization.COLUMN
    theta_milli: int = 4000

    def encode(self) -> bytes:
        """Serialize this config block."""
        name = self.codec.encode("ascii")
        out = bytearray()
        out += encode_uvarint(len(name))
        out += name
        out += encode_uvarint(self.chunk_bytes)
        out += encode_uvarint(self.high_bytes)
        out.append(0 if self.linearization is Linearization.COLUMN else 1)
        out += encode_uvarint(self.theta_milli)
        return bytes(out)


def _decode_config(raw: bytes) -> RequestConfig:
    region = "request.config"
    pos = 0
    name_len, pos = checked_uvarint(raw, pos, "codec name length", region)
    if name_len > _MAX_NAME_BYTES:
        raise CorruptionError(
            f"codec name length {name_len} exceeds {_MAX_NAME_BYTES}",
            region=region,
            offset=pos,
        )
    raw_name, pos = checked_bytes(raw, pos, name_len, "codec name", region)
    try:
        codec = raw_name.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptionError(
            f"non-ASCII codec name: {exc}", region=region
        ) from exc
    chunk_bytes, pos = checked_uvarint(raw, pos, "chunk size", region)
    high_bytes, pos = checked_uvarint(raw, pos, "high-order width", region)
    if pos >= len(raw):
        raise CorruptionError(
            "config body ends before the linearization flag",
            region=region,
            offset=pos,
        )
    lin_flag = raw[pos]
    pos += 1
    if lin_flag not in (0, 1):
        raise CorruptionError(
            f"linearization flag is {lin_flag}, not 0/1",
            region=region,
            offset=pos - 1,
        )
    theta_milli, pos = checked_uvarint(raw, pos, "theta", region)
    if pos != len(raw):
        raise CorruptionError(
            f"{len(raw) - pos} bytes of trailing garbage in config block",
            region=region,
            offset=pos,
        )
    return RequestConfig(
        codec=codec,
        chunk_bytes=chunk_bytes,
        high_bytes=high_bytes,
        linearization=(
            Linearization.COLUMN if lin_flag == 0 else Linearization.ROW
        ),
        theta_milli=theta_milli,
    )


@dataclass(frozen=True)
class Request:
    """One decoded request frame."""

    op: Op
    request_id: int
    payload: bytes = b""
    tenant: str = ""
    flags: int = 0
    config: RequestConfig | None = None

    @property
    def auto(self) -> bool:
        """Whether this request asks for planner-driven compression."""
        return bool(self.flags & FLAG_AUTO)


@dataclass(frozen=True)
class Response:
    """One decoded response frame."""

    status: Status
    request_id: int
    payload: bytes = b""
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether the request succeeded."""
        return self.status is Status.OK

    def raise_for_status(self) -> "Response":
        """Raise :class:`ServeError` unless the status is OK."""
        if not self.ok:
            raise ServeError(self.status, self.detail)
        return self


class ServeError(RuntimeError):
    """A non-OK response, surfaced client-side with its typed status."""

    def __init__(self, status: Status, detail: str) -> None:
        super().__init__(f"{status.name}: {detail or 'no detail'}")
        self.status = status
        self.detail = detail


# -- encoding ----------------------------------------------------------


def encode_request(request: Request) -> bytes:
    """Serialize ``request`` into a complete wire frame (length prefix
    included)."""
    if len(request.payload) > MAX_PAYLOAD_BYTES:
        raise ValueError(
            f"payload of {len(request.payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte protocol cap"
        )
    tenant = request.tenant.encode("ascii")
    if len(tenant) > _MAX_TENANT_BYTES:
        raise ValueError("tenant name longer than 255 bytes")
    if request.flags & ~_KNOWN_FLAGS:
        raise ValueError(f"unknown request flags 0x{request.flags:02x}")
    raw_config = request.config.encode() if request.config is not None else b""
    body = bytearray()
    body += REQUEST_MAGIC
    body.append(PROTOCOL_VERSION)
    body.append(int(request.op))
    body += encode_uvarint(request.request_id)
    body.append(request.flags)
    body += encode_uvarint(len(tenant))
    body += tenant
    body += encode_uvarint(len(raw_config))
    body += raw_config
    body += encode_uvarint(len(request.payload))
    body += request.payload
    return encode_frame(bytes(body))


def encode_response(response: Response) -> bytes:
    """Serialize ``response`` into a complete wire frame."""
    if len(response.payload) > MAX_PAYLOAD_BYTES:
        raise ValueError(
            f"payload of {len(response.payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte protocol cap"
        )
    detail = response.detail.encode("utf-8")
    if len(detail) > _MAX_DETAIL_BYTES:
        detail = detail[:_MAX_DETAIL_BYTES]
    body = bytearray()
    body += RESPONSE_MAGIC
    body.append(PROTOCOL_VERSION)
    body.append(int(response.status))
    body += encode_uvarint(response.request_id)
    body += encode_uvarint(len(detail))
    body += detail
    body += encode_uvarint(len(response.payload))
    body += response.payload
    return encode_frame(bytes(body))


# -- decoding ----------------------------------------------------------


def _decode_preamble(
    body: bytes, magic: bytes, region: str
) -> int:
    # Both magics are 4 bytes; the literal offsets keep the preamble a
    # fixed-width field (4-byte magic, then the version byte at 4).
    if len(body) < 5:
        raise TruncationError(
            "frame ends inside the magic/version preamble",
            region=region,
            offset=0,
        )
    raw_magic = bytes(body[0:4])
    if raw_magic != magic:
        raise CorruptionError(
            f"bad magic {raw_magic!r} (want {magic!r})",
            region=region,
            offset=0,
        )
    version = body[4]
    if version != PROTOCOL_VERSION:
        raise CorruptionError(
            f"unsupported protocol version {version}",
            region=region,
            offset=4,
        )
    return 5


def _sized_field(
    body: bytes, pos: int, what: str, region: str, cap: int
) -> tuple[bytes, int]:
    length, pos = checked_uvarint(body, pos, f"{what} length", region)
    if length > cap:
        raise CorruptionError(
            f"{what} length {length} exceeds the {cap}-byte cap",
            region=region,
            offset=pos,
        )
    return checked_bytes(body, pos, length, what, region)


def decode_request(body: bytes) -> Request:
    """Parse one request frame body (the bytes inside the length prefix).

    Raises :class:`CorruptionError` for structural damage and
    :class:`TruncationError` when ``body`` is a proper prefix of a valid
    frame.
    """
    region = "request"
    pos = _decode_preamble(body, REQUEST_MAGIC, region)
    if pos >= len(body):
        raise CorruptionError(
            "frame ends before the op byte", region=region, offset=pos
        )
    raw_op = body[pos]
    pos += 1
    try:
        op = Op(raw_op)
    except ValueError as exc:
        raise CorruptionError(
            f"unknown op {raw_op}", region=region, offset=pos - 1
        ) from exc
    request_id, pos = checked_uvarint(body, pos, "request id", region)
    if pos >= len(body):
        raise CorruptionError(
            "frame ends before the flags byte", region=region, offset=pos
        )
    flags = body[pos]
    pos += 1
    if flags & ~_KNOWN_FLAGS:
        raise CorruptionError(
            f"unknown request flags 0x{flags:02x}",
            region=region,
            offset=pos - 1,
        )
    raw_tenant, pos = _sized_field(
        body, pos, "tenant", region, _MAX_TENANT_BYTES
    )
    try:
        tenant = raw_tenant.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptionError(
            f"non-ASCII tenant name: {exc}", region=region
        ) from exc
    raw_config, pos = _sized_field(
        body, pos, "config", region, _MAX_CONFIG_BYTES
    )
    config = _decode_config(raw_config) if raw_config else None
    payload, pos = _sized_field(
        body, pos, "payload", region, MAX_PAYLOAD_BYTES
    )
    if pos != len(body):
        raise CorruptionError(
            f"{len(body) - pos} bytes of trailing garbage in request frame",
            region=region,
            offset=pos,
        )
    return Request(
        op=op,
        request_id=request_id,
        payload=payload,
        tenant=tenant,
        flags=flags,
        config=config,
    )


def decode_response(body: bytes) -> Response:
    """Parse one response frame body."""
    region = "response"
    pos = _decode_preamble(body, RESPONSE_MAGIC, region)
    if pos >= len(body):
        raise CorruptionError(
            "frame ends before the status byte", region=region, offset=pos
        )
    raw_status = body[pos]
    pos += 1
    try:
        status = Status(raw_status)
    except ValueError as exc:
        raise CorruptionError(
            f"unknown status {raw_status}", region=region, offset=pos - 1
        ) from exc
    request_id, pos = checked_uvarint(body, pos, "request id", region)
    raw_detail, pos = _sized_field(
        body, pos, "detail", region, _MAX_DETAIL_BYTES
    )
    try:
        detail = raw_detail.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptionError(
            f"undecodable detail text: {exc}", region=region
        ) from exc
    payload, pos = _sized_field(
        body, pos, "payload", region, MAX_PAYLOAD_BYTES
    )
    if pos != len(body):
        raise CorruptionError(
            f"{len(body) - pos} bytes of trailing garbage in response frame",
            region=region,
            offset=pos,
        )
    return Response(
        status=status, request_id=request_id, payload=payload, detail=detail
    )


def request_assembler(max_payload_bytes: int = MAX_PAYLOAD_BYTES) -> FrameAssembler:
    """A stream assembler for request frames (magic checked early)."""
    return FrameAssembler(
        max_frame_bytes=max_payload_bytes + 4096, magic=REQUEST_MAGIC
    )


def response_assembler(max_payload_bytes: int = MAX_PAYLOAD_BYTES) -> FrameAssembler:
    """A stream assembler for response frames (magic checked early)."""
    return FrameAssembler(
        max_frame_bytes=max_payload_bytes + 4096, magic=RESPONSE_MAGIC
    )
