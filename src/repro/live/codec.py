"""The broadcast wire format: framed, bit-packed cycles.

One broadcast cycle flies as a sequence of *frames*, one per slot-level
unit the chaos layer can drop independently -- exactly the failure
granularity of the sim's fault models:

```
[ CONTROL frame ][ DATA frame ]*[ OVERFLOW frame ]*
```

Each frame is ``header || payload``; the 20-byte header carries the
frame type, the cycle number, the cycle-relative slot and a CRC32 of
the payload, so a receiver can always attribute a corrupted payload to
its (cycle, slot) -- a corrupt control payload is a lost control
segment, a corrupt data payload a lost bucket, mirroring
:class:`~repro.faults.models.SlotLoss` / ``ControlCorruption``.

Payloads are bit-packed with the field widths of the analytic
:class:`~repro.server.sizing.SizeModel`: keys cost ``k`` units, values
``d`` units, version numbers ride age-relative in ``ceil(log2 S)`` bits
(Section 3.2) and transaction ids in ``ceil(log2 N)`` bits qualified
with an age-relative cycle (Section 3.3), so the wire size of a cycle
tracks the Figure 7 closed forms (``tests/live/test_codec.py`` pins the
agreement).  Two deliberate divergences from the strict per-scheme
formulas, both so that a decoded program is *bit-identical* to the
built one for every scheme:

* version ages and last-writer tags ride on every profile (the paper's
  invalidation-only report omits them; our client stack stores both on
  every record, and the SGT layout already prices the pair as
  ``log2(S) + log2(N)`` bits);
* an age that overflows its field width escapes to an explicit 32-bit
  value (all-ones marker) instead of saturating -- items never updated
  since the initial load carry age ``cycle``, which no fixed ``log2 S``
  field can hold.

Encoding reuses one preallocated bit buffer across cycles (the ROADMAP
item-4 follow-on: cycle encoding writes straight into wire buffers
instead of allocating per record).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from math import ceil, log2
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.broadcast.program import (
    BroadcastProgram,
    Bucket,
    ItemRecord,
    MultiversionOrganization,
    OldVersionRecord,
)
from repro.config import ServerParameters
from repro.core.control import (
    BroadcastRequirements,
    ControlInfo,
    InvalidationReport,
    report_from_updates,
)
from repro.graph.sgraph import GraphDiff, TxnId


class FrameError(Exception):
    """Base wire-format error: the byte stream is not a valid frame."""


class FrameTruncated(FrameError):
    """The buffer ends inside a frame header or payload."""


class FrameCorrupt(FrameError):
    """The payload does not match the header's CRC32."""

    def __init__(self, message: str, frame: "Frame") -> None:
        super().__init__(message)
        #: The frame whose payload failed its checksum (payload bytes as
        #: received); receivers map it to a lost slot / control segment.
        self.frame = frame


class CodecError(FrameError):
    """A payload (or a program being encoded) violates the bit layout."""


# -- bit packing --------------------------------------------------------------


class BitWriter:
    """MSB-first bit packer over one reusable, growable buffer."""

    __slots__ = ("_buf", "_len", "_acc", "_nbits")

    def __init__(self, capacity: int = 1 << 12) -> None:
        self._buf = bytearray(max(64, capacity))
        self.reset()

    def reset(self) -> None:
        self._len = 0
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, bits: int) -> None:
        if value < 0 or (bits < 64 and value >> bits):
            raise CodecError(f"value {value} does not fit in {bits} bits")
        acc = (self._acc << bits) | value
        nbits = self._nbits + bits
        buf, pos = self._buf, self._len
        if pos + (nbits >> 3) >= len(buf):
            self._buf = buf = buf + bytearray(len(buf) + (nbits >> 3))
        while nbits >= 8:
            nbits -= 8
            buf[pos] = (acc >> nbits) & 0xFF
            pos += 1
        self._acc = acc & ((1 << nbits) - 1)
        self._nbits = nbits
        self._len = pos

    def getvalue(self) -> bytes:
        """The packed bytes, zero-padded to a byte boundary."""
        if self._nbits:
            tail = bytes([(self._acc << (8 - self._nbits)) & 0xFF])
            return bytes(self._buf[: self._len]) + tail
        return bytes(self._buf[: self._len])

    @property
    def bit_length(self) -> int:
        return 8 * self._len + self._nbits


class BitReader:
    """MSB-first reader over immutable payload bytes."""

    __slots__ = ("_data", "_pos", "_nbits")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position
        self._nbits = 8 * len(data)

    def read(self, bits: int) -> int:
        pos = self._pos
        end = pos + bits
        if end > self._nbits:
            raise CodecError("bit stream truncated")
        self._pos = end
        data = self._data
        value = 0
        while bits > 0:
            byte = data[pos >> 3]
            offset = pos & 7
            take = min(8 - offset, bits)
            value = (value << take) | (
                (byte >> (8 - offset - take)) & ((1 << take) - 1)
            )
            pos += take
            bits -= take
        return value


# -- framing ------------------------------------------------------------------

MAGIC = b"\xb7\x1e"
_HEADER = struct.Struct(">2sBBIIII")
HEADER_BYTES = _HEADER.size  # 20
#: Largest payload a frame may carry.  Far above anything the codec
#: emits (a control segment for a 10^5-item database is tens of KiB), so
#: a header claiming more is broken framing, not a slow frame: without
#: the bound one flipped length bit would make a receiver buffer up to
#: 4 GiB waiting for it.
MAX_PAYLOAD_BYTES = 1 << 24

HELLO = 0x01
CONTROL = 0x02
DATA = 0x03
OVERFLOW = 0x04
END = 0x05

_FRAME_TYPES = frozenset((HELLO, CONTROL, DATA, OVERFLOW, END))


@dataclass(frozen=True)
class Frame:
    """One decoded frame: type, (cycle, slot) address, payload bytes."""

    type: int
    cycle: int
    slot: int
    payload: bytes


def encode_frame(ftype: int, cycle: int, slot: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise CodecError(
            f"frame payload of {len(payload)} bytes exceeds "
            f"MAX_PAYLOAD_BYTES ({MAX_PAYLOAD_BYTES})"
        )
    return (
        _HEADER.pack(
            MAGIC, ftype, 0, cycle, slot, len(payload),
            zlib.crc32(payload) & 0xFFFFFFFF,
        )
        + payload
    )


def decode_frame(buf: bytes, offset: int = 0) -> Tuple[Frame, int]:
    """Strictly decode one frame at ``offset``; returns (frame, consumed).

    Raises :class:`FrameTruncated` when the buffer ends mid-frame,
    :class:`FrameError` on a bad magic, an unknown type or a length
    above :data:`MAX_PAYLOAD_BYTES`, and
    :class:`FrameCorrupt` when the payload fails its CRC32.
    """
    if len(buf) - offset < HEADER_BYTES:
        raise FrameTruncated(
            f"need {HEADER_BYTES} header bytes, have {len(buf) - offset}"
        )
    magic, ftype, _flags, cycle, slot, length, crc = _HEADER.unpack_from(
        buf, offset
    )
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if ftype not in _FRAME_TYPES:
        raise FrameError(f"unknown frame type 0x{ftype:02x}")
    if length > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"frame length {length} exceeds MAX_PAYLOAD_BYTES "
            f"({MAX_PAYLOAD_BYTES})"
        )
    start = offset + HEADER_BYTES
    if len(buf) - start < length:
        raise FrameTruncated(
            f"frame payload truncated: need {length} bytes, "
            f"have {len(buf) - start}"
        )
    payload = bytes(buf[start : start + length])
    frame = Frame(type=ftype, cycle=cycle, slot=slot, payload=payload)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameCorrupt(
            f"payload CRC mismatch in frame (cycle={cycle}, slot={slot})",
            frame,
        )
    return frame, HEADER_BYTES + length


class FrameStream:
    """Incremental frame parser for a TCP byte stream.

    ``feed`` returns complete frames in order; a payload failing its
    CRC comes back as the :class:`FrameCorrupt` exception *object* (the
    receiver maps it to a lost slot), while a broken header is fatal --
    framing is lost and the connection must drop.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Union[Frame, FrameCorrupt]]:
        self._buf += data
        out: List[Union[Frame, FrameCorrupt]] = []
        offset = 0
        while True:
            try:
                frame, consumed = decode_frame(self._buf, offset)
            except FrameTruncated:
                break
            except FrameCorrupt as corrupt:
                out.append(corrupt)
                offset += HEADER_BYTES + len(corrupt.frame.payload)
                continue
            out.append(frame)
            offset += consumed
        if offset:
            del self._buf[:offset]
        return out


def encode_json_frame(ftype: int, obj: dict) -> bytes:
    """Session frames (HELLO/END) carry self-describing JSON."""
    payload = json.dumps(obj, sort_keys=True).encode("utf-8")
    return encode_frame(ftype, 0, 0, payload)


def decode_json_payload(payload: bytes) -> dict:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"malformed session payload: {exc}") from None


# -- the wire profile ---------------------------------------------------------

_ORGS = (
    MultiversionOrganization.NONE,
    MultiversionOrganization.CLUSTERED,
    MultiversionOrganization.OVERFLOW,
)


@dataclass(frozen=True)
class WireProfile:
    """Field widths and layout flags of one broadcast's wire format.

    Derived from the server parameters and the merged scheme
    requirements exactly as :class:`~repro.server.sizing.SizeModel`
    prices them: ``key_bits = k`` units, ``data_bits = d`` units,
    ``version_bits = ceil(log2 S)``, ``tid_bits = ceil(log2 N)``.
    """

    key_bits: int
    data_bits: int
    version_bits: int
    tid_bits: int
    items_per_bucket: int
    span: int
    sgt: bool
    organization: MultiversionOrganization
    bits_per_unit: int = 32

    @classmethod
    def from_params(
        cls,
        params: ServerParameters,
        requirements: BroadcastRequirements,
        bits_per_unit: int = 32,
    ) -> "WireProfile":
        span = params.retention if requirements.needs_old_versions else 0
        if requirements.needs_old_versions:
            organization = (
                MultiversionOrganization.CLUSTERED
                if requirements.organization == "clustered"
                else MultiversionOrganization.OVERFLOW
            )
        else:
            organization = MultiversionOrganization.NONE
        return cls(
            key_bits=params.key_size * bits_per_unit,
            data_bits=params.data_size * bits_per_unit,
            version_bits=ceil(log2(max(2, span))),
            tid_bits=ceil(log2(max(2, params.transactions_per_cycle))),
            items_per_bucket=params.items_per_bucket,
            span=span,
            sgt=requirements.needs_sgt,
            organization=organization,
            bits_per_unit=bits_per_unit,
        )

    def to_wire(self) -> dict:
        """JSON-safe form for the HELLO frame."""
        return {
            "key_bits": self.key_bits,
            "data_bits": self.data_bits,
            "version_bits": self.version_bits,
            "tid_bits": self.tid_bits,
            "items_per_bucket": self.items_per_bucket,
            "span": self.span,
            "sgt": self.sgt,
            "organization": self.organization.value,
            "bits_per_unit": self.bits_per_unit,
        }

    @classmethod
    def from_wire(cls, blob: dict) -> "WireProfile":
        try:
            organization = MultiversionOrganization(blob["organization"])
            return cls(
                key_bits=int(blob["key_bits"]),
                data_bits=int(blob["data_bits"]),
                version_bits=int(blob["version_bits"]),
                tid_bits=int(blob["tid_bits"]),
                items_per_bucket=int(blob["items_per_bucket"]),
                span=int(blob["span"]),
                sgt=bool(blob["sgt"]),
                organization=organization,
                bits_per_unit=int(blob["bits_per_unit"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise CodecError(f"malformed wire profile: {exc}") from None


# -- the cycle codec ----------------------------------------------------------

#: Age escape: an all-ones age field means "explicit 32-bit age follows".
_AGE_EXPLICIT_BITS = 32


@dataclass(frozen=True)
class ControlHeader:
    """Geometry decoded from a CONTROL payload (plus the control info)."""

    cycle: int
    start_slot: int
    control_slots: int
    index_slots: int
    organization: MultiversionOrganization
    num_data_buckets: int
    num_overflow_buckets: int
    control: ControlInfo

    @property
    def total_slots(self) -> int:
        return (
            self.control_slots
            + self.index_slots
            + self.num_data_buckets
            + self.num_overflow_buckets
        )


class CycleCodec:
    """Encode/decode one :class:`BroadcastProgram` per wire profile.

    One codec instance owns one preallocated :class:`BitWriter`; every
    ``encode_*`` call resets and reuses it, so steady-state encoding
    allocates only the final payload copies.
    """

    def __init__(self, profile: WireProfile, capacity: int = 1 << 14) -> None:
        self.profile = profile
        self._writer = BitWriter(capacity)

    # -- field helpers ------------------------------------------------------

    def _write_age(self, w: BitWriter, age: int, bits: int) -> None:
        if age < 0:
            raise CodecError(f"negative age {age} (field is age-relative)")
        marker = (1 << bits) - 1
        if age < marker:
            w.write(age, bits)
        else:
            w.write(marker, bits)
            w.write(age, _AGE_EXPLICIT_BITS)

    def _read_age(self, r: BitReader, bits: int) -> int:
        value = r.read(bits)
        if value == (1 << bits) - 1:
            return r.read(_AGE_EXPLICIT_BITS)
        return value

    def _write_txn(self, w: BitWriter, tid: TxnId, base_cycle: int) -> None:
        self._write_age(w, base_cycle - tid.cycle, self.profile.version_bits)
        self._write_age(w, tid.seq, self.profile.tid_bits)

    def _read_txn(self, r: BitReader, base_cycle: int) -> TxnId:
        cycle = base_cycle - self._read_age(r, self.profile.version_bits)
        seq = self._read_age(r, self.profile.tid_bits)
        return TxnId(cycle=cycle, seq=seq)

    def _write_opt_txn(
        self, w: BitWriter, tid: Optional[TxnId], base_cycle: int
    ) -> None:
        if tid is None:
            w.write(0, 1)
        else:
            w.write(1, 1)
            self._write_txn(w, tid, base_cycle)

    def _read_opt_txn(self, r: BitReader, base_cycle: int) -> Optional[TxnId]:
        if r.read(1):
            return self._read_txn(r, base_cycle)
        return None

    def _write_value(self, w: BitWriter, value: int) -> None:
        zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
        if zigzag >> self.profile.data_bits:
            raise CodecError(
                f"value {value} does not fit the {self.profile.data_bits}-bit "
                "data field"
            )
        w.write(zigzag, self.profile.data_bits)

    def _read_value(self, r: BitReader) -> int:
        zigzag = r.read(self.profile.data_bits)
        return (zigzag >> 1) if not (zigzag & 1) else -((zigzag + 1) >> 1)

    def _write_version(self, w: BitWriter, version: int, cycle: int) -> None:
        # Versions are age-relative (Section 3.2); version 0 (the initial
        # database load, whose age grows without bound) gets its own bit.
        if version == 0:
            w.write(0, 1)
        else:
            w.write(1, 1)
            self._write_age(w, cycle - version, self.profile.version_bits)

    def _read_version(self, r: BitReader, cycle: int) -> int:
        if not r.read(1):
            return 0
        return cycle - self._read_age(r, self.profile.version_bits)

    def _write_record(
        self, w: BitWriter, record: ItemRecord, cycle: int
    ) -> None:
        w.write(record.item, self.profile.key_bits)
        self._write_value(w, record.value)
        self._write_version(w, record.version, cycle)
        self._write_opt_txn(w, record.writer, cycle)
        if self.profile.organization is MultiversionOrganization.OVERFLOW:
            w.write(1 if record.has_old_versions else 0, 1)
        elif record.has_old_versions:
            raise CodecError(
                "has_old_versions pointers only exist in the overflow "
                "organization"
            )

    def _read_record(self, r: BitReader, cycle: int) -> ItemRecord:
        item = r.read(self.profile.key_bits)
        value = self._read_value(r)
        version = self._read_version(r, cycle)
        writer = self._read_opt_txn(r, cycle)
        has_old = False
        if self.profile.organization is MultiversionOrganization.OVERFLOW:
            has_old = bool(r.read(1))
        return ItemRecord(
            item=item,
            value=value,
            version=version,
            writer=writer,
            has_old_versions=has_old,
        )

    def _write_old(
        self, w: BitWriter, old: OldVersionRecord, cycle: int
    ) -> None:
        w.write(old.item, self.profile.key_bits)
        self._write_value(w, old.value)
        self._write_version(w, old.version, cycle)
        self._write_age(w, old.valid_to - old.version, self.profile.version_bits)
        self._write_opt_txn(w, old.writer, cycle)

    def _read_old(self, r: BitReader, cycle: int) -> OldVersionRecord:
        item = r.read(self.profile.key_bits)
        value = self._read_value(r)
        version = self._read_version(r, cycle)
        valid_to = version + self._read_age(r, self.profile.version_bits)
        writer = self._read_opt_txn(r, cycle)
        return OldVersionRecord(
            item=item,
            value=value,
            version=version,
            valid_to=valid_to,
            writer=writer,
        )

    def _write_report(
        self, w: BitWriter, report: InvalidationReport, base_cycle: int
    ) -> None:
        self._write_age(w, base_cycle - report.cycle, self.profile.version_bits)
        items = sorted(report.updated_items)
        w.write(len(items), 32)
        for item in items:
            w.write(item, self.profile.key_bits)
            if self.profile.sgt:
                self._write_opt_txn(
                    w, report.first_writers.get(item), base_cycle
                )

    def _read_report(
        self, r: BitReader, base_cycle: int
    ) -> InvalidationReport:
        cycle = base_cycle - self._read_age(r, self.profile.version_bits)
        count = r.read(32)
        items = []
        writers: Dict[int, TxnId] = {}
        for _ in range(count):
            item = r.read(self.profile.key_bits)
            items.append(item)
            if self.profile.sgt:
                writer = self._read_opt_txn(r, base_cycle)
                if writer is not None:
                    writers[item] = writer
        # Bucket-level projection is derived, not transmitted: clients map
        # items to pages with the same flat arithmetic as the builder.
        return report_from_updates(
            cycle=cycle,
            updated_items=frozenset(items),
            first_writers=writers or None,
            items_per_bucket=self.profile.items_per_bucket,
        )

    # -- frame encoders -----------------------------------------------------

    def encode_control(
        self, program: BroadcastProgram, start_slot: int
    ) -> bytes:
        w = self._writer
        w.reset()
        w.write(start_slot, 64)
        w.write(program.control_slots, 16)
        w.write(program.index_slots, 16)
        w.write(_ORGS.index(program.organization), 2)
        w.write(len(program.data_buckets), 16)
        w.write(len(program.overflow_buckets), 16)

        control = program.control
        cycle = program.cycle
        self._write_age(w, cycle - control.cycle, self.profile.version_bits)
        w.write(control.size_units, 32)
        self._write_report(w, control.invalidation, cycle)
        if len(control.window) > 0xFF:
            raise CodecError(
                f"report window of {len(control.window)} exceeds the "
                "8-bit window field"
            )
        w.write(len(control.window), 8)
        for report in control.window:
            self._write_report(w, report, cycle)
        diff = control.graph_diff
        if diff is None:
            w.write(0, 1)
        else:
            w.write(1, 1)
            self._write_age(w, cycle - diff.cycle, self.profile.version_bits)
            w.write(len(diff.nodes), 32)
            for node in sorted(diff.nodes):
                self._write_txn(w, node, cycle)
            w.write(len(diff.edges), 32)
            for src, dst in sorted(diff.edges):
                self._write_txn(w, src, cycle)
                self._write_txn(w, dst, cycle)
        return encode_frame(CONTROL, program.cycle, 0, w.getvalue())

    def decode_control(self, frame: Frame) -> ControlHeader:
        if frame.type != CONTROL:
            raise CodecError(f"expected a CONTROL frame, got 0x{frame.type:02x}")
        r = BitReader(frame.payload)
        cycle = frame.cycle
        start_slot = r.read(64)
        control_slots = r.read(16)
        index_slots = r.read(16)
        org_code = r.read(2)
        if org_code >= len(_ORGS):
            raise CodecError(f"unknown organization code {org_code}")
        num_data = r.read(16)
        num_overflow = r.read(16)

        control_cycle = cycle - self._read_age(r, self.profile.version_bits)
        size_units = r.read(32)
        invalidation = self._read_report(r, cycle)
        window = tuple(
            self._read_report(r, cycle) for _ in range(r.read(8))
        )
        diff: Optional[GraphDiff] = None
        if r.read(1):
            diff_cycle = cycle - self._read_age(r, self.profile.version_bits)
            nodes = frozenset(
                self._read_txn(r, cycle) for _ in range(r.read(32))
            )
            edges = frozenset(
                (self._read_txn(r, cycle), self._read_txn(r, cycle))
                for _ in range(r.read(32))
            )
            diff = GraphDiff(cycle=diff_cycle, nodes=nodes, edges=edges)
        if control_slots < 1:
            raise CodecError("control_slots must be at least 1")
        return ControlHeader(
            cycle=cycle,
            start_slot=start_slot,
            control_slots=control_slots,
            index_slots=index_slots,
            organization=_ORGS[org_code],
            num_data_buckets=num_data,
            num_overflow_buckets=num_overflow,
            control=ControlInfo(
                cycle=control_cycle,
                invalidation=invalidation,
                graph_diff=diff,
                window=window,
                size_units=size_units,
            ),
        )

    def _encode_bucket(
        self,
        ftype: int,
        bucket: Bucket,
        cycle: int,
        slot: int,
        with_records: bool,
        with_old: bool,
    ) -> bytes:
        w = self._writer
        w.reset()
        w.write(bucket.index, 32)
        if with_records:
            w.write(len(bucket.records), 16)
            for record in bucket.records:
                self._write_record(w, record, cycle)
        if with_old:
            w.write(len(bucket.old_records), 16)
            for old in bucket.old_records:
                self._write_old(w, old, cycle)
        elif bucket.old_records:
            raise CodecError(
                "old versions ride in data buckets only under the "
                "clustered organization"
            )
        return encode_frame(ftype, cycle, slot, w.getvalue())

    def encode_data_bucket(
        self, program: BroadcastProgram, offset: int
    ) -> bytes:
        slot = program.control_slots + program.index_slots + offset
        clustered = (
            program.organization is MultiversionOrganization.CLUSTERED
        )
        return self._encode_bucket(
            DATA,
            program.data_buckets[offset],
            program.cycle,
            slot,
            with_records=True,
            with_old=clustered,
        )

    def decode_data_bucket(self, frame: Frame, header: ControlHeader) -> Bucket:
        if frame.type != DATA:
            raise CodecError(f"expected a DATA frame, got 0x{frame.type:02x}")
        r = BitReader(frame.payload)
        index = r.read(32)
        records = tuple(
            self._read_record(r, frame.cycle) for _ in range(r.read(16))
        )
        old_records: Tuple[OldVersionRecord, ...] = ()
        if header.organization is MultiversionOrganization.CLUSTERED:
            old_records = tuple(
                self._read_old(r, frame.cycle) for _ in range(r.read(16))
            )
        return Bucket(index=index, records=records, old_records=old_records)

    def encode_overflow_bucket(
        self, program: BroadcastProgram, offset: int
    ) -> bytes:
        slot = (
            program.control_slots
            + program.index_slots
            + len(program.data_buckets)
            + offset
        )
        return self._encode_bucket(
            OVERFLOW,
            program.overflow_buckets[offset],
            program.cycle,
            slot,
            with_records=False,
            with_old=True,
        )

    def decode_overflow_bucket(self, frame: Frame) -> Bucket:
        if frame.type != OVERFLOW:
            raise CodecError(
                f"expected an OVERFLOW frame, got 0x{frame.type:02x}"
            )
        r = BitReader(frame.payload)
        index = r.read(32)
        old_records = tuple(
            self._read_old(r, frame.cycle) for _ in range(r.read(16))
        )
        return Bucket(index=index, records=(), old_records=old_records)

    # -- whole cycles -------------------------------------------------------

    def encode_cycle(
        self, program: BroadcastProgram, start_slot: int
    ) -> List[bytes]:
        """All frames of one cycle, in air order (control first)."""
        frames = [self.encode_control(program, start_slot)]
        for offset in range(len(program.data_buckets)):
            frames.append(self.encode_data_bucket(program, offset))
        for offset in range(len(program.overflow_buckets)):
            frames.append(self.encode_overflow_bucket(program, offset))
        return frames

    def assemble(
        self,
        header: ControlHeader,
        data_buckets: Sequence[Bucket],
        overflow_buckets: Sequence[Bucket],
    ) -> BroadcastProgram:
        """Rebuild the program from a fully received cycle."""
        if len(data_buckets) != header.num_data_buckets:
            raise CodecError(
                f"cycle {header.cycle}: expected "
                f"{header.num_data_buckets} data buckets, got "
                f"{len(data_buckets)}"
            )
        if len(overflow_buckets) != header.num_overflow_buckets:
            raise CodecError(
                f"cycle {header.cycle}: expected "
                f"{header.num_overflow_buckets} overflow buckets, got "
                f"{len(overflow_buckets)}"
            )
        return BroadcastProgram(
            cycle=header.cycle,
            control=header.control,
            data_buckets=list(data_buckets),
            overflow_buckets=list(overflow_buckets),
            control_slots=header.control_slots,
            index_slots=header.index_slots,
            organization=header.organization,
        )

    def decode_cycle(
        self, frames: Iterable[bytes]
    ) -> Tuple[BroadcastProgram, int]:
        """Strictly decode one whole cycle from raw frame bytes.

        The loopback/test convenience inverse of :meth:`encode_cycle`;
        returns ``(program, start_slot)``.
        """
        header: Optional[ControlHeader] = None
        data: List[Bucket] = []
        overflow: List[Bucket] = []
        for raw in frames:
            frame, consumed = decode_frame(raw)
            if consumed != len(raw):
                raise CodecError("trailing bytes after frame")
            if frame.type == CONTROL:
                if header is not None:
                    raise CodecError("duplicate CONTROL frame in cycle")
                header = self.decode_control(frame)
            elif frame.type == DATA:
                if header is None:
                    raise CodecError("DATA frame before CONTROL")
                data.append(self.decode_data_bucket(frame, header))
            elif frame.type == OVERFLOW:
                if header is None:
                    raise CodecError("OVERFLOW frame before CONTROL")
                overflow.append(self.decode_overflow_bucket(frame))
            else:
                raise CodecError(
                    f"unexpected frame type 0x{frame.type:02x} in cycle"
                )
        if header is None:
            raise CodecError("cycle has no CONTROL frame")
        return self.assemble(header, data, overflow), header.start_slot

    def segment_bits(self, program: BroadcastProgram) -> Dict[str, int]:
        """Payload bits per segment (frame headers excluded) -- the
        measured counterpart of the :class:`SizeModel` breakdowns."""
        control = len(self.encode_control(program, 0)) - HEADER_BYTES
        data = sum(
            len(self.encode_data_bucket(program, off)) - HEADER_BYTES
            for off in range(len(program.data_buckets))
        )
        overflow = sum(
            len(self.encode_overflow_bucket(program, off)) - HEADER_BYTES
            for off in range(len(program.overflow_buckets))
        )
        return {
            "control_bits": 8 * control,
            "data_bits": 8 * data,
            "overflow_bits": 8 * overflow,
        }


def programs_equal(a: BroadcastProgram, b: BroadcastProgram) -> bool:
    """Field-level equality of two programs (the round-trip invariant)."""
    return (
        a.cycle == b.cycle
        and a.control == b.control
        and a.control_slots == b.control_slots
        and a.index_slots == b.index_slots
        and a.organization == b.organization
        and a.data_buckets == b.data_buckets
        and a.overflow_buckets == b.overflow_buckets
    )
