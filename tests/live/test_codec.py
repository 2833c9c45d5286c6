"""The wire codec: round-trip fidelity, framing errors, size agreement.

Three pillars:

* a Hypothesis round-trip property -- any program a profile can legally
  carry decodes bit-identically across all three multiversion
  organizations and every control-info variant (windows, graph diffs,
  SGT writer tags, age escapes);
* framing failure modes -- truncated and corrupted byte streams come
  back as the documented error types, never as garbage programs;
* size agreement -- the codec's field widths are exactly the analytic
  :class:`~repro.server.sizing.SizeModel` widths, pinned both at the
  profile level and by counting the bits of an encoded bucket.
"""

from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    report_from_updates,
)
from repro.graph.sgraph import GraphDiff, TxnId
from repro.live.codec import (
    CONTROL,
    DATA,
    HEADER_BYTES,
    HELLO,
    MAX_PAYLOAD_BYTES,
    BitReader,
    BitWriter,
    CodecError,
    CycleCodec,
    FrameCorrupt,
    FrameError,
    FrameStream,
    FrameTruncated,
    WireProfile,
    decode_frame,
    decode_json_payload,
    encode_frame,
    encode_json_frame,
    programs_equal,
)
from repro.server.sizing import SizeModel

ORGS = (
    MultiversionOrganization.NONE,
    MultiversionOrganization.CLUSTERED,
    MultiversionOrganization.OVERFLOW,
)


# -- program strategies -------------------------------------------------------


def _txn_ids(cycle: int) -> st.SearchStrategy:
    # Large seq values force the all-ones age escape through tiny
    # tid_bits fields.
    return st.builds(
        TxnId,
        cycle=st.integers(0, cycle),
        seq=st.integers(0, 500),
    )


def _records(profile: WireProfile, cycle: int) -> st.SearchStrategy:
    overflow = profile.organization is MultiversionOrganization.OVERFLOW
    return st.builds(
        ItemRecord,
        item=st.integers(1, 300),
        value=st.integers(-(2**31), 2**31 - 1),
        version=st.integers(0, cycle),
        writer=st.none() | _txn_ids(cycle),
        has_old_versions=st.booleans() if overflow else st.just(False),
    )


def _old_records(cycle: int) -> st.SearchStrategy:
    def build(item, value, version, extra, writer):
        return OldVersionRecord(
            item=item,
            value=value,
            version=version,
            valid_to=version + extra,
            writer=writer,
        )

    return st.builds(
        build,
        item=st.integers(1, 300),
        value=st.integers(-(2**31), 2**31 - 1),
        version=st.integers(0, cycle),
        extra=st.integers(0, 40),
        writer=st.none() | _txn_ids(cycle),
    )


@st.composite
def _reports(draw, profile: WireProfile, cycle: int):
    report_cycle = draw(st.integers(0, cycle))
    items = draw(st.frozensets(st.integers(1, 300), max_size=6))
    writers = None
    if profile.sgt and items:
        # A partial writer map: the wire carries an optional tag per item.
        tagged = draw(st.sets(st.sampled_from(sorted(items)), max_size=4))
        writers = {item: draw(_txn_ids(cycle)) for item in tagged} or None
    return report_from_updates(
        cycle=report_cycle,
        updated_items=items,
        first_writers=writers,
        items_per_bucket=profile.items_per_bucket,
    )


@st.composite
def _graph_diffs(draw, cycle: int):
    nodes = draw(st.frozensets(_txn_ids(cycle), max_size=4))
    edges = draw(st.frozensets(st.tuples(_txn_ids(cycle), _txn_ids(cycle)), max_size=4))
    return GraphDiff(cycle=draw(st.integers(0, cycle)), nodes=nodes, edges=edges)


@st.composite
def wire_cases(draw):
    """(profile, program) pairs covering every layout the codec owns."""
    organization = draw(st.sampled_from(ORGS))
    profile = WireProfile(
        key_bits=32,
        data_bits=64,
        # Tiny fields exercise the explicit-age escape path.
        version_bits=draw(st.integers(1, 5)),
        tid_bits=draw(st.integers(1, 5)),
        items_per_bucket=draw(st.integers(1, 10)),
        span=0 if organization is MultiversionOrganization.NONE else draw(st.integers(1, 16)),
        sgt=draw(st.booleans()),
        organization=organization,
    )
    cycle = draw(st.integers(1, 40))

    clustered = organization is MultiversionOrganization.CLUSTERED
    buckets = []
    for index in draw(st.lists(st.integers(0, 1000), max_size=3, unique=True)):
        buckets.append(
            Bucket(
                index=index,
                records=tuple(draw(st.lists(_records(profile, cycle), max_size=4))),
                old_records=(
                    tuple(draw(st.lists(_old_records(cycle), max_size=3)))
                    if clustered
                    else ()
                ),
            )
        )
    overflow_buckets = []
    if organization is MultiversionOrganization.OVERFLOW:
        for index in draw(st.lists(st.integers(0, 1000), max_size=2, unique=True)):
            overflow_buckets.append(
                Bucket(
                    index=index,
                    records=(),
                    old_records=tuple(
                        draw(st.lists(_old_records(cycle), max_size=3))
                    ),
                )
            )

    control = ControlInfo(
        cycle=draw(st.integers(0, cycle)),
        invalidation=draw(_reports(profile, cycle)),
        graph_diff=draw(st.none() | _graph_diffs(cycle)),
        window=tuple(draw(st.lists(_reports(profile, cycle), max_size=2))),
        size_units=draw(st.integers(0, 10**6)),
    )
    program = BroadcastProgram(
        cycle=cycle,
        control=control,
        data_buckets=buckets,
        overflow_buckets=overflow_buckets,
        control_slots=draw(st.integers(1, 3)),
        index_slots=draw(st.integers(0, 2)),
        organization=organization,
    )
    return profile, program


# -- round trip ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(wire_cases(), st.integers(0, 2**40))
def test_cycle_round_trip_is_bit_identical(case, start_slot):
    profile, program = case
    encoder = CycleCodec(profile)
    frames = encoder.encode_cycle(program, start_slot)
    # Decode through the HELLO-serialized profile, like a real listener.
    decoder = CycleCodec(WireProfile.from_wire(profile.to_wire()))
    decoded, decoded_slot = decoder.decode_cycle(frames)
    assert decoded_slot == start_slot
    assert programs_equal(program, decoded)
    # Re-encoding the decoded program reproduces the exact wire bytes.
    assert decoder.encode_cycle(decoded, start_slot) == frames


@settings(max_examples=50, deadline=None)
@given(wire_cases())
def test_decoded_control_geometry_matches_program(case):
    profile, program = case
    codec = CycleCodec(profile)
    raw = codec.encode_control(program, 7)
    frame, consumed = decode_frame(raw)
    assert consumed == len(raw)
    header = codec.decode_control(frame)
    assert header.cycle == program.cycle
    assert header.start_slot == 7
    assert header.organization is program.organization
    assert header.num_data_buckets == len(program.data_buckets)
    assert header.num_overflow_buckets == len(program.overflow_buckets)
    assert header.total_slots == program.total_slots


def test_wire_profile_json_round_trip():
    profile = WireProfile(
        key_bits=32,
        data_bits=160,
        version_bits=4,
        tid_bits=4,
        items_per_bucket=10,
        span=16,
        sgt=True,
        organization=MultiversionOrganization.OVERFLOW,
    )
    assert WireProfile.from_wire(profile.to_wire()) == profile


def test_wire_profile_rejects_malformed_blob():
    with pytest.raises(CodecError):
        WireProfile.from_wire({"key_bits": 32})
    blob = WireProfile(
        key_bits=32,
        data_bits=160,
        version_bits=4,
        tid_bits=4,
        items_per_bucket=10,
        span=0,
        sgt=False,
        organization=MultiversionOrganization.NONE,
    ).to_wire()
    blob["organization"] = "no-such-layout"
    with pytest.raises(CodecError):
        WireProfile.from_wire(blob)


# -- framing failure modes ----------------------------------------------------


def test_frame_round_trip_and_json_payload():
    raw = encode_json_frame(HELLO, {"scheme": "sgt+cache", "n": 3})
    frame, consumed = decode_frame(raw)
    assert consumed == len(raw)
    assert frame.type == HELLO
    assert decode_json_payload(frame.payload) == {"scheme": "sgt+cache", "n": 3}
    with pytest.raises(CodecError):
        decode_json_payload(b"\xff\xfe not json")


def test_truncated_header_and_payload_raise_frame_truncated():
    raw = encode_frame(DATA, 3, 5, b"payload bytes")
    for cut in (0, 1, HEADER_BYTES - 1, HEADER_BYTES, len(raw) - 1):
        with pytest.raises(FrameTruncated):
            decode_frame(raw[:cut])


def test_corrupt_payload_raises_frame_corrupt_with_frame_attached():
    raw = bytearray(encode_frame(CONTROL, 9, 0, b"control segment"))
    raw[-1] ^= 0xFF
    with pytest.raises(FrameCorrupt) as excinfo:
        decode_frame(bytes(raw))
    assert excinfo.value.frame.cycle == 9
    assert excinfo.value.frame.type == CONTROL


def test_bad_magic_and_unknown_type_are_fatal_frame_errors():
    raw = bytearray(encode_frame(DATA, 1, 1, b"x"))
    raw[0] ^= 0xFF
    with pytest.raises(FrameError) as excinfo:
        decode_frame(bytes(raw))
    assert not isinstance(excinfo.value, (FrameTruncated, FrameCorrupt))

    raw = bytearray(encode_frame(DATA, 1, 1, b"x"))
    raw[2] = 0x7E  # not a registered frame type
    with pytest.raises(FrameError) as excinfo:
        decode_frame(bytes(raw))
    assert not isinstance(excinfo.value, (FrameTruncated, FrameCorrupt))


def test_oversized_length_is_a_fatal_frame_error_not_a_stall():
    """A header claiming 0xFFFFFFFF payload bytes fails at once instead
    of leaving the stream waiting for 4 GiB."""
    raw = bytearray(encode_frame(DATA, 1, 1, b"x"))
    raw[12:16] = (0xFFFFFFFF).to_bytes(4, "big")
    stream = FrameStream()
    with pytest.raises(FrameError) as excinfo:
        stream.feed(bytes(raw[:HEADER_BYTES]))
    assert not isinstance(excinfo.value, (FrameTruncated, FrameCorrupt))

    # The bound is inclusive on both sides: a maximal payload still
    # round-trips, and the encoder refuses anything larger.
    frame, _ = decode_frame(encode_frame(DATA, 1, 1, bytes(MAX_PAYLOAD_BYTES)))
    assert len(frame.payload) == MAX_PAYLOAD_BYTES
    with pytest.raises(CodecError):
        encode_frame(DATA, 1, 1, bytes(MAX_PAYLOAD_BYTES + 1))


def test_frame_stream_reassembles_split_and_corrupt_frames():
    first = encode_frame(DATA, 2, 3, b"alpha")
    damaged = bytearray(encode_frame(DATA, 2, 4, b"beta"))
    damaged[-1] ^= 0xFF
    third = encode_frame(DATA, 2, 5, b"gamma")
    wire = first + bytes(damaged) + third

    stream = FrameStream()
    events = []
    # One byte at a time: the parser must hold partial frames across feeds.
    for i in range(len(wire)):
        events.extend(stream.feed(wire[i : i + 1]))
    assert len(events) == 3
    assert events[0].payload == b"alpha"
    assert isinstance(events[1], FrameCorrupt)
    assert events[1].frame.slot == 4
    assert events[2].payload == b"gamma"
    # The buffer drained completely.
    assert stream.feed(b"") == []


@settings(max_examples=50, deadline=None)
@given(wire_cases(), st.data())
def test_truncated_control_payload_is_a_clean_codec_error(case, data):
    profile, program = case
    codec = CycleCodec(profile)
    raw = codec.encode_control(program, 0)
    payload = raw[HEADER_BYTES:]
    if len(payload) < 2:
        return
    cut = data.draw(st.integers(0, len(payload) - 1))
    frame, _ = decode_frame(encode_frame(CONTROL, program.cycle, 0, payload[:cut]))
    with pytest.raises(CodecError):
        codec.decode_control(frame)


def test_layout_violations_raise_codec_errors():
    flat = WireProfile(
        key_bits=32,
        data_bits=32,
        version_bits=4,
        tid_bits=4,
        items_per_bucket=10,
        span=0,
        sgt=False,
        organization=MultiversionOrganization.NONE,
    )
    codec = CycleCodec(flat)
    pointer = ItemRecord(item=1, value=0, version=0, writer=None, has_old_versions=True)
    with pytest.raises(CodecError):
        codec._write_record(BitWriter(), pointer, cycle=1)

    # Old versions in a data bucket only exist under CLUSTERED.
    old = OldVersionRecord(item=1, value=0, version=1, valid_to=2, writer=None)
    program = BroadcastProgram(
        cycle=3,
        control=ControlInfo(cycle=3, invalidation=report_from_updates(3, frozenset())),
        data_buckets=[Bucket(index=0, records=(), old_records=(old,))],
        overflow_buckets=[],
        control_slots=1,
        index_slots=0,
        organization=MultiversionOrganization.NONE,
    )
    with pytest.raises(CodecError):
        codec.encode_data_bucket(program, 0)

    # A value whose zigzag form overflows the data field.
    with pytest.raises(CodecError):
        codec._write_value(BitWriter(), 2**40)

    # Versions from the future have a negative age.
    with pytest.raises(CodecError):
        codec._write_version(BitWriter(), version=9, cycle=3)


def test_bit_writer_reader_round_trip_and_bounds():
    w = BitWriter(capacity=1)
    values = [(0, 1), (1, 1), (5, 3), (2**31 - 1, 32), (0, 7), (123456, 20)]
    for value, bits in values:
        w.write(value, bits)
    r = BitReader(w.getvalue())
    for value, bits in values:
        assert r.read(bits) == value
    with pytest.raises(CodecError):
        r.read(64)  # past the end
    with pytest.raises(CodecError):
        BitWriter().write(8, 3)  # does not fit


# -- size agreement with the analytic model -----------------------------------


def test_profile_widths_match_size_model():
    params = ServerParameters()
    model = SizeModel(params)
    requirements = BroadcastRequirements(
        needs_old_versions=True, organization="overflow", needs_sgt=True
    )
    profile = WireProfile.from_params(params, requirements)
    assert profile.key_bits == params.key_size * model.bits_per_unit
    assert profile.data_bits == params.data_size * model.bits_per_unit
    assert profile.version_bits == ceil(model.version_bits(params.retention))
    assert profile.tid_bits == ceil(model.tid_bits())
    assert profile.span == params.retention
    assert profile.organization is MultiversionOrganization.OVERFLOW

    # An invalidation-only scheme airs no old versions: span 0 collapses
    # the version field to the model's log2(max(2, 0)) = 1-bit floor.
    flat = WireProfile.from_params(params, BroadcastRequirements())
    assert flat.span == 0
    assert flat.version_bits == ceil(model.version_bits(0)) == 1
    assert flat.organization is MultiversionOrganization.NONE


def _expected_record_bits(profile: WireProfile, record: ItemRecord, cycle: int) -> int:
    bits = profile.key_bits + profile.data_bits
    bits += 1  # version-zero flag
    if record.version:
        age = cycle - record.version
        bits += profile.version_bits
        if age >= (1 << profile.version_bits) - 1:
            bits += 32  # explicit-age escape
    bits += 1  # writer-present flag
    if record.writer is not None:
        for value, width in (
            (cycle - record.writer.cycle, profile.version_bits),
            (record.writer.seq, profile.tid_bits),
        ):
            bits += width
            if value >= (1 << width) - 1:
                bits += 32
    if profile.organization is MultiversionOrganization.OVERFLOW:
        bits += 1  # has-old pointer bit
    return bits


@settings(max_examples=100, deadline=None)
@given(wire_cases())
def test_measured_bucket_bits_equal_model_field_sums(case):
    """segment_bits measures exactly the SizeModel widths, bit for bit."""
    profile, program = case
    if not program.data_buckets:
        return
    codec = CycleCodec(profile)
    measured = codec.segment_bits(program)
    clustered = profile.organization is MultiversionOrganization.CLUSTERED
    expected = 0
    for bucket in program.data_buckets:
        bits = 32 + 16  # bucket index + record count
        for record in bucket.records:
            bits += _expected_record_bits(profile, record, program.cycle)
        if clustered:
            bits += 16
            for old in bucket.old_records:
                # An old record is an item record plus a validity age,
                # minus the pointer bit (there is no overflow to point at).
                bits += _expected_record_bits(
                    profile,
                    ItemRecord(
                        item=old.item,
                        value=old.value,
                        version=old.version,
                        writer=old.writer,
                        has_old_versions=False,
                    ),
                    program.cycle,
                )
                span = old.valid_to - old.version
                bits += profile.version_bits
                if span >= (1 << profile.version_bits) - 1:
                    bits += 32
        expected += 8 * ceil(bits / 8)  # each payload pads to a byte
    assert measured["data_bits"] == expected


def test_segment_bits_track_figure7_growth():
    """More updates -> a larger control segment, data segment unchanged
    (the invalidation-only row of Figure 7)."""
    params = ServerParameters()
    profile = WireProfile.from_params(params, BroadcastRequirements())
    codec = CycleCodec(profile)

    def program_with(updates: int) -> BroadcastProgram:
        records = tuple(
            ItemRecord(item=i, value=i, version=0, writer=None)
            for i in range(1, params.items_per_bucket + 1)
        )
        return BroadcastProgram(
            cycle=5,
            control=ControlInfo(
                cycle=5,
                invalidation=report_from_updates(
                    5,
                    frozenset(range(1, updates + 1)),
                    items_per_bucket=params.items_per_bucket,
                ),
            ),
            data_buckets=[Bucket(index=0, records=records)],
            overflow_buckets=[],
            control_slots=1,
            index_slots=0,
            organization=MultiversionOrganization.NONE,
        )

    small = codec.segment_bits(program_with(5))
    large = codec.segment_bits(program_with(50))
    assert large["control_bits"] - small["control_bits"] == 45 * profile.key_bits
    assert large["data_bits"] == small["data_bits"]
    assert small["overflow_bits"] == large["overflow_bits"] == 0
