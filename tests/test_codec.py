import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bincover.codec import (
    AdvicePayload,
    MalformedAdviceError,
    TapeCursor,
    TapeTruncationError,
    decode_advice,
    decode_self_delim,
    encode_advice,
    encode_self_delim,
    minimal_binary,
    read_tape,
    write_tape,
)

F = Fraction

bit_strings = st.text(alphabet="01", max_size=300)


def test_self_delim_examples():
    assert encode_self_delim("101") == "11011101"
    assert encode_self_delim("") == "100"
    assert encode_self_delim("1") == "1011"


def test_decode_examples():
    cursor = TapeCursor("11011101")
    assert decode_self_delim(cursor) == "101"
    assert cursor.position == 8
    assert decode_self_delim(TapeCursor("100")) == ""
    with pytest.raises(TapeTruncationError):
        decode_self_delim(TapeCursor("11"))


def test_zero_prefix_decodes_empty_string():
    # A lone terminating zero is the degenerate empty-string encoding.
    cursor = TapeCursor("0111")
    assert decode_self_delim(cursor) == ""
    assert cursor.position == 1


@given(bit_strings)
def test_self_delim_round_trip(s):
    encoded = encode_self_delim(s)
    cursor = TapeCursor(encoded)
    assert decode_self_delim(cursor) == s
    assert cursor.position == len(encoded)


@given(bit_strings)
def test_length_law(s):
    bitlen = len(minimal_binary(len(s)))
    assert len(encode_self_delim(s)) == len(s) + 2 * bitlen + 1
    if len(s) >= 1:
        assert len(encode_self_delim(s)) <= len(s) + 2 * math.ceil(math.log2(len(s) + 1)) + 1


@given(bit_strings, bit_strings)
def test_prefix_freeness(s1, s2):
    # A proper prefix relation would let two different payloads collide.
    e1, e2 = encode_self_delim(s1), encode_self_delim(s2)
    if s1 != s2:
        assert e1 != e2
        if len(e1) < len(e2):
            assert not e2.startswith(e1)


@given(st.lists(bit_strings, max_size=5))
def test_concatenated_fields_decode_in_sequence(parts):
    tape = "".join(encode_self_delim(part) for part in parts)
    cursor = TapeCursor(tape)
    assert [decode_self_delim(cursor) for _ in parts] == parts
    assert cursor.position == len(tape)


def test_minimal_binary():
    assert minimal_binary(0) == "0"
    assert minimal_binary(1) == "1"
    assert minimal_binary(2) == "10"
    assert len(minimal_binary(2)) == 2  # no leading zeros


def test_advice_examples_round_trip():
    for payload in [
        AdvicePayload(2, F(4, 5)),
        AdvicePayload(0, F(1)),
        AdvicePayload(1, F(1, 2)),
    ]:
        bits = encode_advice(payload)
        cursor = TapeCursor(bits)
        assert decode_advice(cursor) == payload
        assert cursor.position == len(bits)  # exactly one payload consumed


def test_advice_layout_is_three_fields():
    bits = encode_advice(AdvicePayload(2, F(4, 5)))
    assert bits == (
        encode_self_delim(minimal_binary(2))
        + encode_self_delim(minimal_binary(4))
        + encode_self_delim(minimal_binary(5))
    )


@given(
    m=st.integers(min_value=1, max_value=10**9),
    num=st.integers(min_value=1, max_value=10**9),
    den=st.integers(min_value=1, max_value=10**9),
)
def test_advice_round_trip(m, num, den):
    x = F(min(num, den), max(num, den))
    payload = AdvicePayload(m, x)
    assert decode_advice(TapeCursor(encode_advice(payload))) == payload


def test_payload_invariants():
    with pytest.raises(MalformedAdviceError):
        AdvicePayload(-1, F(1))
    with pytest.raises(MalformedAdviceError):
        AdvicePayload(0, F(1, 2))  # m = 0 demands the sentinel
    with pytest.raises(MalformedAdviceError):
        AdvicePayload(3, F(3, 2))
    with pytest.raises(MalformedAdviceError):
        AdvicePayload(3, F(0))


def test_decode_rejects_zero_denominator():
    bits = (
        encode_self_delim(minimal_binary(1))
        + encode_self_delim(minimal_binary(1))
        + encode_self_delim(minimal_binary(0))
    )
    with pytest.raises(MalformedAdviceError):
        decode_advice(TapeCursor(bits))


def test_decode_rejects_truncation():
    bits = encode_advice(AdvicePayload(2, F(4, 5)))
    with pytest.raises(TapeTruncationError):
        decode_advice(TapeCursor(bits[:-1]))


def test_tape_files_round_trip(tmp_path):
    bits = encode_advice(AdvicePayload(7, F(3, 7)))
    ascii_path = tmp_path / "advice.tape"
    packed_path = tmp_path / "advice.bin"
    write_tape(ascii_path, bits)
    write_tape(packed_path, bits)
    assert read_tape(ascii_path) == bits
    assert read_tape(packed_path) == bits
    assert ascii_path.read_text() == bits + "\n"


def test_packed_tape_header_carries_bit_count(tmp_path):
    path = tmp_path / "t.bin"
    write_tape(path, "10100")
    blob = path.read_bytes()
    assert int.from_bytes(blob[:8], "big") == 5
    assert len(blob) == 9


def test_empty_tape_round_trip(tmp_path):
    for name in ("empty.tape", "empty.bin"):
        path = tmp_path / name
        write_tape(path, "")
        assert read_tape(path) == ""
