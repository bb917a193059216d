"""The record codec: round-trip fidelity and tamper-evidence.

The format's whole job is that *every* way a stored record can lie is
caught at decode time.  Hypothesis drives both directions: arbitrary
result payloads must round-trip bit-exactly, and arbitrary single-
character mutations of an encoded line must never decode to a different
record silently.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.format import (
    RECORD_SCHEMA_VERSION,
    CorruptRecord,
    MalformedRecord,
    RecordError,
    StaleRecord,
    decode_record,
    encode_record,
    record_checksum,
    result_from_dict,
    result_to_dict,
)

from store_helpers import earlier_layout_line, make_key, make_result, set_member

# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

_counts = st.integers(min_value=0, max_value=2**48)

payloads = st.fixed_dictionaries(
    {
        "benchmark": st.text(
            alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
            min_size=1,
            max_size=20,
        ),
        "instructions": _counts,
        "cycles": _counts,
        "branch_mispredictions": _counts,
        "branch_predictions": _counts,
        "hierarchy_stats": st.dictionaries(
            st.text(min_size=1, max_size=12),
            st.floats(allow_nan=False, allow_infinity=False, width=32)
            | st.integers(min_value=0, max_value=2**32),
            max_size=6,
        ),
    }
)

keys = st.text(
    alphabet="0123456789abcdef", min_size=1, max_size=64
).filter(bool)


# --------------------------------------------------------------------------
# Round trip
# --------------------------------------------------------------------------


class TestRoundTrip:
    @given(key=keys, payload=payloads)
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_is_identity(self, key, payload):
        record = decode_record(encode_record(key, payload))
        assert record.key == key
        assert record.payload == payload
        assert not record.legacy

    @given(payload=payloads)
    @settings(max_examples=200, deadline=None)
    def test_result_serde_round_trips(self, payload):
        result = result_from_dict(payload)
        back = result_to_dict(result)
        assert result_from_dict(back) == result

    def test_simresult_round_trips_exactly(self):
        result = make_result(7)
        record = decode_record(encode_record("ab12", result_to_dict(result)))
        assert record.result == result

    @given(key=keys, payload=payloads)
    @settings(max_examples=100, deadline=None)
    def test_checksum_is_backend_independent(self, key, payload):
        # The checksum covers canonical JSON of (key, result, schema) —
        # re-serialising the payload any other way must not change it.
        roundtripped = json.loads(json.dumps(payload, indent=4))
        assert record_checksum(key, payload) == record_checksum(key, roundtripped)


# --------------------------------------------------------------------------
# Tamper evidence
# --------------------------------------------------------------------------

_PRINTABLE = st.characters(min_codepoint=32, max_codepoint=126)


class TestTamperEvidence:
    # This build's layout verifies a line against its own bytes; an
    # earlier build's is checked by re-encoding.  Both must hold.
    @pytest.mark.parametrize("encode", [encode_record, earlier_layout_line])
    @given(
        key=keys,
        payload=payloads,
        position=st.integers(min_value=0),
        replacement=_PRINTABLE,
    )
    @settings(max_examples=300, deadline=None)
    def test_single_character_mutation_never_lies(
        self, encode, key, payload, position, replacement
    ):
        line = encode(key, payload)
        position %= len(line)
        if line[position] == replacement:
            return
        mutated = line[:position] + replacement + line[position + 1 :]
        try:
            record = decode_record(mutated)
        except RecordError:
            return  # detected — the only acceptable loud outcome
        # The only acceptable quiet outcome: decoding to the *same*
        # record (e.g. a mutation inside a JSON escape that maps to the
        # same text).  A different key or payload slipping through
        # would be silent corruption.
        assert record.key == key and record.payload == payload

    def test_flipped_payload_digit_is_corrupt(self):
        line = encode_record("deadbeef", result_to_dict(make_result(3)))
        assert json.loads(line)["result"]["cycles"] == 2021
        mutated = set_member(line, "cycles", 9021)
        with pytest.raises(CorruptRecord):
            decode_record(mutated)

    def test_flipped_key_is_corrupt(self):
        line = encode_record("deadbeef", result_to_dict(make_result(3)))
        with pytest.raises(CorruptRecord):
            decode_record(line.replace('"deadbeef"', '"deadbeee"'))


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------


class TestClassification:
    def test_garbage_is_malformed(self):
        for line in ("not json", "[1,2]", '{"key": "k"}', '{"result": {}}'):
            with pytest.raises(MalformedRecord):
                decode_record(line)

    def test_wrong_epoch_is_stale_not_served(self):
        entry = json.loads(encode_record("aa", result_to_dict(make_result(1))))
        entry["schema"] = RECORD_SCHEMA_VERSION + 1
        with pytest.raises(StaleRecord) as excinfo:
            decode_record(json.dumps(entry))
        assert excinfo.value.schema == RECORD_SCHEMA_VERSION + 1

    def test_legacy_v1_decodes_with_flag(self):
        result = make_result(2)
        line = json.dumps({"key": make_key(2), "result": result_to_dict(result)})
        record = decode_record(line)
        assert record.legacy
        assert record.result == result

    def test_checksummed_record_without_sha_is_malformed(self):
        entry = json.loads(encode_record("aa", result_to_dict(make_result(1))))
        del entry["sha"]  # declares a schema but carries no proof
        with pytest.raises(MalformedRecord):
            decode_record(json.dumps(entry))

    def test_incomplete_payload_is_malformed(self):
        payload = result_to_dict(make_result(1))
        del payload["cycles"]
        with pytest.raises(MalformedRecord):
            decode_record(encode_record("aa", payload))
