"""Property and fuzz tests of the raw-layout store entry codec.

An entry is ``MAGIC`` + a 32-hex SHA-256 prefix of the body + the body:
an 8-byte little-endian header length, a JSON header of
``[name, dtype.str, shape, offset, nbytes]`` rows, then raw C-order
array bytes.  Round trips are bit-identical; any header inconsistency
behind a *valid* digest still raises :class:`StoreError`, so a crafted
or buggy entry is evicted and recomputed, never served.
"""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import StoreError
from repro.store import ContentStore, decode_payload, encode_payload
from repro.store.content_store import MAGIC, _ENTRY_KEY, _entry_identity

DTYPES = st.one_of(
    hnp.boolean_dtypes(),
    hnp.integer_dtypes(endianness="?"),
    hnp.unsigned_integer_dtypes(endianness="?"),
    hnp.floating_dtypes(endianness="?"),
    hnp.complex_number_dtypes(endianness="?"),
    hnp.unicode_string_dtypes(endianness="?", max_len=6),
)
ARRAYS = hnp.arrays(
    DTYPES, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
)
NAMES = st.text(min_size=1, max_size=8).filter(lambda name: name != _ENTRY_KEY)


def seal(body: bytes) -> bytes:
    """An entry whose digest is valid for ``body``, whatever it holds."""
    return MAGIC + hashlib.sha256(body).hexdigest()[:32].encode("ascii") + body


def crafted(rows: list, data: bytes = b"", identity=("ns", "k")) -> bytes:
    """A sealed entry: ``rows`` over ``data``, then the identity array."""
    name = np.asarray(_entry_identity(*identity))
    raw = name.tobytes()
    rows = rows + [[_ENTRY_KEY, name.dtype.str, [], len(data), len(raw)]]
    head = json.dumps(rows).encode("utf-8")
    return seal(struct.pack("<Q", len(head)) + head + data + raw)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(NAMES, ARRAYS, max_size=4), st.booleans())
    def test_bit_identical_in_dtype_shape_and_bytes(self, payload, fortran):
        if fortran:
            payload = {k: np.array(v, order="F") for k, v in payload.items()}
        decoded = decode_payload(encode_payload("ns", "k", payload), "ns", "k")
        assert sorted(decoded) == sorted(payload)
        for name, array in payload.items():
            assert decoded[name].dtype == array.dtype, name
            assert decoded[name].shape == array.shape, name
            assert decoded[name].tobytes() == array.tobytes(), name

    @settings(max_examples=50, deadline=None)
    @given(st.lists(ARRAYS, min_size=2, max_size=4))
    def test_arrays_are_writable_and_independent(self, arrays):
        payload = {f"a{i}": array for i, array in enumerate(arrays)}
        blob = encode_payload("ns", "k", payload)
        decoded = list(decode_payload(blob, "ns", "k").values())
        raw = np.frombuffer(blob, dtype=np.uint8)
        for index, array in enumerate(decoded):
            assert array.flags.writeable
            assert not np.shares_memory(array, raw)
            for other in decoded[index + 1 :]:
                assert not np.shares_memory(array, other)

    @pytest.mark.parametrize(
        "value",
        [
            np.array([1, "a"], dtype=object),
            np.array(None),
            np.zeros(2, dtype=[("x", "<f8"), ("o", object)]),
            np.zeros(2, dtype=[("x", "<f8")]),  # its dtype.str drops the field
        ],
    )
    def test_encode_refuses_object_and_structured_dtypes(self, value):
        with pytest.raises(StoreError, match="unstorable dtype"):
            encode_payload("ns", "k", {"bad": value})

    def test_layout_is_the_documented_one(self):
        blob = encode_payload("ns", "k", {"x": np.arange(3, dtype="<i4")})
        body = blob[len(MAGIC) + 32 :]
        assert blob[len(MAGIC) : len(MAGIC) + 32] == (
            hashlib.sha256(body).hexdigest()[:32].encode("ascii")
        )
        (length,) = struct.unpack_from("<Q", body)
        header = json.loads(body[8 : 8 + length])
        assert header[0] == ["x", "<i4", [3], 0, 12]
        start = 8 + length
        assert body[start : start + 12] == np.arange(3, dtype="<i4").tobytes()


#: Sealed bodies whose header disagrees with itself or with the body.
BAD_BODIES = {
    "too-short": b"\x01\x02",
    "length-past-body": struct.pack("<Q", 1 << 40) + b"[]",
    "header-not-json": struct.pack("<Q", 3) + b"xyz",
    "header-not-utf8": struct.pack("<Q", 2) + b"\xff\xfe",
    "header-not-rows": struct.pack("<Q", 2) + b"{}" + b"",
    "row-too-short": struct.pack("<Q", 13) + b'[["x", "<f8"]]',
}

#: (rows, data) of sealed entries with one inconsistent array row.
BAD_ROWS = {
    "offset-past-body": ([["x", "<f8", [2], 1 << 20, 16]], bytes(16)),
    "nbytes-past-body": ([["x", "<f8", [1 << 17], 0, 1 << 20]], bytes(16)),
    "nbytes-not-shape-times-itemsize": ([["x", "<f8", [3], 0, 16]], bytes(24)),
    "unknown-dtype": ([["x", "<q9", [2], 0, 16]], bytes(16)),
    "object-dtype": ([["x", "|O", [2], 0, 16]], bytes(16)),
    "non-canonical-dtype": ([["x", "float64", [2], 0, 16]], bytes(16)),
    "structured-dtype": ([["x", [["a", "<f8"]], [2], 0, 16]], bytes(16)),
    "negative-shape": ([["x", "<f8", [-2], 0, 0]], b""),
    "negative-offset": ([["x", "<f8", [1], -8, 8]], bytes(8)),
    "float-nbytes": ([["x", "<f8", [1], 0, 8.0]], bytes(8)),
    "non-string-name": ([[7, "<f8", [1], 0, 8]], bytes(8)),
}


class TestCraftedEntries:
    @pytest.mark.parametrize("case", sorted(BAD_BODIES))
    def test_bad_body_raises_behind_a_valid_digest(self, case):
        with pytest.raises(StoreError):
            decode_payload(seal(BAD_BODIES[case]), "ns", "k")

    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_bad_row_raises_behind_a_valid_digest(self, case):
        rows, data = BAD_ROWS[case]
        with pytest.raises(StoreError):
            decode_payload(crafted(rows, data), "ns", "k")

    def test_crafted_helper_builds_valid_entries(self):
        blob = crafted([["x", "<f8", [2], 0, 16]], np.ones(2).tobytes())
        assert np.array_equal(decode_payload(blob, "ns", "k")["x"], np.ones(2))

    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_bad_row_through_get_is_a_corrupt_eviction(self, tmp_path, case):
        store = ContentStore(root=tmp_path)
        path = store._entry_path("stress", "k")
        path.parent.mkdir(parents=True, exist_ok=True)
        rows, data = BAD_ROWS[case]
        path.write_bytes(crafted(rows, data, identity=("stress", "k")))
        assert store.get("stress", "k") is None
        assert not path.exists()
        assert store.counters()["corrupt_evictions"] == 1

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=6),
            lambda inner: st.lists(inner, max_size=6),
            max_leaves=24,
        ),
        st.binary(max_size=64),
    )
    def test_any_sealed_header_decodes_or_raises_store_error(self, header, data):
        head = json.dumps(header).encode("utf-8")
        blob = seal(struct.pack("<Q", len(head)) + head + data)
        try:
            payload = decode_payload(blob)
        except StoreError:
            return
        for array in payload.values():
            assert isinstance(array, np.ndarray) and not array.dtype.hasobject
