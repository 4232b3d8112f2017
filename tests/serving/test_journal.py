"""Request-journal codec and writer: round-trips, rotation with META
re-emission, torn-tail recovery, and the writer's lifecycle edges."""

import os
import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.serving.journal import (
    JOURNAL_VERSION,
    KIND_META,
    KIND_REQUEST,
    RequestJournal,
    iter_journal,
    pack_bits,
    pack_record,
    read_journal,
    unpack_bits,
    unpack_record,
)


class TestBitPacking:
    def test_round_trip_non_multiple_of_eight(self):
        bits = np.array([True, False, True, True, False, False, True,
                         False, True, True, False])
        blob, n_bits = pack_bits(bits)
        assert n_bits == 11
        assert len(blob) == 2  # 11 bits pack into 2 bytes
        np.testing.assert_array_equal(unpack_bits(blob, n_bits), bits)

    def test_none_means_no_bits(self):
        assert pack_bits(None) == (b"", 0)
        assert unpack_bits(b"", 0) is None


class TestRecordCodec:
    def test_request_round_trip(self):
        header = {"request_id": 7, "status": "ok", "batch": 3,
                  "row_offset": 8, "batch_rows": 16, "fix_fraction": 0.25}
        inputs = np.arange(24.0).reshape(8, 3)
        outputs = inputs * 2.0
        bits = np.array([True, False] * 4)
        body = pack_record(KIND_REQUEST, header, inputs, outputs, bits)
        kind, record = unpack_record(body)
        assert kind == KIND_REQUEST
        assert record.request_id == 7
        assert record.ok
        assert record.batch == 3
        assert record.row_offset == 8
        assert record.batch_rows == 16
        assert record.fix_fraction == 0.25
        np.testing.assert_array_equal(record.inputs, inputs)
        np.testing.assert_array_equal(record.outputs, outputs)
        np.testing.assert_array_equal(record.bits, bits)

    def test_request_without_arrays(self):
        body = pack_record(KIND_REQUEST, {"request_id": 1, "status": "error"})
        _, record = unpack_record(body)
        assert record.inputs is None
        assert record.outputs is None
        assert record.bits is None
        assert not record.ok

    def test_meta_round_trip(self):
        body = pack_record(KIND_META, {"app": "fft", "seed": 0})
        kind, doc = unpack_record(body)
        assert kind == KIND_META
        assert doc == {"app": "fft", "seed": 0}

    def test_truncated_body_raises(self):
        body = pack_record(
            KIND_REQUEST, {"request_id": 1}, np.zeros((4, 4)),
            np.zeros((4, 4)), np.ones(4, dtype=bool),
        )
        for cut in (len(body) // 2, len(body) - 3, 5):
            with pytest.raises(ProtocolError):
                unpack_record(body[:cut])

    def test_unknown_kind_raises(self):
        with pytest.raises(ProtocolError, match="unknown journal record"):
            unpack_record(b"\x77rest")
        with pytest.raises(ConfigurationError):
            pack_record(42, {})


class TestRequestJournal:
    def _fill(self, journal, n, rows=4, cols=3, batch_rows=None, start=0):
        for i in range(start, start + n):
            inputs = np.full((rows, cols), float(i))
            journal.record_request(
                {"request_id": i, "status": "ok", "batch": i,
                 "row_offset": 0, "batch_rows": batch_rows or rows},
                inputs=inputs, outputs=inputs + 1.0,
                bits=np.zeros(rows, dtype=bool),
            )

    def test_write_then_read_back(self, tmp_path):
        path = str(tmp_path / "journal.bin")
        with RequestJournal(path) as journal:
            journal.write_meta({"app": "fft", "backend": "thread"})
            self._fill(journal, 3)
        parsed = read_journal(path)
        assert parsed.meta["app"] == "fft"
        assert parsed.meta["journal_version"] == JOURNAL_VERSION
        assert [r.request_id for r in parsed.records] == [0, 1, 2]
        np.testing.assert_array_equal(
            parsed.records[2].inputs, np.full((4, 3), 2.0)
        )
        assert len(parsed.batches()) == 3

    def test_rotation_re_emits_meta(self, tmp_path):
        path = str(tmp_path / "journal.bin")
        journal = RequestJournal(path, max_bytes=4096)
        journal.write_meta({"app": "fft"})
        # Each record is a few hundred bytes; push past one rotation.
        i = 0
        while journal.rotations == 0:
            self._fill(journal, 1, start=i)
            i += 1
            assert i < 200, "journal never rotated"
        journal.close()
        assert os.path.exists(path + ".1")
        # The live generation alone is still self-describing: the META
        # was re-written at its head during rotation.
        live_only = read_journal(path, include_rotated=False)
        assert live_only.meta is not None and live_only.meta["app"] == "fft"
        # Rotated + live generations read oldest-first with no gaps at
        # the boundary.
        both = read_journal(path)
        ids = [r.request_id for r in both.records]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_on_disk_bytes_are_plain_wire_frames(self, tmp_path):
        # Pins the file format: each generation is the META frame, then
        # FT_JOURNAL frames, cut where the next frame would pass max_bytes.
        from repro.serving.net import protocol as wire

        path = str(tmp_path / "journal.bin")
        journal = RequestJournal(path, max_bytes=4096)
        journal.write_meta({"app": "fft"})
        self._fill(journal, 20)
        journal.close()
        head = wire.encode_frame(wire.FT_JOURNAL, 0, pack_record(
            KIND_META, {"app": "fft", "journal_version": JOURNAL_VERSION}
        ))
        generations = [[head]]
        for i in range(20):
            inputs = np.full((4, 3), float(i))
            frame = wire.encode_frame(wire.FT_JOURNAL, i, pack_record(
                KIND_REQUEST,
                {"request_id": i, "status": "ok", "batch": i,
                 "row_offset": 0, "batch_rows": 4},
                inputs=inputs, outputs=inputs + 1.0,
                bits=np.zeros(4, dtype=bool),
            ))
            if sum(map(len, generations[-1])) + len(frame) > 4096:
                generations.append([head])
            generations[-1].append(frame)
        assert len(generations) == 2
        with open(path + ".1", "rb") as fh:
            assert fh.read() == b"".join(generations[0])
        with open(path, "rb") as fh:
            assert fh.read() == b"".join(generations[1])

    def test_torn_tail_keeps_intact_prefix(self, tmp_path):
        path = str(tmp_path / "journal.bin")
        with RequestJournal(path) as journal:
            journal.write_meta({"app": "fft"})
            self._fill(journal, 5)
        # SIGKILL mid-write: the final frame is cut short.  The reader
        # must stop there and keep everything before it.
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 17)
        parsed = read_journal(path)
        assert parsed.meta is not None
        assert [r.request_id for r in parsed.records] == [0, 1, 2, 3]

    def test_corrupted_tail_detected_by_crc(self, tmp_path):
        path = str(tmp_path / "journal.bin")
        with RequestJournal(path) as journal:
            journal.write_meta({"app": "fft"})
            self._fill(journal, 3)
        # Flip one byte inside the last frame's body: the length prefix
        # still matches, so only the CRC can catch it.
        with open(path, "r+b") as handle:
            handle.seek(-10, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-10, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0xFF]))
        parsed = read_journal(path)
        assert [r.request_id for r in parsed.records] == [0, 1]

    def test_garbage_length_prefix_stops_cleanly(self, tmp_path):
        path = str(tmp_path / "journal.bin")
        with RequestJournal(path) as journal:
            journal.write_meta({"app": "fft"})
            self._fill(journal, 2)
        with open(path, "ab") as handle:
            handle.write(struct.pack("<I", 1 << 30))  # absurd frame claim
        parsed = read_journal(path)
        assert len(parsed.records) == 2

    def test_writes_after_close_are_dropped(self, tmp_path):
        path = str(tmp_path / "journal.bin")
        journal = RequestJournal(path)
        self._fill(journal, 1)
        journal.close()
        self._fill(journal, 1)  # must not raise on the closed handle
        journal.close()  # idempotent
        assert len(read_journal(path).records) == 1

    def test_max_bytes_floor(self, tmp_path):
        with pytest.raises(ConfigurationError, match="at least 4096"):
            RequestJournal(str(tmp_path / "journal.bin"), max_bytes=16)

    def test_missing_file_reads_empty(self, tmp_path):
        parsed = read_journal(str(tmp_path / "nope.bin"))
        assert parsed.meta is None
        assert parsed.records == []
        assert list(iter_journal(str(tmp_path / "nope.bin"))) == []
