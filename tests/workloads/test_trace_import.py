"""Compressed-trace importer: sniffing, readers, round trips.

Formats are identified by content (magic bytes), never extension; every
import path ends at the canonical ``.npz`` archive and a re-load replays
the identical addresses, write masks and block structure.
"""

from __future__ import annotations

import gzip
import io

import numpy as np
import pytest

from repro.errors import TraceError
from repro.sim.blocks import ReferenceBlock
from repro.sim.trace_io import load_trace, save_trace
from repro.workloads.trace import (
    derive_layout,
    import_trace,
    load_any_trace,
    read_text_trace,
    sniff_trace_format,
)

TEXT = "# captured externally\nR 0x1000\nW 0x1040  # store\nr 4224\nW 0x20000\n\n"
ADDRS = [0x1000, 0x1040, 4224, 0x20000]
WRITES = [False, True, False, True]


@pytest.fixture
def text_trace(tmp_path):
    path = tmp_path / "capture.trace"
    path.write_text(TEXT)
    return path


@pytest.fixture
def gz_text_trace(tmp_path):
    path = tmp_path / "capture.trace.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(TEXT)
    return path


@pytest.fixture
def npz_trace(tmp_path, text_trace):
    path = tmp_path / "canon.npz"
    save_trace(path, read_text_trace(text_trace))
    return path


class TestSniffing:
    def test_by_content_not_extension(
        self, tmp_path, text_trace, gz_text_trace, npz_trace
    ):
        assert sniff_trace_format(text_trace) == "text"
        assert sniff_trace_format(gz_text_trace) == "text.gz"
        assert sniff_trace_format(npz_trace) == "npz"
        # A gzip'd archive keeps its identity under a misleading name.
        disguised = tmp_path / "totally_a_text_file.trace"
        disguised.write_bytes(gzip.compress(npz_trace.read_bytes()))
        assert sniff_trace_format(disguised) == "npz.gz"

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            sniff_trace_format(tmp_path / "nope")


class TestTextReader:
    def test_parses_addresses_comments_and_writes(self, text_trace):
        blocks = read_text_trace(text_trace)
        assert len(blocks) == 1
        assert blocks[0].addrs.tolist() == ADDRS
        assert blocks[0].writes.tolist() == WRITES

    def test_read_only_traces_have_no_mask(self):
        blocks = read_text_trace(io.StringIO("R 0x40\nR 0x80\n"))
        assert blocks[0].writes is None

    def test_chunks_long_streams(self):
        text = "\n".join(f"R {i * 64}" for i in range(300))
        blocks = read_text_trace(io.StringIO(text), block_refs=128)
        assert [len(b.addrs) for b in blocks] == [128, 128, 44]
        joined = np.concatenate([b.addrs for b in blocks])
        assert joined.tolist() == [i * 64 for i in range(300)]

    @pytest.mark.parametrize(
        ("line", "match"),
        [
            ("X 0x40", "expected"),
            ("R", "expected"),
            ("R 0x40 0x80", "expected"),
            ("R zebra", "bad address"),
            ("# nothing else", "no references"),
        ],
    )
    def test_rejects_malformed_lines(self, line, match):
        with pytest.raises(TraceError, match=match):
            read_text_trace(io.StringIO(line + "\n"))


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["text", "text.gz", "npz", "npz.gz"])
    def test_import_any_format_is_exact(
        self, fmt, tmp_path, text_trace, gz_text_trace, npz_trace
    ):
        source = {
            "text": text_trace,
            "text.gz": gz_text_trace,
            "npz": npz_trace,
        }.get(fmt)
        if source is None:
            source = tmp_path / "canon.npz.gz"
            source.write_bytes(gzip.compress(npz_trace.read_bytes()))
        expected = load_any_trace(source)
        out = import_trace(source, tmp_path / f"out-{fmt.replace('.', '_')}")
        assert out.suffix == ".npz" and out.exists()
        replayed = load_trace(out)
        assert len(replayed) == len(expected)
        for a, b in zip(replayed, expected):
            assert np.array_equal(a.addrs, b.addrs)
            assert (a.writes is None) == (b.writes is None)
            if a.writes is not None:
                assert np.array_equal(a.writes, b.writes)
            assert a.label == b.label
            assert a.cycles_per_ref == b.cycles_per_ref


class TestHostileInputs:
    """Damaged files fail with a TraceError naming the path, which the
    CLI prints as one line before exiting 2."""

    def test_truncated_gzip_text(self, tmp_path):
        path = tmp_path / "cut.trace.gz"
        whole = gzip.compress((TEXT * 50).encode())
        for cut in (5, len(whole) // 2):  # inside the header, then the body
            path.write_bytes(whole[:cut])
            with pytest.raises(TraceError, match="corrupt gzip trace .*cut.trace.gz"):
                load_any_trace(path)

    def test_non_utf8_text(self, tmp_path):
        path = tmp_path / "latin.trace"
        path.write_bytes(b"R 0x40\n\xff\xfe R 0x80\n")
        with pytest.raises(TraceError, match="latin.trace: not a UTF-8"):
            load_any_trace(path)

    def test_truncated_npz(self, tmp_path, npz_trace):
        path = tmp_path / "cut.npz"
        whole = npz_trace.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(TraceError, match="cut.npz"):
            load_trace(path)
        with pytest.raises(TraceError, match="cut.npz"):
            load_any_trace(path)

    @pytest.mark.parametrize("verb", ["import", "info"])
    def test_cli_exits_2_with_one_line(self, verb, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cut.trace.gz"
        whole = gzip.compress((TEXT * 50).encode())
        path.write_bytes(whole[: len(whole) // 2])
        argv = ["trace", verb, str(path)]
        if verb == "import":
            argv.append(str(tmp_path / "out"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cut.trace.gz" in err


class TestDeriveLayout:
    def test_clusters_by_address_gap(self):
        blocks = [
            ReferenceBlock(
                addrs=np.array(
                    [0x1000, 0x1040, 0x1080, 0x200000, 0x200040],
                    dtype=np.uint64,
                ),
                cycles_per_ref=1.0,
            )
        ]
        layout = derive_layout(blocks)
        assert layout == {"t0": (0x1000, 192), "t1": (0x200000, 128)}

    def test_keeps_the_largest_clusters(self):
        lines = [i * 64 for i in range(10)] + [0x900000]
        blocks = [
            ReferenceBlock(
                addrs=np.array(lines, dtype=np.uint64), cycles_per_ref=1.0
            )
        ]
        assert list(derive_layout(blocks, max_objects=1)) == ["t0"]
        assert derive_layout(blocks, max_objects=1)["t0"] == (0, 640)
