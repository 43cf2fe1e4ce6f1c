import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from speechmotion import frames, motion, speech_features
from speechmotion.errors import (
    ChannelOutOfRangeError,
    CorruptHeaderError,
    EmptyAudioError,
    InconsistentMarkerSetError,
    InvertedIntervalError,
    MalformedRowError,
    NonMonotoneTimeError,
    OffGridTimeError,
    SameSpeakerOverlapError,
    TooFewFramesError,
    TrimExceedsDurationError,
    UnknownCategoryError,
    UnknownMarkerInMapError,
    UnsupportedFormatError,
    ValueOutOfRangeError,
)
from speechmotion.ingest import (
    AudioClip,
    Interval,
    SpeechIntervals,
    load_emotion_frames,
    load_marker_activeness,
    load_markers,
    load_transcript_intervals,
    load_wav,
    select_channel,
    trim_head,
    write_wav,
)


def wav_bytes(frames: bytes, fmt_code=1, channels=1, sr=16000, bits=16) -> bytes:
    """Hand-assembled RIFF/WAVE bytes, independent of the package's writer."""
    fmt = struct.pack(
        "<HHIIHH", fmt_code, channels, sr, sr * channels * bits // 8,
        channels * bits // 8, bits,
    )
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(frames)) + frames
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def write(tmp_path, name, data: bytes):
    p = tmp_path / name
    p.write_bytes(data)
    return p


class TestLoadWav:
    def test_silence_16bit(self, tmp_path):
        p = write(tmp_path, "s.wav", wav_bytes(b"\x00\x00" * 16000))
        clip = load_wav(p)
        assert clip.n_samples == 16000
        assert clip.sample_rate_hz == 16000
        assert clip.n_channels == 1
        assert np.all(clip.samples == 0.0)

    def test_fullscale_16bit_scaling(self, tmp_path):
        # integer-scaling oracle: value / 2^(bits-1)
        p = write(tmp_path, "f.wav", wav_bytes(struct.pack("<h", 32767) * 10))
        clip = load_wav(p)
        assert np.allclose(clip.samples, 32767 / 32768, atol=0)

    def test_negative_fullscale(self, tmp_path):
        p = write(tmp_path, "n.wav", wav_bytes(struct.pack("<h", -32768) * 4))
        assert np.all(load_wav(p).samples == -1.0)

    def test_stereo_channels_preserved(self, tmp_path):
        frames = struct.pack("<4h", 100, -200, 300, -400)  # L,R interleaved
        p = write(tmp_path, "st.wav", wav_bytes(frames, channels=2))
        clip = load_wav(p)
        assert clip.n_channels == 2
        assert clip.samples.shape == (2, 2)
        assert np.allclose(clip.samples[:, 0] * 32768, [100, 300])
        assert np.allclose(clip.samples[:, 1] * 32768, [-200, -400])

    def test_8bit_unsigned(self, tmp_path):
        p = write(tmp_path, "b8.wav", wav_bytes(bytes([128, 192, 64]), bits=8))
        clip = load_wav(p)
        assert np.allclose(clip.samples, [0.0, 0.5, -0.5])

    def test_24bit_scaling(self, tmp_path):
        val = 1 << 22  # 0.5 at 24-bit full scale 2^23
        frames = struct.pack("<I", val)[:3] + struct.pack("<i", -(1 << 23) & 0xFFFFFF)[:3]
        p = write(tmp_path, "b24.wav", wav_bytes(frames, bits=24))
        clip = load_wav(p)
        assert np.allclose(clip.samples, [0.5, -1.0])

    def test_float32_passthrough(self, tmp_path):
        frames = struct.pack("<3f", 0.25, -0.5, 1.0)
        p = write(tmp_path, "f32.wav", wav_bytes(frames, fmt_code=3, bits=32))
        assert np.allclose(load_wav(p).samples, [0.25, -0.5, 1.0])

    def test_non_pcm_rejected(self, tmp_path):
        p = write(tmp_path, "ulaw.wav", wav_bytes(b"\x00\x00", fmt_code=7))
        with pytest.raises(UnsupportedFormatError):
            load_wav(p)

    def test_corrupt_magic(self, tmp_path):
        p = write(tmp_path, "bad.wav", b"RIFX" + b"\x00" * 40)
        with pytest.raises(CorruptHeaderError):
            load_wav(p)

    def test_truncated_data_chunk(self, tmp_path):
        data = wav_bytes(b"\x00\x00" * 8)
        p = write(tmp_path, "tr.wav", data[:-4])
        with pytest.raises(CorruptHeaderError):
            load_wav(p)

    def test_empty_audio(self, tmp_path):
        p = write(tmp_path, "e.wav", wav_bytes(b""))
        with pytest.raises(EmptyAudioError):
            load_wav(p)

    def test_writer_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        x = np.round(rng.uniform(-0.9, 0.9, 200) * 32768) / 32768
        write_wav(tmp_path / "rt.wav", AudioClip(x, 8000))
        back = load_wav(tmp_path / "rt.wav")
        assert back.sample_rate_hz == 8000
        assert np.allclose(back.samples, x, atol=0)


def stereo_pcm(fmt_code: int, bits: int, n: int = 1001) -> bytes:
    """Interleaved stereo frames of seeded random samples, plus half a frame."""
    rng = np.random.default_rng(bits + fmt_code)
    if fmt_code == 3:
        frames = rng.uniform(-1, 1, (n, 2)).astype("<f4").tobytes()
    elif bits == 24:
        ints = rng.integers(-(1 << 23), 1 << 23, 2 * n)
        frames = b"".join(struct.pack("<i", v)[:3] for v in ints.tolist())
    else:
        dtype = np.dtype({8: "u1", 16: "<i2", 32: "<i4"}[bits])
        info = np.iinfo(dtype)
        frames = rng.integers(info.min, info.max, (n, 2), endpoint=True).astype(dtype).tobytes()
    return frames + b"\x01" * (bits // 8)  # a trailing partial frame is dropped


def reference_decode(data: bytes, fmt_code: int, bits: int, n_channels: int) -> np.ndarray:
    """Sample-by-sample decode with the standard library, the reference for load_wav."""
    width = bits // 8
    n = len(data) // (width * n_channels) * n_channels
    cells = [data[i * width:(i + 1) * width] for i in range(n)]
    if fmt_code == 3:
        values = [min(max(struct.unpack("<f", c)[0], -1.0), 1.0) for c in cells]
    elif bits == 8:
        values = [(c[0] - 128) / 128 for c in cells]
    else:
        values = [int.from_bytes(c, "little", signed=True) / 2 ** (bits - 1) for c in cells]
    return np.array(values).reshape(-1, n_channels)


class TestLoadWavChannel:
    @pytest.mark.parametrize("fmt_code, bits", [(1, 8), (1, 16), (1, 24), (1, 32), (3, 32)])
    @pytest.mark.parametrize("channel", ["left", "right", "RIGHT"])
    def test_one_channel_equals_select_channel_bitwise(self, tmp_path, fmt_code, bits, channel):
        data = stereo_pcm(fmt_code, bits)
        p = write(tmp_path, "st.wav", wav_bytes(data, fmt_code, 2, bits=bits))
        whole = load_wav(p)
        reference = reference_decode(data, fmt_code, bits, 2)
        assert whole.samples.tobytes() == reference.tobytes()
        expected = select_channel(whole, channel)
        one = load_wav(p, channel=channel)
        assert one.samples.shape == expected.samples.shape == (1001,)
        assert one.samples.tobytes() == expected.samples.tobytes()
        assert one.sample_rate_hz == expected.sample_rate_hz

    @pytest.mark.parametrize("fmt_code, bits", [(1, 8), (1, 16), (1, 24), (1, 32), (3, 32)])
    def test_stored_width_gives_the_float_clip_features_bitwise(
        self, tmp_path, monkeypatch, fmt_code, bits
    ):
        # a 150 Hz tone in noise on the right channel, random samples on the left
        sr, n = 8000, 12000
        rng = np.random.default_rng(bits)
        t = np.arange(n) / sr
        tone = 0.6 * np.sin(2 * np.pi * 150.0 * t) + 0.05 * rng.standard_normal(n)
        data = bytearray(stereo_pcm(fmt_code, bits, n)[: n * 2 * bits // 8])
        width = bits // 8
        if fmt_code == 3:
            right = tone.astype("<f4").tobytes()
        elif bits == 8:
            right = (np.round(tone * 127) + 128).astype("u1").tobytes()
        else:
            ints = np.round(tone * (2 ** (bits - 1) - 1)).astype("<i4")
            right = b"".join(struct.pack("<i", v)[:width] for v in ints.tolist())
        for i in range(n):
            data[(2 * i + 1) * width:(2 * i + 2) * width] = right[i * width:(i + 1) * width]
        p = write(tmp_path, "st.wav", wav_bytes(bytes(data), fmt_code, 2, sr=sr, bits=bits))
        clip = load_wav(p, channel="right")
        assert clip.stored.itemsize == {8: 1, 16: 2, 24: 4, 32: 4}[bits]
        assert clip.samples.tobytes() == reference_decode(right, fmt_code, bits, 1)[:, 0].tobytes()
        # 178 frames in blocks of 64: the last block overlaps its predecessor
        monkeypatch.setattr(speech_features, "CHUNK_FRAMES", 64)
        assert speech_features.feature_grid(clip).n_frames % 64
        floats = AudioClip(clip.samples, sr)
        for extract in (speech_features.f0_contour, speech_features.rms_energy,
                        speech_features.mfcc):
            got, want = extract(clip).values, extract(floats).values
            assert got.tobytes() == want.tobytes(), extract.__name__
        assert speech_features.f0_contour(clip).values.any()  # some frames are voiced

    def test_mono_file(self, tmp_path):
        p = write(tmp_path, "m.wav", wav_bytes(struct.pack("<3h", 100, -200, 300)))
        assert np.array_equal(load_wav(p, channel="left").samples, load_wav(p).samples)
        with pytest.raises(ChannelOutOfRangeError, match=rf"^{re.escape(str(p))}: .*right"):
            load_wav(p, channel="right")
        with pytest.raises(ChannelOutOfRangeError, match="left or right"):
            load_wav(p, channel="center")

    def test_one_channel_peak_memory(self, tmp_path):
        # the file bytes and the one float64 channel; the parent held 5x that
        n = 16000 * 20
        frames = np.random.default_rng(2).integers(-32768, 32768, (n, 2)).astype("<i2")
        p = write(tmp_path, "long.wav", wav_bytes(frames.tobytes(), channels=2))
        del frames
        tracemalloc.start()
        try:
            clip = load_wav(p, channel="right")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert clip.n_samples == n
        assert peak <= 2.5 * n * 8


class TestSelectChannel:
    def test_right_isolates_ramp(self):
        ramp = np.linspace(-0.5, 0.5, 50)
        clip = AudioClip(np.column_stack([np.zeros(50), ramp]), 8000)
        right = select_channel(clip, "right")
        assert right.n_channels == 1
        assert np.array_equal(right.samples, ramp)

    def test_mono_left_identity(self):
        clip = AudioClip(np.linspace(0, 0.1, 10), 8000)
        assert select_channel(clip, "left") is clip

    def test_left_bit_exact(self):
        # sample-compare oracle: stereo sine L / cosine R
        t = np.arange(400) / 8000.0
        sine, cosine = 0.7 * np.sin(2 * np.pi * 100 * t), 0.7 * np.cos(2 * np.pi * 100 * t)
        clip = AudioClip(np.column_stack([sine, cosine]), 8000)
        assert np.array_equal(select_channel(clip, "left").samples, sine)
        assert np.array_equal(select_channel(clip, "right").samples, cosine)

    def test_right_on_mono_rejected(self):
        with pytest.raises(ChannelOutOfRangeError):
            select_channel(AudioClip(np.zeros(8), 8000), "right")

    def test_unknown_channel_name(self):
        with pytest.raises(ChannelOutOfRangeError):
            select_channel(AudioClip(np.zeros(8), 8000), "center")


class TestTrimHead:
    def test_four_second_default(self):
        clip = AudioClip(np.zeros(10 * 8000), 8000)
        out = trim_head(clip)
        assert out.duration_s == pytest.approx(6.0)
        assert out.start_s == pytest.approx(4.0)

    def test_zero_identity(self):
        clip = AudioClip(np.zeros(100), 8000)
        assert trim_head(clip, 0.0) is clip

    def test_trim_exceeds_duration(self):
        with pytest.raises(TrimExceedsDurationError):
            trim_head(AudioClip(np.zeros(3 * 8000), 8000), 4.0)

    def test_commutes_with_select_channel(self):
        rng = np.random.default_rng(11)
        stereo = rng.uniform(-1, 1, (8000, 2))
        clip = AudioClip(stereo, 8000)
        a = trim_head(select_channel(clip, "right"), 0.25)
        b = select_channel(trim_head(clip, 0.25), "right")
        assert np.array_equal(a.samples, b.samples)
        assert a.start_s == b.start_s


MARKER_CSV = """# rate_hz=120.0
time_s,M1_x,M1_y,M1_z
0.0,1.0,2.0,3.0
0.008333333333333333,1.5,2.0,3.0
"""


class TestLoadMarkers:
    def test_minimal_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(MARKER_CSV)
        track = load_markers(p)
        assert track.columns == ("M1_x", "M1_y", "M1_z")
        assert track.n_frames == 2
        assert track.values[1, 0] == 1.5

    def test_blank_cell_is_dropout(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(MARKER_CSV.replace("1.5,2.0", ",2.0"))
        track = load_markers(p)
        assert math.isnan(track.values[1, 0])
        assert track.values[1, 1] == 2.0

    def test_row_count_oracle(self, tmp_path):
        # 120 rows at 120 Hz span 1.0 s within one frame period
        rows = [f"{i/120.0!r},0.0,0.0,0.0" for i in range(120)]
        p = tmp_path / "m.csv"
        p.write_text("# rate_hz=120.0\ntime_s,M1_x,M1_y,M1_z\n" + "\n".join(rows) + "\n")
        track = load_markers(p)
        assert track.n_frames == 120
        assert abs(track.grid.duration_s - 1.0) <= 1.0 / 120.0

    def test_inconsistent_marker_set(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("# rate_hz=120.0\ntime_s,M1_x,M1_y\n0.0,1,2\n")
        with pytest.raises(InconsistentMarkerSetError):
            load_markers(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(MARKER_CSV.replace("1.5", "abc"))
        with pytest.raises(MalformedRowError):
            load_markers(p)

    def test_non_monotone_time(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(MARKER_CSV.replace("0.008333333333333333", "0.0"))
        with pytest.raises(NonMonotoneTimeError):
            load_markers(p)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        pos = rng.uniform(-100, 100, (40, 9))
        pos[rng.uniform(size=pos.shape) < 0.1] = np.nan
        from speechmotion.frames import FeatureTrack, FrameGrid, write_feature_csv

        columns = tuple(f"{m}_{axis}" for m in "ABC" for axis in "xyz")
        track = FeatureTrack(FrameGrid(120.0, 0.0, 40), columns, pos)
        write_feature_csv(track, tmp_path / "rt.csv")
        back = load_markers(tmp_path / "rt.csv")
        assert back.columns == track.columns
        assert back.grid == track.grid
        finite = np.isfinite(pos)
        assert np.array_equal(np.isfinite(back.values), finite)
        assert np.array_equal(back.values[finite], pos[finite])


STREAM_REGIONS = {"a": ("M0", "M1"), "b": ("M2",), "all": ("M0", "M1", "M2")}


def marker_lines(n_rows: int, dropouts=(), seed: int = 0) -> list[str]:
    """Data lines of a 120 Hz, three-marker random walk; marker k of row i
    is a dropout (three empty cells) for each (i, k) in `dropouts`."""
    pos = np.cumsum(np.random.default_rng(seed).standard_normal((n_rows, 9)), axis=0)
    lines = []
    for i, row in enumerate(pos.tolist()):
        cells = [repr(i / 120.0)] + [repr(v) for v in row]
        for r, k in dropouts:
            if r == i:
                cells[1 + 3 * k:4 + 3 * k] = ["", "", ""]
        lines.append(",".join(cells))
    return lines


def write_markers(path, lines, blank_lines: bool = False, crlf: bool = False):
    """A marker CSV of `lines`, with a blank line after every third data
    line and CRLF line ends if asked."""
    body = []
    for i, line in enumerate(lines):
        body.append(line)
        if blank_lines and i % 3 == 2:
            body.append("")
    text = "\n".join(["# rate_hz=120.0", "time_s," + ",".join(
        f"M{k}_{axis}" for k in range(3) for axis in "xyz"
    )] + body) + "\n"
    path.write_bytes(text.replace("\n", "\r\n" if crlf else "\n").encode())
    return path


def whole_track_activeness(path):
    return motion.region_activeness(motion.displacement_magnitudes(load_markers(path)), STREAM_REGIONS)


class TestMarkerActiveness:
    """The streamed marker path against the whole-track one, with row blocks
    of 4 frames and chunks from one line to the whole file, so that both
    kinds of edge fall inside the tables."""

    # dropouts on the last row of a batch or block and on the first of the
    # next: the stream's batches end after rows 4, 8, 12 ..., the whole-track
    # blocks after rows 3, 7, 11 ...
    EDGE_DROPOUTS = ((3, 0), (4, 0), (4, 1), (5, 1), (8, 2), (9, 2), (9, 0), (12, 1))

    @pytest.mark.parametrize("scan_chars", [1, 200, 1 << 16])
    @pytest.mark.parametrize("layout", ["plain", "blank_lines", "crlf", "blank_lines_crlf"])
    @pytest.mark.parametrize("n_rows", [2, 3, 4, 5, 6, 9, 10, 13, 40])
    def test_equals_the_whole_track_bit_for_bit(
        self, tmp_path, monkeypatch, n_rows, layout, scan_chars
    ):
        monkeypatch.setattr(motion, "ROW_BLOCK", 4)
        monkeypatch.setattr(frames, "SCAN_CHARS", scan_chars)
        lines = marker_lines(n_rows, [d for d in self.EDGE_DROPOUTS if d[0] < n_rows])
        p = write_markers(tmp_path / "m.csv", lines, "blank" in layout, "crlf" in layout)
        got, want = load_marker_activeness(p, STREAM_REGIONS), whole_track_activeness(p)
        assert got.grid == want.grid and got.columns == want.columns
        assert got.values.tobytes() == want.values.tobytes()

    def test_default_blocks_over_several_batches(self, tmp_path):
        n = 2 * motion.ROW_BLOCK + 123
        dropouts = [(motion.ROW_BLOCK, 0), (motion.ROW_BLOCK + 1, 1), (n - 1, 2)]
        p = write_markers(tmp_path / "m.csv", marker_lines(n, dropouts))
        got, want = load_marker_activeness(p, STREAM_REGIONS), whole_track_activeness(p)
        assert got.grid == want.grid
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("fault", [
        "non_numeric", "short_row", "infinite", "off_grid", "beyond_bound",
    ])
    def test_a_fault_in_a_later_block_is_named_as_load_markers_names_it(
        self, tmp_path, monkeypatch, fault
    ):
        lines = marker_lines(40)
        cells = lines[30].split(",")  # file line 33
        if fault == "non_numeric":
            cells[4] = "abc"
        elif fault == "short_row":
            cells.pop()
        elif fault == "infinite":
            cells[5] = "-inf"
        elif fault == "off_grid":
            cells[0] = repr(30.6 / 120.0)
        else:
            cells[6] = "2500.0"
        lines[30] = ",".join(cells)
        p = write_markers(tmp_path / "m.csv", lines)
        with pytest.raises(Exception) as today:
            load_markers(p)
        monkeypatch.setattr(motion, "ROW_BLOCK", 4)
        monkeypatch.setattr(frames, "SCAN_CHARS", 200)
        with pytest.raises(type(today.value)) as streamed:
            load_marker_activeness(p, STREAM_REGIONS)
        assert isinstance(today.value, (MalformedRowError, OffGridTimeError, ValueOutOfRangeError))
        assert str(streamed.value) == str(today.value)
        assert str(streamed.value).startswith(f"{p}:33: ")

    def test_the_bound_is_checked_after_the_times(self, tmp_path):
        # as load_markers orders its checks: an off-grid time on a later line wins
        lines = marker_lines(20)
        lines[2] = lines[2].replace(lines[2].split(",")[3], "-2500.0", 1)
        lines[15] = repr(15.6 / 120.0) + lines[15][lines[15].index(","):]
        p = write_markers(tmp_path / "m.csv", lines)
        with pytest.raises(OffGridTimeError, match=rf"^{re.escape(str(p))}:18: "):
            load_marker_activeness(p, STREAM_REGIONS)

    def test_header_and_region_faults(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("# rate_hz=120.0\ntime_s,M1_x,M1_y\n0.0,1,2\n")
        with pytest.raises(InconsistentMarkerSetError, match=rf"^{re.escape(str(p))}: "):
            load_marker_activeness(p, STREAM_REGIONS)
        p = write_markers(tmp_path / "m.csv", marker_lines(5))
        with pytest.raises(UnknownMarkerInMapError):
            load_marker_activeness(p, {"a": ("M0", "M9")})

    def test_one_row_is_too_few(self, tmp_path):
        p = write_markers(tmp_path / "m.csv", marker_lines(1))
        with pytest.raises(TooFewFramesError) as today:
            whole_track_activeness(p)
        with pytest.raises(TooFewFramesError) as streamed:
            load_marker_activeness(p, STREAM_REGIONS)
        assert str(streamed.value) == str(today.value)


class TestTranscript:
    def test_single_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0.0 2.0 F\n")
        iv = load_transcript_intervals(p)
        assert iv.entries == (Interval(0.0, 2.0, "F"),)

    def test_cross_speaker_overlap_preserved(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 2 F\n1 3 M\n")
        iv = load_transcript_intervals(p)
        assert len(iv.entries) == 2
        assert iv.entries[0].speaker == "F"
        assert iv.entries[1].start_s == 1.0

    def test_comments_and_sorting(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("# header\n3 4 F  # trailing\n0 1 M\n")
        iv = load_transcript_intervals(p)
        assert [e.speaker for e in iv.entries] == ["M", "F"]

    def test_inverted_interval(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("2 1 F\n")
        with pytest.raises(InvertedIntervalError):
            load_transcript_intervals(p)

    def test_same_speaker_overlap(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 2 F\n1 3 F\n")
        with pytest.raises(SameSpeakerOverlapError):
            load_transcript_intervals(p)

    def test_inverted_interval_names_its_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 1 M\n# a comment\n4 3 F\n")
        with pytest.raises(InvertedIntervalError, match=rf"^{re.escape(str(p))}:3: "):
            load_transcript_intervals(p)

    def test_same_speaker_overlap_names_the_later_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 2 F\n1.5 2.5 M\n\n1 3 F\n")
        with pytest.raises(SameSpeakerOverlapError, match=rf"^{re.escape(str(p))}:4: "):
            load_transcript_intervals(p)

    def test_same_speaker_touching_ok(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 2 F\n2 3 F\n")
        assert len(load_transcript_intervals(p).entries) == 2

    def test_validator_idempotent(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 2 F\n1 3 M\n2.5 4 F\n")
        iv = load_transcript_intervals(p)
        again = SpeechIntervals(iv.entries)  # re-validating sorted output passes
        assert again.entries == iv.entries

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 2\n")
        with pytest.raises(MalformedRowError):
            load_transcript_intervals(p)


EMOTION_CSV = """# rate_hz=10.0
time_s,arousal,valence,category,confidence
0.0,0.5,-0.2,Happy,0.9
0.1,0.4,-0.1,Sad,0.8
"""


class TestEmotion:
    def test_verbatim_storage(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text(EMOTION_CSV)
        track = load_emotion_frames(p)
        assert track.columns == ("arousal", "valence", "category")
        assert track.column("arousal")[0] == 0.5
        assert track.column("valence")[0] == -0.2
        assert track.column("category")[0] == 1.0  # Happy
        assert track.column("category")[1] == 2.0  # Sad

    def test_out_of_range_arousal(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text(EMOTION_CSV.replace("0.5", "1.3"))
        with pytest.raises(ValueOutOfRangeError):
            load_emotion_frames(p)

    def test_unknown_category(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text(EMOTION_CSV.replace("Happy", "Bored"))
        with pytest.raises(UnknownCategoryError):
            load_emotion_frames(p)

    def test_row_count_oracle(self, tmp_path):
        rows = "\n".join(f"{i/10.0!r},0.0,0.0,Neutral,1.0" for i in range(10))
        p = tmp_path / "e.csv"
        p.write_text("# rate_hz=10.0\ntime_s,arousal,valence,category,confidence\n" + rows + "\n")
        track = load_emotion_frames(p)
        assert track.n_frames == 10
        assert track.grid.duration_s == pytest.approx(1.0)


class TestAudioClipInvariants:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([1.5]), 8000)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([np.nan]), 8000)

    def test_duration(self):
        clip = AudioClip(np.zeros(4000), 8000)
        assert clip.duration_s == 0.5
