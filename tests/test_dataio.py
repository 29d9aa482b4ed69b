"""File formats, domain types, and report round trips."""

import json
import math
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwloss import dataio, stats
from cpwloss.errors import DataError, ParseError
from cpwloss.filmchar import TcResult
from cpwloss.lossbudget import DecomposeResult


def write(path, text):
    path.write_text(text)
    return str(path)


def sweep_text(n=40, header_lines=("#power_dbm=-80", "#attenuation_db=60")):
    lines = list(header_lines)
    lines.append("frequency_hz s21_real s21_imag")
    for k in range(n):
        f = 5e9 + 1e3 * k
        lines.append(f"{f:.12g} {0.9:.12g} {0.01:.12g}")
    return "\n".join(lines) + "\n"


def big_sweep(n=100_000):
    rng = np.random.default_rng(5)
    return dataio.ComplexSweep(frequency_hz=5e9 + 10.0 * np.arange(n),
                               s21=rng.normal(size=n) + 1j * rng.normal(size=n))


def float_sweep(text):
    """(f, s21) of a complex sweep file's text by float() of each cell,
    row by row, s21 being a + 1j * b."""
    rows = [[float(tok) for tok in line.split()] for line in text.splitlines()
            if line.split() and not line.startswith(("#", "f"))]
    f, a, b = np.array(rows).T
    return f, a + 1j * b


class TestSweepParsing:
    def test_complex_round_trip(self, tmp_path):
        path = write(tmp_path / "s.dat", sweep_text())
        s = dataio.parse_sweep_file(path)
        assert s.frequency_hz.size == 40
        assert s.power_dbm == -80.0
        assert s.attenuation_db == 60.0
        assert s.source == path
        out = tmp_path / "round.dat"
        dataio.write_sweep_file(str(out), s)
        s2 = dataio.parse_sweep_file(str(out))
        np.testing.assert_allclose(s2.frequency_hz, s.frequency_hz, rtol=1e-12)
        np.testing.assert_allclose(s2.s21, s.s21, rtol=1e-12)
        assert s2.power_dbm == s.power_dbm

    def test_repeated_frequency_prints_plain_numbers(self, tmp_path):
        text = replace_line(sweep_text(), 6, "5000001000 0.9 0.01")
        with pytest.raises(ParseError) as err:
            dataio.parse_sweep_file(write(tmp_path / "s.dat", text))
        assert ("row 3 (5000001000.0) does not exceed row 2 (5000001000.0)"
                in str(err.value))
        assert "np.float64" not in str(err.value)

    def test_db_phase_format(self, tmp_path):
        lines = ["#format=db_phase", "frequency_hz s21_mag_db s21_phase_rad"]
        for k in range(35):
            lines.append(f"{4e9 + k * 1e3:.12g} -3.0 0.5")
        path = write(tmp_path / "dp.dat", "\n".join(lines) + "\n")
        s = dataio.parse_sweep_file(path)
        expect = 10 ** (-3.0 / 20.0) * np.exp(0.5j)
        np.testing.assert_allclose(s.s21, expect, rtol=1e-12)

    def test_process_header(self, tmp_path):
        path = write(tmp_path / "s.dat",
                     sweep_text(header_lines=("#process=B/HP/HT/BOE",)))
        s = dataio.parse_sweep_file(path)
        assert s.process == dataio.ProcessKey("B", "HP", "HT", "BOE")
        assert s.process.expected

    def test_error_line_numbers(self, tmp_path):
        text = sweep_text()
        broken = text.replace("5000039000 0.9 0.01", "5000039000 0.9 banana")
        path = write(tmp_path / "bad.dat", broken)
        with pytest.raises(ParseError) as err:
            dataio.parse_sweep_file(path)
        assert "banana" in str(err.value)
        assert ":43:" in str(err.value)  # 2 header + 1 names + 40 rows

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_header_number_rejected(self, tmp_path, value):
        path = write(tmp_path / "s.dat", sweep_text(
            header_lines=("#power_dbm=-80", f"#attenuation_db={value}")))
        with pytest.raises(ParseError) as err:
            dataio.parse_sweep_file(path)
        assert err.value.line == 2
        assert str(err.value).endswith(f"header 'attenuation_db={value}' "
                                       f"is not a finite number")

    @pytest.mark.parametrize("line, message", [
        ("#attenuation_db=sixty", "header 'attenuation_db=sixty' is not a finite number"),
        ("#format=bogus", "unknown format 'bogus'"),
        ("#process=Z/HP/HT/none", "unknown deposition 'Z'"),
    ], ids=["number", "format", "process"])
    def test_header_errors_name_their_line(self, tmp_path, line, message):
        path = write(tmp_path / "s.dat", sweep_text(
            header_lines=("#power_dbm=-80", "", "#chip_id=C1", line, "#resonator_id=R0")))
        with pytest.raises(ParseError) as err:
            dataio.parse_sweep_file(path)
        assert err.value.line == 4
        assert str(err.value).startswith(f"{path}:4: {message}")

    def test_header_after_data_rejected(self, tmp_path):
        text = sweep_text() + "#late_key=1\n"
        path = write(tmp_path / "late.dat", text)
        with pytest.raises(ParseError):
            dataio.parse_sweep_file(path)

    def test_names_row_after_data_is_a_bad_line(self, tmp_path):
        # without a names row before the data, a later one is not adopted
        text = sweep_text().replace(NAMES + "\n", "")
        text = replace_line(text, 20, NAMES)
        path = write(tmp_path / "late_names.dat", text)
        with pytest.raises(ParseError) as err:
            dataio.parse_sweep_file(path)
        assert str(err.value) == (f"{path}:20: column 'frequency_hz': "
                                  f"cannot parse 'frequency_hz' as a number")

    def test_too_few_points(self, tmp_path):
        path = write(tmp_path / "tiny.dat", sweep_text(n=10))
        with pytest.raises(ParseError):
            dataio.parse_sweep_file(path)

    def test_non_monotonic_frequency(self, tmp_path):
        lines = ["frequency_hz s21_real s21_imag"]
        for k in range(40):
            lines.append(f"{5e9 - k * 1e3:.12g} 0.9 0.0")
        path = write(tmp_path / "rev.dat", "\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            dataio.parse_sweep_file(path)

    @pytest.mark.parametrize("parse, names, row", [
        (dataio.parse_sweep_file, "frequency_hz s21_real s21_imag",
         lambda k: f"{5e9 + 1e3 * k:.12g} 0.9 0.01"),
        (dataio.parse_rt_file, "temperature_k resistance_ohm",
         lambda k: f"{2.0 + k:.12g} 25"),
        (dataio.parse_xrd_file, "two_theta_deg counts",
         lambda k: f"{30.0 + 0.5 * k:.12g} 100"),
    ], ids=["sweep", "rt", "xrd"])
    def test_non_increasing_row_names_its_line(self, tmp_path, parse, names, row):
        # blank lines hold no row: row 31 repeats row 30 and sits on
        # line 35, after a header line, the names row and two blank lines
        rows = [row(k) for k in range(40)]
        rows[30] = row(29)
        lines = ["#chip_id=C1", names] + rows[:10] + [""] + rows[10:20] + [""] + rows[20:]
        path = write(tmp_path / "rev.dat", "\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            parse(path)
        assert err.value.line == 35
        assert "row 31 (" in str(err.value) and "does not exceed row 30" in str(err.value)

    def test_parse_peak_memory(self, tmp_path):
        # the reader must hold no Python object per cell or per line: one
        # str and one float per cell took 10x the file size at this row
        # length, and one str per line 3.9x
        path = tmp_path / "big.dat"
        dataio.write_sweep_file(path, big_sweep())
        tracemalloc.start()
        try:
            dataio.parse_sweep_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size
        # f and s21 (24 bytes a row) are filled chunk by chunk: 1.22x them,
        # their 1/32 spare and one 16,384-line chunk of rows, where one
        # np.loadtxt of the whole rows x 3 block took 1.38x as it grew it
        assert peak < 1.3 * 100_000 * 3 * 8

    def test_complex_s21_bits(self, tmp_path):
        # s21 is a + 1j * b to the bit, signed zeros included: that sum
        # turns an imaginary -0 into +0, and np.angle of a negative real
        # part reads the sign of that zero (pi or -pi)
        cells = [(a, b) for a in ("0", "-0", "-1.5", "2.5")
                 for b in ("0", "-0", "-1.5", "2.5")] * 3
        lines = ["frequency_hz s21_real s21_imag"]
        lines += [f"{5e9 + 1e3 * k:.12g} {a} {b}" for k, (a, b) in enumerate(cells)]
        s = dataio.parse_sweep_file(write(tmp_path / "zeros.dat", "\n".join(lines) + "\n"))
        a, b = np.array(cells, dtype=float).T
        assert s.s21.tobytes() == (a + 1j * b).tobytes()

    def test_write_peak_memory(self, tmp_path):
        # the writer must not stack whole columns or format them at once:
        # that took 3.1x the file size, and the stacked copy alone is
        # 0.58x at this row length
        sweep = big_sweep()
        path = tmp_path / "big.dat"
        tracemalloc.start()
        try:
            dataio.write_sweep_file(path, sweep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * path.stat().st_size

    def test_unknown_header_keys_preserved(self, tmp_path):
        path = write(tmp_path / "s.dat",
                     sweep_text(header_lines=("#vna=ZNB20", "#operator=ak")))
        s = dataio.parse_sweep_file(path)
        assert s.header["vna"] == "ZNB20"
        out = str(tmp_path / "echo.dat")
        dataio.write_sweep_file(out, s)
        s2 = dataio.parse_sweep_file(out)
        assert s2.header["vna"] == "ZNB20"
        assert s2.header["operator"] == "ak"


class TestOtherParsers:
    def test_rt_file(self, tmp_path):
        lines = ["temperature_k resistance_ohm"]
        for k in range(20):
            lines.append(f"{2.0 + k:.12g} {25.0 + k:.12g}")
        path = write(tmp_path / "rt.dat", "\n".join(lines) + "\n")
        rt = dataio.parse_rt_file(path)
        assert rt.temperature_k.size == 20
        out = str(tmp_path / "rt2.dat")
        dataio.write_rt_file(out, rt)
        rt2 = dataio.parse_rt_file(out)
        np.testing.assert_allclose(rt2.resistance_ohm, rt.resistance_ohm)

    def test_rt_negative_resistance(self, tmp_path):
        lines = ["temperature_k resistance_ohm"] + \
            [f"{2.0 + k} {-1.0}" for k in range(10)]
        path = write(tmp_path / "neg.dat", "\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            dataio.parse_rt_file(path)

    def test_xrd_file(self, tmp_path):
        lines = ["two_theta_deg counts"]
        for k in range(30):
            lines.append(f"{30.0 + 0.5 * k:.12g} {100 + k}")
        path = write(tmp_path / "x.dat", "\n".join(lines) + "\n")
        scan = dataio.parse_xrd_file(path)
        assert scan.counts.size == 30

    def test_xrd_range_check(self, tmp_path):
        lines = ["two_theta_deg counts"] + \
            [f"{5.0 + k} 10" for k in range(10)]  # starts below 10 degrees
        path = write(tmp_path / "x.dat", "\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            dataio.parse_xrd_file(path)

    def test_sheet_file(self, tmp_path):
        lines = ["#batch_id=W03", "wafer_id site r_square_ohm_sq"]
        for wafer in ("w1", "w2"):
            for s in range(1, 10):
                lines.append(f"{wafer} {s} {11.0 + 0.1 * s:.12g}")
        path = write(tmp_path / "sh.dat", "\n".join(lines) + "\n")
        maps = dataio.parse_sheet_file(path)
        assert len(maps) == 2
        assert all(len(m.sites) == 9 for m in maps)
        assert maps[0].batch_id == "W03"

    def test_sheet_wrong_site_count(self, tmp_path):
        lines = ["wafer_id site r_square_ohm_sq"]
        for s in range(1, 8):  # only 7 sites
            lines.append(f"w1 {s} 11.0")
        path = write(tmp_path / "sh.dat", "\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            dataio.parse_sheet_file(path)
        assert "9" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            dataio.parse_sweep_file(str(tmp_path / "nope.dat"))

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "empty.dat", "")
        with pytest.raises(ParseError):
            dataio.parse_sweep_file(path)


NAMES = "frequency_hz s21_real s21_imag"


def replace_line(text, lineno, new):
    lines = text.split("\n")
    lines[lineno - 1] = new
    return "\n".join(lines)


# Single-defect sweep files (sweep_text: 2 header lines, names on line 3,
# data on lines 4-43) with the line and message each must be reported at.
DEFECTS = [
    ("bad_cell", replace_line(sweep_text(), 10, "5000006000 0.9 banana"),
     10, "column 's21_imag': cannot parse 'banana' as a number"),
    ("bad_first_cell", replace_line(sweep_text(), 4, "x5e9 0.9 0.01"),
     4, "column 'frequency_hz': cannot parse 'x5e9' as a number"),
    ("too_few_columns", replace_line(sweep_text(), 20, "5000016000 0.9"),
     20, "expected 3 columns, got 2"),
    ("too_many_columns", replace_line(sweep_text(), 43, "5000039000 0.9 0.01 7"),
     43, "expected 3 columns, got 4"),
    ("header_after_data", sweep_text() + "#late_key=1\n",
     44, "header line after data block"),
    ("comment_inside_data", replace_line(sweep_text(), 30, "# pause"),
     30, "header line after data block"),
    ("nan_cell", replace_line(sweep_text(), 5, "5000001000 nan 0.01"),
     5, "column 's21_real': non-finite value 'nan'"),
    ("inf_cell", replace_line(sweep_text(), 40, "5000036000 0.9 -inf"),
     40, "column 's21_imag': non-finite value '-inf'"),
    ("wrong_names", replace_line(sweep_text(), 3, "frequency_hz re im"),
     3, f"expected columns {NAMES}, got frequency_hz re im"),
    ("no_data_rows", "#power_dbm=-80\n" + NAMES + "\n\n",
     1, "no data rows"),
    ("bad_cell_without_names", replace_line(sweep_text().replace(NAMES + "\n", ""), 9,
                                            "5000006000 0.9 1e"),
     9, "column 's21_imag': cannot parse '1e' as a number"),
    ("malformed_header", replace_line(sweep_text(), 2, "#attenuation_db 60"),
     2, "malformed header line '#attenuation_db 60'"),
]


class TestReaderParity:
    @pytest.mark.parametrize("text,line,message",
                             [d[1:] for d in DEFECTS], ids=[d[0] for d in DEFECTS])
    def test_single_defect(self, tmp_path, text, line, message):
        path = write(tmp_path / "bad.dat", text)
        with pytest.raises(ParseError) as err:
            dataio.parse_sweep_file(path)
        assert err.value.line == line
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_rt_bad_cell(self, tmp_path):
        lines = ["temperature_k resistance_ohm"] + [f"{2.0 + k} 25" for k in range(10)]
        lines[6] = "7.0 ohm"
        path = write(tmp_path / "rt.dat", "\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            dataio.parse_rt_file(path)
        assert str(err.value) == (f"{path}:7: column 'resistance_ohm': "
                                  f"cannot parse 'ohm' as a number")

    @pytest.mark.parametrize("transform", [
        lambda t: replace_line(t, 20, "\n" + t.split("\n")[19] + "\n  \t"),
        lambda t: t.replace(NAMES + "\n", ""),
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace(" 0.01\n", "\x0c0.01\n"),
        lambda t: t.replace("\n5000001000 ", "\n5_000_001_000 "),
        lambda t: t.replace(" 0.01\n", " \u0660.\u0660\u0661\n", 1),
    ], ids=["blank_lines_inside", "no_names_row", "crlf", "form_feed",
            "underscores", "arabic_indic_digits"])
    def test_accepted_variants(self, tmp_path, transform):
        # reference: float() of each cell of the clean file, row by row
        ref = np.array([[float(tok) for tok in line.split()]
                        for line in sweep_text().split("\n")[3:] if line])
        text = transform(sweep_text())
        assert text != sweep_text()
        path = tmp_path / "variant.dat"
        path.write_bytes(text.encode())
        s = dataio.parse_sweep_file(str(path))
        assert s.frequency_hz.tobytes() == ref[:, 0].tobytes()
        assert s.s21.tobytes() == (ref[:, 1] + 1j * ref[:, 2]).tobytes()

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        # files are read with universal newlines: a lone \r ends a line
        # as \n does, so data row 2 (line 5) ending in one leaves 40 rows,
        # and a bad cell on line 13 is reported there
        def cr_after_line_5(lines):
            return ("\n".join(lines[:5]) + "\r" + "\n".join(lines[5:])).encode()

        lines = sweep_text().split("\n")
        path = tmp_path / "cr.dat"
        path.write_bytes(cr_after_line_5(lines))
        s = dataio.parse_sweep_file(str(path))
        f, s21 = float_sweep(sweep_text())
        assert s.frequency_hz.tobytes() == f.tobytes()
        assert s.s21.tobytes() == s21.tobytes()
        lines[12] = "5000009000 0.9 oops"
        path.write_bytes(cr_after_line_5(lines))
        with pytest.raises(ParseError) as err:
            dataio.parse_sweep_file(str(path))
        assert str(err.value) == f"{path}:13: column 's21_imag': cannot parse 'oops' as a number"

    def test_line_numbers_count_newlines_only(self, tmp_path):
        # \x1c and \u2028 separate cells but do not end a line
        text = replace_line(sweep_text(), 8, "5000004000\x1c0.9\u20280.01")
        text = replace_line(text, 12, "5000008000 0.9 oops")
        path = tmp_path / "sep.dat"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError) as err:
            dataio.parse_sweep_file(str(path))
        assert err.value.line == 12


def reference_columns(path, lines, start, names):
    """float() of each cell, row by row, raising the reader's ParseError."""
    rows = []
    for i in range(start, len(lines)):
        tokens = lines[i].split()
        if not tokens:
            continue
        if tokens[0].startswith("#"):
            raise ParseError(path, i + 1, "header line after data block")
        if len(tokens) != len(names):
            raise ParseError(path, i + 1,
                             f"expected {len(names)} columns, got {len(tokens)}")
        row = []
        for name, tok in zip(names, tokens):
            try:
                value = float(tok)
            except ValueError:
                raise ParseError(path, i + 1, f"column '{name}': cannot parse "
                                              f"'{tok}' as a number") from None
            if not math.isfinite(value):
                raise ParseError(path, i + 1, f"column '{name}': non-finite value '{tok}'")
            row.append(value)
        rows.append(row)
    return [np.array(col) for col in zip(*rows)]


def check_against_reference(path, header_lines, data, names):
    """Write header and data lines to path, read them with read_columns
    and require the float() reference's columns, bit for bit, or its
    ParseError line and message."""
    lines = header_lines + data
    path.write_bytes("\n".join(lines).encode() + b"\n")
    try:
        want = reference_columns(str(path), lines, len(header_lines), names)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            dataio.read_columns(str(path), names)
        assert (err.value.line, str(err.value)) == (exc.line, str(exc))
        return
    _, got, first = dataio.read_columns(str(path), names)
    assert first == len(header_lines) + 1
    assert len(got) == len(names)
    for g, w in zip(got, want):
        assert g.dtype == np.float64
        assert g.tobytes() == w.tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBER = st.one_of(FINITE.map(lambda x: f"{x:.12g}"), FINITE.map(repr),
                   st.sampled_from(["1_000", "\u0661"]))
CELL = st.one_of(NUMBER, NUMBER, NUMBER, st.sampled_from(["nan", "-inf", "1e"]))
SEPARATORS = st.sampled_from([" ", "\t", "\x0c", "\x1c", "\u2028"])
GAP = st.lists(SEPARATORS, min_size=1, max_size=2).map("".join)
EDGE = st.lists(SEPARATORS, max_size=2).map("".join)


@st.composite
def data_blocks(draw):
    """(names, lines): a first line of numbers, where the header scan
    stops, then rows, blank lines, # lines and ragged rows."""
    names = tuple(f"c{k}" for k in range(draw(st.integers(1, 4))))

    def line(first):
        kinds = ["row"] * 4 + (["ragged"] if first else ["blank", "comment", "ragged"])
        kind = draw(st.sampled_from(kinds))
        ncell = {"row": len(names), "blank": 0, "comment": 1,
                 "ragged": len(names) + draw(st.sampled_from([-1, 1]))}[kind]
        cells = [draw(NUMBER if first else CELL) for _ in range(max(ncell, first))]
        if kind == "comment":
            cells[0] = "#" + cells[0]
        text = draw(EDGE)
        for k, cell in enumerate(cells):
            text += (draw(GAP) if k else "") + cell
        return text + draw(EDGE)

    return names, [line(True)] + [line(False) for _ in range(draw(st.integers(0, 6)))]


@settings(max_examples=300, deadline=None)
@given(data_blocks())
def test_float_columns_matches_float_reference(tmp_path_factory, block):
    names, data = block
    path = tmp_path_factory.getbasetemp() / "block.dat"
    check_against_reference(path, ["#power_dbm=-80", ""], data, names)


@pytest.mark.parametrize("defect", [
    lambda f, a, b: f"{f} 1_000 {b}",
    lambda f, a, b: "# pause",
    lambda f, a, b: f"{f} {a}",
    lambda f, a, b: f"{f} {a} nan",
], ids=["underscores", "comment", "ragged", "nan"])
def test_defect_past_first_chunk(tmp_path, defect):
    # a 2 MB block spans many of the file's read buffers and several
    # growths of numpy's result; a defect near its end must still give
    # the float() reference's values or error
    n = 50_000
    data = [f"{5e9 + 10.0 * k:.12g} {math.sin(k):.12g} {math.cos(k):.12g}"
            for k in range(n)]
    data[n - 7] = defect(*data[n - 7].split())
    path = tmp_path / "big.dat"
    check_against_reference(path, ["#plot=big"], data, ("f", "a", "b"))
    assert path.stat().st_size >= 2_000_000


CHUNK = 40


class TestChunkBoundaries:
    """read_columns reads the data block in chunks of _READ_CHUNK_LINES
    lines; here a chunk is 40 lines, so every sweep crosses a boundary
    and must read as the float() reference does, bit for bit."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(dataio, "_READ_CHUNK_LINES", CHUNK)

    @pytest.fixture
    def chunks_only(self, monkeypatch):
        """Fail the test if the line-by-line float() walk reads a cell."""
        def walked(*args):
            raise AssertionError("read by the float() walk, not in chunks")
        monkeypatch.setattr(dataio, "_float_cell", walked)

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK])
    def test_row_counts(self, tmp_path, chunks_only, n):
        text = sweep_text(n)
        s = dataio.parse_sweep_file(write(tmp_path / "s.dat", text))
        f, s21 = float_sweep(text)
        assert s.frequency_hz.tobytes() == f.tobytes()
        assert s.s21.tobytes() == s21.tobytes()
        for arr in (s.frequency_hz, s.s21):
            assert arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable

    @pytest.mark.parametrize("row", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_blank_lines_across_a_boundary(self, tmp_path, chunks_only, row):
        # blank and white-space lines after data row `row` fill the end of
        # one chunk and the start of the next
        lines = sweep_text(2 * CHUNK).split("\n")
        lines[3 + row:3 + row] = ["", " \t", "", "\x0c"]
        text = "\n".join(lines)
        s = dataio.parse_sweep_file(write(tmp_path / "s.dat", text))
        f, s21 = float_sweep(sweep_text(2 * CHUNK))
        assert s.frequency_hz.tobytes() == f.tobytes()
        assert s.s21.tobytes() == s21.tobytes()

    def test_later_rows_longer_than_the_first(self, tmp_path, chunks_only):
        # the arrays are sized from the first chunk's bytes per row; rows
        # twice as long after it make them grow, and the values stay the same
        lines = sweep_text(5 * CHUNK).split("\n")
        for i in range(3 + CHUNK, 3 + 5 * CHUNK):
            lines[i] = "    ".join(lines[i].split()) + "   "
        text = "\n".join(lines)
        s = dataio.parse_sweep_file(write(tmp_path / "s.dat", text))
        f, s21 = float_sweep(text)
        assert s.frequency_hz.tobytes() == f.tobytes()
        assert s.s21.tobytes() == s21.tobytes()

    def test_bad_cell_in_the_second_chunk(self, tmp_path):
        # data row 50 sits on line 53, after 2 header lines and the names row
        text = replace_line(sweep_text(2 * CHUNK), 53, "5000049000 0.9 banana")
        path = write(tmp_path / "s.dat", text)
        with pytest.raises(ParseError) as err:
            dataio.parse_sweep_file(path)
        assert str(err.value) == f"{path}:53: column 's21_imag': cannot parse 'banana' as a number"

    def test_non_increasing_row_at_a_boundary(self, tmp_path):
        # the first row of the second chunk repeats the last of the first
        text = replace_line(sweep_text(2 * CHUNK), 3 + CHUNK + 1, "5000039000 0.9 0.01")
        path = write(tmp_path / "s.dat", text)
        with pytest.raises(ParseError) as err:
            dataio.parse_sweep_file(path)
        assert str(err.value) == (f"{path}:{3 + CHUNK + 1}: frequency must be strictly increasing; "
                                  f"row {CHUNK + 1} (5000039000.0) does not exceed "
                                  f"row {CHUNK} (5000039000.0)")

    def test_db_phase_over_several_chunks(self, tmp_path, chunks_only):
        # s21 is db_phase_to_complex of the float() columns, to the bit
        rng = np.random.default_rng(8)
        mag_db, phase = rng.uniform(-40.0, 0.0, 5 * CHUNK), rng.uniform(-3.2, 3.2, 5 * CHUNK)
        lines = ["#format=db_phase", "frequency_hz s21_mag_db s21_phase_rad"]
        lines += [f"{4e9 + 1e3 * k:.12g} {m!r} {p!r}"
                  for k, (m, p) in enumerate(zip(mag_db.tolist(), phase.tolist()))]
        s = dataio.parse_sweep_file(write(tmp_path / "dp.dat", "\n".join(lines) + "\n"))
        rows = np.array([[float(tok) for tok in line.split()] for line in lines[2:]])
        assert s.frequency_hz.tobytes() == rows[:, 0].tobytes()
        assert s.s21.tobytes() == dataio.db_phase_to_complex(mag_db, phase).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data_blocks())
    def test_blocks_in_two_line_chunks(self, tmp_path_factory, block):
        # blank lines, # lines and ragged rows at every place in a chunk
        names, data = block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_READ_CHUNK_LINES", 2)
            check_against_reference(tmp_path_factory.getbasetemp() / "block.dat",
                                    ["#power_dbm=-80", ""], data, names)


def old_write_rows(header, names, columns):
    """The row-by-row writer that write_rows replaced."""
    text = "".join(f"#{k}={v}\n" for k, v in header.items()) + " ".join(names) + "\n"
    for row in zip(*[np.asarray(c) for c in columns]):
        text += " ".join(dataio.format_number(v) for v in row) + "\n"
    return text


class TestWriterParity:
    EDGE = [-0.0, 5e-324, 1e22, 123456789012345.0, 1.0 / 3.0, -2.5e-300,
            1.7976931348623157e308, 0.1, 1e16, 12345678901234567890.0]

    def check(self, tmp_path, header, names, columns):
        path = tmp_path / "w.dat"
        dataio.write_rows(str(path), header, names, columns)
        assert path.read_bytes() == old_write_rows(header, names, columns).encode()

    def test_edge_floats(self, tmp_path):
        self.check(tmp_path, {"plot": "edge"}, ("x",), (np.array(self.EDGE),))

    def test_ints_beside_floats(self, tmp_path):
        ints = np.array([0, -7, 123456789012345, 2 ** 53 + 1, 10 ** 12, 999999999999,
                         1, 2, 3, 4], dtype=np.int64)
        self.check(tmp_path, {}, ("i", "x", "py"),
                   (ints, np.array(self.EDGE), [5, -1, 0, 3, 10 ** 15, 7, 8, 9, 11, 12]))

    def test_non_finite_plot_column(self, tmp_path):
        sigma = np.array([1e-7, np.nan, np.inf, -np.inf, 2.5e-8])
        self.check(tmp_path, {"plot": "loss_vs_n"}, ("n_photon", "sigma_delta"),
                   (np.geomspace(1.0, 1e6, 5), sigma))

    def test_chunk_boundaries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_WRITE_CHUNK_ROWS", 3)
        for n in (0, 1, 3, 7):
            x = np.linspace(-1.0, 1.0, n) * np.pi
            self.check(tmp_path, {"n": n}, ("x", "y"), (x, x ** 2))


class TestDomainTypes:
    def test_sweep_arrays_read_only(self, tmp_path):
        s = dataio.parse_sweep_file(write(tmp_path / "s.dat", sweep_text()))
        with pytest.raises(ValueError):
            s.frequency_hz[0] = 0.0
        with pytest.raises(ValueError):
            s.s21[0] = 0.0

    def test_sweep_isolated_from_caller_arrays(self, tmp_path):
        # a caller's writeable arrays are copied, so writing to them later
        # does not reach the sweep; read-only arrays, such as a parsed
        # sweep's views of its block, are shared and cannot be written
        f = 5e9 + 1e3 * np.arange(40)
        z = np.full(40, 0.9 + 0.01j)
        s = dataio.ComplexSweep(frequency_hz=f, s21=z)
        f[:] = 0.0
        z[:] = 0.0
        assert s.frequency_hz.tobytes() == (5e9 + 1e3 * np.arange(40)).tobytes()
        assert np.all(s.s21 == 0.9 + 0.01j)
        parsed = dataio.parse_sweep_file(write(tmp_path / "s.dat", sweep_text()))
        for arr in (parsed.frequency_hz, parsed.s21, parsed.s21.real, parsed.s21.imag):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        sub = dataio.ComplexSweep(frequency_hz=parsed.frequency_hz[2:36],
                                  s21=parsed.s21[2:36])
        assert np.shares_memory(sub.s21, parsed.s21)

    def test_negative_attenuation_rejected(self):
        f = np.linspace(4e9, 4.1e9, 40)
        z = np.full(40, 0.9 + 0j)
        with pytest.raises(DataError):
            dataio.ComplexSweep(frequency_hz=f, s21=z, attenuation_db=-3.0)

    def test_process_key_str(self):
        key = dataio.parse_process("A/HP/HT/none")
        assert str(key) == "A/HP/HT/none"
        assert key.expected

    def test_process_key_unexpected_warns(self):
        with pytest.warns(UserWarning):
            dataio.parse_process("A/HP/HT/BOE")

    def test_process_key_bad_field(self):
        with pytest.raises(DataError):
            dataio.parse_process("A/HP/HT")
        with pytest.raises(DataError):
            dataio.ProcessKey("Z", "HP", "HT")


class TestConversions:
    def test_format_number_precision(self):
        assert dataio.format_number(np.pi) == "3.14159265359"
        assert float(dataio.format_number(1.0 / 3.0)) == pytest.approx(1 / 3, rel=1e-11)


class TestReports:
    def test_report_round_trip(self, tmp_path):
        path = str(tmp_path / "r.json")
        body = {"x": dataio.qty(1.5, unit="GHz"), "flag": True}
        plot = {"curve": (("a", "b"), (np.arange(3.0), np.arange(3.0) ** 2))}
        written = dataio.write_report(path, "demo", body, plot_data=plot)
        assert len(written) == 2
        doc = dataio.read_report(path)
        assert doc["report_kind"] == "demo"
        assert doc["body"]["x"]["value"] == 1.5
        assert doc["design_constants"]["gap_um"] == 6.0
        assert doc["plot_data"]["curve"] == "r_curve.dat"
        header, (a, b), _ = dataio.read_columns(str(tmp_path / "r_curve.dat"), ("a", "b"))
        assert header == {"plot": "curve"}
        np.testing.assert_array_equal(a, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(b, [0.0, 1.0, 4.0])

    def test_report_handles_nan(self, tmp_path):
        path = str(tmp_path / "r.json")
        dataio.write_report(path, "demo", {"bad": float("nan"),
                                           "inf": float("inf"),
                                           "arr": np.array([1.0, np.nan])})
        doc = json.loads(Path(path).read_text())
        assert doc["body"]["bad"] is None
        assert doc["body"]["inf"] is None
        assert doc["body"]["arr"] == [1.0, None]

    @pytest.mark.parametrize("result,extract,want", [
        (stats.box_summary([1.0, 2.0, 3.0, 100.0]),
         lambda d: d["outliers"], [100.0]),
        (DecomposeResult(losses={"delta_sa": 1e-3, "delta_si": math.nan},
                         sigma={}, unresolved=("delta_si",), rank=1,
                         condition_number=1.0, residual_rms=0.0,
                         predicted=np.array([1e-6, np.nan])),
         lambda d: [d["losses"], d["unresolved"], d["predicted"]],
         [{"delta_sa": 1e-3, "delta_si": None}, ["delta_si"], [1e-6, None]]),
        (TcResult(tc=math.nan, transition_width=0.1, r_normal=25.0,
                  r_300k=100.0, rrr=4.0, flags=("rrr_below_1",)),
         lambda d: [d["tc"], d["flags"]], [None, ["rrr_below_1"]]),
        (stats.group_by_process([(dataio.ProcessKey("A", "HP", "HT"), 2.0)]),
         lambda d: {k: list(v) for k, v in d["by_key"].items()},
         {"A/HP/HT/none": [f.name for f in fields(stats.BoxSummary)]}),
    ], ids=["tuple", "ndarray", "nan", "process_key"])
    def test_dataclass_written_as_fields(self, tmp_path, result, extract, want):
        path = tmp_path / "r.json"
        dataio.write_report(path, "demo", {"result": result})
        doc = dataio.read_report(path)["body"]["result"]
        assert list(doc) == [f.name for f in fields(result)]
        assert extract(doc) == want

    def test_report_is_deterministic(self, tmp_path):
        body = {"v": dataio.qty(math.pi)}
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        dataio.write_report(p1, "demo", body)
        dataio.write_report(p2, "demo", body)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_read_report_rejects_junk(self, tmp_path):
        path = write(tmp_path / "junk.json", "not json {")
        with pytest.raises(ParseError):
            dataio.read_report(path)

    def test_provenance(self, tmp_path):
        s = dataio.parse_sweep_file(write(tmp_path / "s.dat", sweep_text()))
        p = dataio.provenance(s)
        assert p["path"].endswith("s.dat")
        assert p["header"]["power_dbm"] == "-80"
