"""File formats, domain types and report writing.

All measurement files share one plain-text layout: a block of
``#key=value`` header lines, one optional line naming the columns, then
whitespace-separated numeric rows. Comments after the data block are
not allowed; unknown header keys are kept and echoed into reports so
nothing a measurement setup wrote is silently dropped.

Files are UTF-8; a byte that is not UTF-8 is a bad line. Lines split
on "\n" only (``\r\n`` and ``\r`` read as "\n"): a form feed inside a
line separates cells and shifts no line number. Blank lines are
allowed anywhere; the names row precedes the data; each data row has
one cell per column, each a finite float() in numeric files.

Numeric files stream: the header is read line by line, then numpy's C
reader reads the data block straight from the open file, so no Python
object per line or per cell is held. A block it refuses, or one with a
non-finite value, is read again and walked line by line with float(),
which reads the rest and names the first bad line in its error. The
writer formats a few thousand rows at a time from slices of the
columns.

Parsed objects are immutable: dataclasses are frozen and their numpy
arrays are marked read-only.
"""

import json
import math
import os
import warnings
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import DataError, ParseError

DEPO_VALUES = ("A", "B", "C")
ETCH_VALUES = ("HP", "LP")
STRIP_VALUES = ("HT", "LT")
WET_ETCH_VALUES = ("none", "BOE", "BOE_tc")

# Fabrication-matrix combinations that carry resonators; anything else
# parses fine but triggers a warning so typos in headers get noticed.
EXPECTED_PROCESS_COMBOS = frozenset({
    ("A", "HP", "HT", "none"),
    ("A", "HP", "LT", "none"),
    ("A", "LP", "HT", "none"),
    ("A", "LP", "LT", "none"),
    ("B", "HP", "HT", "BOE"),
    ("B", "HP", "HT", "BOE_tc"),
    ("B", "LP", "LT", "BOE"),
    ("C", "HP", "HT", "none"),
    ("C", "HP", "LT", "none"),
    ("C", "LP", "HT", "none"),
    ("C", "LP", "LT", "none"),
})


@dataclass(frozen=True, order=True)
class ProcessKey:
    """Fabrication recipe of a chip: deposition, etch, resist strip, wet etch."""

    depo: str
    etch: str
    strip: str
    wet_etch: str = "none"

    def __post_init__(self):
        if self.depo not in DEPO_VALUES:
            raise DataError(f"unknown deposition '{self.depo}' (expected one of {DEPO_VALUES})")
        if self.etch not in ETCH_VALUES:
            raise DataError(f"unknown etch '{self.etch}' (expected one of {ETCH_VALUES})")
        if self.strip not in STRIP_VALUES:
            raise DataError(f"unknown strip '{self.strip}' (expected one of {STRIP_VALUES})")
        if self.wet_etch not in WET_ETCH_VALUES:
            raise DataError(f"unknown wet etch '{self.wet_etch}' (expected one of {WET_ETCH_VALUES})")

    def __str__(self):
        return f"{self.depo}/{self.etch}/{self.strip}/{self.wet_etch}"

    @property
    def expected(self):
        return (self.depo, self.etch, self.strip, self.wet_etch) in EXPECTED_PROCESS_COMBOS


def parse_process(text):
    """Parse 'depo/etch/strip/wet' into a ProcessKey, warning on unlisted combos."""
    parts = text.strip().split("/")
    if len(parts) != 4:
        raise DataError(f"process key '{text}' must have 4 fields depo/etch/strip/wet")
    key = ProcessKey(*parts)
    if not key.expected:
        warnings.warn(f"process combination {key} is not part of the standard "
                      f"fabrication matrix", stacklevel=2)
    return key


def _freeze(arr):
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ComplexSweep:
    """One S21 frequency sweep of a notch resonator (or a whole feedline)."""

    frequency_hz: np.ndarray
    s21: np.ndarray
    power_dbm: float = None
    attenuation_db: float = None
    temperature_k: float = None
    resonator_id: str = ""
    chip_id: str = ""
    process: ProcessKey = None
    header: dict = field(default_factory=dict)
    source: str = None

    def __post_init__(self):
        f = np.asarray(self.frequency_hz, dtype=float)
        z = np.asarray(self.s21, dtype=complex)
        if f.ndim != 1 or z.shape != f.shape:
            raise DataError("frequency and s21 must be 1-d arrays of equal length")
        if f.size < 32:
            raise DataError(f"sweep has {f.size} points, need at least 32")
        _check_increasing(f, "frequency")
        if self.attenuation_db is not None and self.attenuation_db < 0:
            raise DataError("line attenuation must be >= 0 dB")
        object.__setattr__(self, "frequency_hz", _freeze(f))
        object.__setattr__(self, "s21", _freeze(z))

    def __len__(self):
        return self.frequency_hz.size


@dataclass(frozen=True)
class RtSweep:
    """Resistance vs temperature trace of one film."""

    temperature_k: np.ndarray
    resistance_ohm: np.ndarray
    header: dict = field(default_factory=dict)
    source: str = None

    def __post_init__(self):
        t = np.asarray(self.temperature_k, dtype=float)
        r = np.asarray(self.resistance_ohm, dtype=float)
        if t.ndim != 1 or r.shape != t.shape:
            raise DataError("temperature and resistance must be 1-d arrays of equal length")
        if t.size < 8:
            raise DataError(f"R(T) sweep has {t.size} points, need at least 8")
        _check_increasing(t, "temperature")
        if t[0] <= 0:
            raise DataError("temperatures must be positive (kelvin)")
        if np.any(r < 0):
            raise DataError("resistances must be non-negative")
        object.__setattr__(self, "temperature_k", _freeze(t))
        object.__setattr__(self, "resistance_ohm", _freeze(r))


@dataclass(frozen=True)
class XrdScan:
    """Theta-2theta diffraction scan: 2theta in degrees vs counts."""

    two_theta_deg: np.ndarray
    counts: np.ndarray
    header: dict = field(default_factory=dict)
    source: str = None

    def __post_init__(self):
        tt = np.asarray(self.two_theta_deg, dtype=float)
        c = np.asarray(self.counts, dtype=float)
        if tt.ndim != 1 or c.shape != tt.shape:
            raise DataError("two_theta and counts must be 1-d arrays of equal length")
        if tt.size < 2:
            raise DataError("diffraction scan needs at least 2 points")
        _check_increasing(tt, "two_theta")
        if tt[0] < 10.0 or tt[-1] > 120.0:
            raise DataError("two_theta must lie within [10, 120] degrees")
        if np.any(c < 0):
            raise DataError("counts must be non-negative")
        object.__setattr__(self, "two_theta_deg", _freeze(tt))
        object.__setattr__(self, "counts", _freeze(c))


@dataclass(frozen=True)
class SheetMap:
    """Nine-site sheet-resistance map of one wafer."""

    wafer_id: str
    sites: tuple
    r_square_ohm_sq: np.ndarray
    batch_id: str = ""
    depo: str = None
    header: dict = field(default_factory=dict)
    source: str = None

    def __post_init__(self):
        r = np.asarray(self.r_square_ohm_sq, dtype=float)
        if len(self.sites) != 9 or r.shape != (9,):
            raise DataError(f"wafer '{self.wafer_id}': expected 9 sites, "
                            f"got {len(self.sites)}")
        if len(set(self.sites)) != 9:
            raise DataError(f"wafer '{self.wafer_id}': duplicate site labels")
        if np.any(r <= 0):
            raise DataError(f"wafer '{self.wafer_id}': sheet resistances must be positive")
        if self.depo is not None and self.depo not in DEPO_VALUES:
            raise DataError(f"unknown deposition '{self.depo}'")
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "r_square_ohm_sq", _freeze(r))


def _check_increasing(arr, what):
    bad = np.nonzero(np.diff(arr) <= 0)[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{what} must be strictly increasing; "
                        f"row {i + 2} ({float(arr[i + 1])!r}) does not exceed "
                        f"row {i + 1} ({float(arr[i])!r})")


# ---------------------------------------------------------------------------
# low-level columnar reader / writer

def open_text(path):
    """Open a text input (data file, report, option file) as UTF-8 with
    any newline. A byte that is not UTF-8 is kept as a lone surrogate,
    so that utf8_text can name its line."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def utf8_text(path, lineno, text):
    """text, read by open_text from line lineno on, or ParseError at the
    first of its lines that holds a byte that is not UTF-8."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(text[exc.start]) - 0xDC00
            raise ParseError(path, lineno + text.count("\n", 0, exc.start),
                             f"invalid UTF-8 byte 0x{byte:02x}") from None
    return text


def _scan_header(path, fh):
    """Read the header lines of a columnar file up to its first data line.

    Returns (header, names, lineno, offset): header maps key -> raw
    string value, names is (line number, column names) or None, and the
    first data line is line lineno, at the fh.tell() position offset
    where fh is left.
    """
    header, names = {}, None
    lineno = 0
    while True:
        offset = fh.tell()
        raw = fh.readline()
        if not raw:
            raise ParseError(path, 1, "no data rows")
        lineno += 1
        line = utf8_text(path, lineno, raw).strip()
        if not line:
            continue
        if line.startswith("#"):
            if names is not None:
                raise ParseError(path, lineno, "header line after data block")
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise ParseError(path, lineno, f"malformed header line '{line}'")
            if not key.strip():
                raise ParseError(path, lineno, "empty header key")
            header[key.strip()] = value.strip()
            continue
        tokens = line.split()
        if names is not None or _looks_numeric(tokens[0]):
            fh.seek(offset)
            return header, names, lineno, offset
        names = (lineno, tuple(tokens))


def _pick_layout(path, names, layouts):
    """The layout a names row spells, or the first one without a names row."""
    if names is None:
        return layouts[0]
    lineno, got = names
    if got not in layouts:
        want = " or ".join(" ".join(layout) for layout in layouts)
        raise ParseError(path, lineno, f"expected columns {want}, got {' '.join(got)}")
    return got


def _data_rows(path, fh, lineno, ncol):
    """(line number, tokens) of each non-blank data line left in fh, the
    first being line lineno, checked for form."""
    for lineno, line in enumerate(fh, lineno):
        tokens = utf8_text(path, lineno, line).split()
        if not tokens:
            continue
        if tokens[0].startswith("#"):
            raise ParseError(path, lineno, "header line after data block")
        if len(tokens) != ncol:
            raise ParseError(path, lineno, f"expected {ncol} columns, got {len(tokens)}")
        yield lineno, tokens


def _looks_numeric(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def _float_cell(tok, path, lineno, colname):
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(path, lineno,
                         f"column '{colname}': cannot parse '{tok}' as a number") from None
    if not math.isfinite(value):
        raise ParseError(path, lineno, f"column '{colname}': non-finite value '{tok}'")
    return value


def read_columns(path, *layouts):
    """Read a columnar file of finite numbers: (header, columns, first),
    first being the line number of the first data line.

    Each layout is a tuple of column names, or a function of the header
    that returns one. A names row must spell one of the layouts; without
    one the first layout applies. The header is read line by line; the
    data block is then read straight from the open file by numpy's C
    reader, which holds no Python object per line and reads a subset of
    the spellings float() reads, with the same bits. A block it refuses
    or that holds a non-finite value is read again and walked line by
    line with float(), which returns the values of spellings only
    float() reads (``1_000``, non-ASCII digits) and raises ParseError at
    the first bad line.
    """
    with open_text(path) as fh:
        header, names, lineno, offset = _scan_header(path, fh)
        if callable(layouts[0]):
            try:
                layouts = (layouts[0](header),)
            except DataError as exc:
                raise ParseError(path, 1, str(exc)) from None
        layout = _pick_layout(path, names, layouts)
        try:
            values = np.loadtxt(fh, comments=None, ndmin=2)
        except ValueError:
            values = None
        if values is None or values.shape[1] != len(layout) or not np.isfinite(values).all():
            fh.seek(offset)
            values = np.array([[_float_cell(tok, path, n, name)
                                for name, tok in zip(layout, tokens)]
                               for n, tokens in _data_rows(path, fh, lineno, len(layout))])
    return header, list(values.T.copy()), lineno


def _header_float(header, key, path):
    if key not in header:
        return None
    try:
        return float(header[key])
    except ValueError:
        raise ParseError(path, 1, f"header '{key}={header[key]}' is not a number") from None


def format_number(x):
    """12 significant digits, the textual precision of all data files."""
    return f"{x:.12g}"


_WRITE_CHUNK_ROWS = 8192


def write_rows(path, header, names, columns):
    """Write a columnar file of numbers (the inverse of read_columns).

    Rows go out in chunks of _WRITE_CHUNK_ROWS: each chunk is stacked
    from slices of the columns and formatted as format_number would,
    with one %, so no full-size copy of the columns or of their text is
    made.
    """
    columns = [np.asarray(c) for c in columns]
    row = " ".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in header.items():
            fh.write(f"#{key}={value}\n")
        fh.write(" ".join(names) + "\n")
        for i in range(0, len(columns[0]), _WRITE_CHUNK_ROWS):
            chunk = np.column_stack([c[i:i + _WRITE_CHUNK_ROWS] for c in columns])
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


# ---------------------------------------------------------------------------
# dB/phase helpers

def db_phase_to_complex(mag_db, phase_rad):
    mag_db = np.asarray(mag_db, dtype=float)
    phase_rad = np.asarray(phase_rad, dtype=float)
    return 10.0 ** (mag_db / 20.0) * np.exp(1j * phase_rad)


def complex_to_db_phase(z):
    z = np.asarray(z, dtype=complex)
    mag = np.abs(z)
    if np.any(mag == 0):
        raise DataError("zero-magnitude S21 cannot be expressed in dB")
    return 20.0 * np.log10(mag), np.angle(z)


# ---------------------------------------------------------------------------
# parsers

SWEEP_COLUMNS = {
    "complex": ("frequency_hz", "s21_real", "s21_imag"),
    "db_phase": ("frequency_hz", "s21_mag_db", "s21_phase_rad"),
}


def _sweep_layout(header):
    fmt = header.get("format", "complex")
    if fmt not in SWEEP_COLUMNS:
        raise DataError(f"unknown format '{fmt}' (expected complex or db_phase)")
    return SWEEP_COLUMNS[fmt]


def parse_sweep_file(path):
    """Parse a complex or dB/phase S21 sweep file into a ComplexSweep."""
    header, (f, a, b), first = read_columns(path, _sweep_layout)
    if header.get("format", "complex") == "complex":
        z = a + 1j * b
    else:
        z = db_phase_to_complex(a, b)

    process = None
    if "process" in header:
        try:
            process = parse_process(header["process"])
        except DataError as exc:
            raise ParseError(path, 1, str(exc)) from None
    try:
        return ComplexSweep(
            frequency_hz=f,
            s21=z,
            power_dbm=_header_float(header, "power_dbm", path),
            attenuation_db=_header_float(header, "attenuation_db", path),
            temperature_k=_header_float(header, "temperature_k", path),
            resonator_id=header.get("resonator_id", ""),
            chip_id=header.get("chip_id", ""),
            process=process,
            header=dict(header),
            source=str(path),
        )
    except DataError as exc:
        raise ParseError(path, first, str(exc)) from None


def parse_rt_file(path):
    header, (t, r), first = read_columns(path, ("temperature_k", "resistance_ohm"))
    try:
        return RtSweep(temperature_k=t, resistance_ohm=r,
                       header=dict(header), source=str(path))
    except DataError as exc:
        raise ParseError(path, first, str(exc)) from None


def parse_xrd_file(path):
    header, (tt, c), first = read_columns(path, ("two_theta_deg", "counts"))
    try:
        return XrdScan(two_theta_deg=tt, counts=c,
                       header=dict(header), source=str(path))
    except DataError as exc:
        raise ParseError(path, first, str(exc)) from None


def parse_sheet_file(path):
    """Parse a sheet-resistance map file into a list of SheetMap, one per wafer.

    Columns: wafer_id site r_square_ohm_sq. Each wafer must appear with
    exactly nine sites.
    """
    wafers = {}
    first_line = {}
    with open_text(path) as fh:
        header, names, lineno, _ = _scan_header(path, fh)
        _pick_layout(path, names, (("wafer_id", "site", "r_square_ohm_sq"),))
        for lineno, tokens in _data_rows(path, fh, lineno, 3):
            wafer, site, r_tok = tokens
            r = _float_cell(r_tok, path, lineno, "r_square_ohm_sq")
            wafers.setdefault(wafer, []).append((site, r))
            first_line.setdefault(wafer, lineno)
    maps = []
    for wafer, pairs in wafers.items():
        if len(pairs) != 9:
            raise ParseError(path, first_line[wafer],
                             f"wafer '{wafer}': expected 9 sites, got {len(pairs)}")
        try:
            maps.append(SheetMap(
                wafer_id=wafer,
                sites=tuple(s for s, _ in pairs),
                r_square_ohm_sq=np.array([r for _, r in pairs]),
                batch_id=header.get("batch_id", ""),
                depo=header.get("depo"),
                header=dict(header),
                source=str(path),
            ))
        except DataError as exc:
            raise ParseError(path, first_line[wafer], str(exc)) from None
    return maps


# ---------------------------------------------------------------------------
# writers for the same formats (used by the synthetic generators and tests)

def write_sweep_file(path, sweep, fmt="complex"):
    header = dict(sweep.header)
    for key, value in (("power_dbm", sweep.power_dbm),
                       ("attenuation_db", sweep.attenuation_db),
                       ("temperature_k", sweep.temperature_k)):
        if value is not None:
            header[key] = format_number(value)
        else:
            header.pop(key, None)
    if sweep.resonator_id:
        header["resonator_id"] = sweep.resonator_id
    if sweep.chip_id:
        header["chip_id"] = sweep.chip_id
    if sweep.process is not None:
        header["process"] = str(sweep.process)
    header["format"] = fmt
    if fmt == "complex":
        write_rows(path, header, ("frequency_hz", "s21_real", "s21_imag"),
                   (sweep.frequency_hz, sweep.s21.real, sweep.s21.imag))
    elif fmt == "db_phase":
        db, ph = complex_to_db_phase(sweep.s21)
        write_rows(path, header, ("frequency_hz", "s21_mag_db", "s21_phase_rad"),
                   (sweep.frequency_hz, db, ph))
    else:
        raise DataError(f"unknown sweep format '{fmt}'")


def write_rt_file(path, sweep):
    write_rows(path, sweep.header, ("temperature_k", "resistance_ohm"),
               (sweep.temperature_k, sweep.resistance_ohm))


def write_xrd_file(path, scan):
    write_rows(path, scan.header, ("two_theta_deg", "counts"),
               (scan.two_theta_deg, scan.counts))


def write_sheet_file(path, maps):
    maps = list(maps)
    header = dict(maps[0].header)
    if maps[0].batch_id:
        header["batch_id"] = maps[0].batch_id
    if maps[0].depo:
        header["depo"] = maps[0].depo
    wafer_col, site_col, r_col = [], [], []
    for m in maps:
        wafer_col.extend([m.wafer_id] * 9)
        site_col.extend(m.sites)
        r_col.extend(m.r_square_ohm_sq.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in header.items():
            fh.write(f"#{key}={value}\n")
        fh.write("wafer_id site r_square_ohm_sq\n")
        for w, s, r in zip(wafer_col, site_col, r_col):
            fh.write(f"{w} {s} {format_number(r)}\n")


# ---------------------------------------------------------------------------
# analysis reports

# Chip design values carried into every report for traceability.
DESIGN_CONSTANTS = {
    "conductor_width_um": 10.0,
    "gap_um": 6.0,
    "target_coupling_bandwidth_mhz": 0.36,
    "target_q_ext": 5.0e5,
}


def provenance(obj):
    """Provenance record for one parsed input: path plus its full header."""
    return {"path": getattr(obj, "source", None),
            "header": dict(getattr(obj, "header", {}) or {})}


def write_report(path, kind, body, inputs=(), plot_data=None):
    """Write one machine-readable analysis report plus plot-data companions.

    body is a nested dict whose leaves are qty() entries, plain JSON
    values or result dataclasses; a dataclass is written as an object
    of its fields in declaration order (see _sanitize). inputs are the
    parsed input objects, each recorded by provenance(); every report
    also carries DESIGN_CONSTANTS. plot_data maps a short name to
    (column_names, columns); each becomes a columnar text file next to
    the report named <report stem>_<name>.dat. Returns the list of
    paths written.
    """
    doc = {
        "report_kind": kind,
        "format_version": 1,
        "inputs": [provenance(o) for o in inputs],
        "design_constants": DESIGN_CONSTANTS,
        "body": body,
    }
    written = [str(path)]
    stem, _ = os.path.splitext(str(path))
    companions = {}
    for name, (colnames, columns) in (plot_data or {}).items():
        cpath = f"{stem}_{name}.dat"
        write_rows(cpath, {"plot": name}, colnames, columns)
        companions[name] = os.path.basename(cpath)
        written.append(cpath)
    doc["plot_data"] = companions
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")
    return written


def _sanitize(obj):
    """Make a nested structure JSON-safe: dataclass instances to objects
    of their fields in declaration order, dict keys to str (a ProcessKey
    key reads "A/HP/HT/none"), tuples and arrays to lists, numpy scalars
    to Python, non-finite floats to null."""
    if is_dataclass(obj):
        return {f.name: _sanitize(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return _jsonable(obj)


def read_report(path):
    with open_text(path) as fh:
        text = utf8_text(path, 1, fh.read())
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"not a valid report: {exc.msg}") from None


def qty(value, unit=None, sigma=None):
    """One measured quantity for a report body."""
    entry = {"value": _jsonable(value)}
    if unit is not None:
        entry["unit"] = unit
    if sigma is not None:
        entry["sigma"] = _jsonable(sigma)
    return entry


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
