"""Correspondence files and benchmark CSV records.

Both formats are plain text with every numeric field rendered at 9
significant digits (``%.9g``), which round-trips exactly through float64:
parse(write(x)) == x for any value that itself came out of the writer.

Correspondence file::

    # robustfit v1 <problem> <width> <height>
    x1 y1 x2 y2 [label]

with label in {0, 1}; if any record carries a label, all must.

Bench CSV header::

    dataset,method,sigma,trial,seed,error_px,inliers,iterations,lo_count,wall_ms
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import InvalidInputError, ParseError
from .geometry import FUNDAMENTAL, HOMOGRAPHY

MAGIC = "robustfit"
VERSION = "v1"
CSV_HEADER = "dataset,method,sigma,trial,seed,error_px,inliers,iterations,lo_count,wall_ms"


def fmt(value: float) -> str:
    """Canonical 9-significant-digit rendering for file output."""
    return f"{value:.9g}"


@dataclass(frozen=True)
class CorrespondenceFile:
    """Parsed correspondence file: matched points plus optional labels."""

    problem: str
    image_size: tuple[int, int]
    x1: np.ndarray  # (n, 2)
    x2: np.ndarray  # (n, 2)
    labels: np.ndarray | None  # (n,) bool or None

    @property
    def n(self) -> int:
        return self.x1.shape[0]

    def validation_mask(self) -> np.ndarray:
        if self.labels is None:
            raise InvalidInputError("dataset carries no validation labels")
        return self.labels


def write_correspondences(
    path: str | Path,
    problem: str,
    image_size: tuple[int, int],
    x1: np.ndarray,
    x2: np.ndarray,
    labels: np.ndarray | None = None,
) -> None:
    text = correspondences_to_text(problem, image_size, x1, x2, labels)
    Path(path).write_text(text, encoding="ascii")


def correspondences_to_text(
    problem: str,
    image_size: tuple[int, int],
    x1: np.ndarray,
    x2: np.ndarray,
    labels: np.ndarray | None = None,
) -> str:
    if problem not in (FUNDAMENTAL, HOMOGRAPHY):
        raise InvalidInputError(f"unknown problem {problem!r}")
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    lines = [f"# {MAGIC} {VERSION} {problem} {int(image_size[0])} {int(image_size[1])}"]
    for i in range(x1.shape[0]):
        cols = [fmt(x1[i, 0]), fmt(x1[i, 1]), fmt(x2[i, 0]), fmt(x2[i, 1])]
        if labels is not None:
            cols.append(str(int(labels[i])))
        lines.append(" ".join(cols))
    return "\n".join(lines) + "\n"


def _read_ascii(path: str | Path) -> str:
    """File contents as text; a non-ASCII byte raises ParseError on its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"non-ASCII byte {data[exc.start]:#04x}", line_no) from None


def parse_correspondences(path: str | Path) -> CorrespondenceFile:
    """Parse a correspondence file; malformed input raises ParseError with a line number."""
    return parse_correspondences_text(_read_ascii(path))


def parse_correspondences_text(text: str) -> CorrespondenceFile:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", 1)
    header = lines[0].split()
    if len(header) != 6 or header[0] != "#" or header[1] != MAGIC or header[2] != VERSION:
        raise ParseError(f"bad header {lines[0]!r}", 1)
    problem = header[3]
    if problem not in (FUNDAMENTAL, HOMOGRAPHY):
        raise ParseError(f"unknown problem {problem!r}", 1)
    try:
        width, height = int(header[4]), int(header[5])
    except ValueError as exc:
        raise ParseError(f"bad image size in header: {exc}", 1) from None
    if width <= 0 or height <= 0:
        raise ParseError("image size must be positive", 1)

    x1, x2, labels = [], [], []
    labeled: bool | None = None
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split()
        if len(cols) not in (4, 5):
            raise ParseError(f"expected 4 or 5 columns, got {len(cols)}", line_no)
        has_label = len(cols) == 5
        if labeled is None:
            labeled = has_label
        elif labeled != has_label:
            raise ParseError("mixed labeled and unlabeled records", line_no)
        try:
            values = [float(c) for c in cols[:4]]
        except ValueError:
            raise ParseError(f"non-numeric coordinate in {line!r}", line_no) from None
        if not all(np.isfinite(values)):
            raise ParseError("non-finite coordinate", line_no)
        if has_label:
            if cols[4] not in ("0", "1"):
                raise ParseError(f"label must be 0 or 1, got {cols[4]!r}", line_no)
            labels.append(cols[4] == "1")
        x1.append(values[:2])
        x2.append(values[2:])

    n = len(x1)
    return CorrespondenceFile(
        problem=problem,
        image_size=(width, height),
        x1=np.asarray(x1, dtype=np.float64).reshape(n, 2),
        x2=np.asarray(x2, dtype=np.float64).reshape(n, 2),
        labels=np.asarray(labels, dtype=bool) if labeled else None,
    )


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run: (dataset, method, sigma, trial) -> metrics."""

    dataset: str
    method: str
    sigma: float
    trial: int
    seed: int
    error_px: float
    inliers: float
    iterations: float
    lo_count: float
    wall_ms: float

    def sort_key(self):
        # Sigma as written, so rows that print the same sigma keep one order
        # through a write/parse/write cycle.
        return (self.dataset, self.method, float(fmt(self.sigma)), self.trial)

    def to_csv_row(self) -> str:
        return ",".join(
            [
                self.dataset,
                self.method,
                fmt(self.sigma),
                str(self.trial),
                str(self.seed),
                fmt(self.error_px),
                fmt(self.inliers),
                fmt(self.iterations),
                fmt(self.lo_count),
                fmt(self.wall_ms),
            ]
        )


def records_to_csv(records: list[BenchRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.to_csv_row() for r in sorted(records, key=BenchRecord.sort_key))
    return "\n".join(lines) + "\n"


def write_records(path: str | Path, records: list[BenchRecord]) -> None:
    Path(path).write_text(records_to_csv(records), encoding="ascii")


def csv_safe(field: str) -> bool:
    """True when ``field`` fits one bench CSV cell: ASCII, no comma, no line break."""
    return field.isascii() and "," not in field and len(f"{field}.".splitlines()) == 1


def parse_records(path: str | Path) -> list[BenchRecord]:
    return parse_records_text(_read_ascii(path))


def parse_records_text(text: str) -> list[BenchRecord]:
    """Parse a bench CSV; blank lines are skipped, errors carry the file's line number."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ParseError("missing or unexpected CSV header", lines[0][0] if lines else 1)
    records = []
    for line_no, line in lines[1:]:
        cols = line.split(",")
        if len(cols) != 10:
            raise ParseError(f"expected 10 columns, got {len(cols)}", line_no)
        try:
            records.append(
                BenchRecord(
                    dataset=cols[0],
                    method=cols[1],
                    sigma=float(cols[2]),
                    trial=int(cols[3]),
                    seed=int(cols[4]),
                    error_px=float(cols[5]),
                    inliers=float(cols[6]),
                    iterations=float(cols[7]),
                    lo_count=float(cols[8]),
                    wall_ms=float(cols[9]),
                )
            )
        except ValueError as exc:
            raise ParseError(f"bad record: {exc}", line_no) from None
    return records
