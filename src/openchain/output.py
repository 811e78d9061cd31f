"""CSV and SVG-heatmap emitters.

All numeric output uses 9 significant digits with '.' as the decimal
separator regardless of locale, so files are byte-stable golden
artifacts for a given seed and config.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .trajectory import EnsembleResult

# the action label of an event, indexed by its code 2 * target + changed
ACTIONS = ("null_remove", "remove", "null_inject", "inject")
# event codes formatted at a time by emit_events_csv: tracemalloc
# measured the writer's peak at 0.32 MiB for ids of up to 5 digits and
# 0.40 MiB for 19-digit ones (0.53 / 0.75 MiB at 4096 events, where the
# calling process of the contacts-l8 benchmark peaked 0.4 MiB higher)
EVENTS_BLOCK = 2048
# 10 .. 10^18: a non-negative int64 has one digit more than it has of these
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)
# each action label with its newline, padded to 12 bytes (the longest
# label and its newline), and the mask of the bytes that print
_LABELS = np.array([list(f"{a}\n".ljust(12).encode()) for a in ACTIONS], dtype=np.uint8)
_LABEL_KEEP = np.arange(12) < np.array([[len(a) + 1] for a in ACTIONS])
# heatmap raster: the side of one (time, site) cell and the border, in px
CELL = 12
MARGIN = 30


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def emit_csv(result: EnsembleResult, path) -> None:
    """Write `t,n_1,...,n_L,se_1,...,se_L`, one row per recorded time."""
    L = result.mean_density.shape[1]
    lines = [
        "t,"
        + ",".join(f"n_{i + 1}" for i in range(L))
        + ","
        + ",".join(f"se_{i + 1}" for i in range(L))
    ]
    for t, dens, se in zip(result.times, result.mean_density, result.stderr):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in dens] + [_fmt(v) for v in se]))
    Path(path).write_text("\n".join(lines) + "\n")


def _events_block(fields, codes: np.ndarray) -> str:
    # each event as bytes: the digits of each non-negative int64 field
    # (traj, step, site), right-aligned in its column with a comma after
    # it, then the label of its code; keep marks the bytes that print, so
    # leading blanks drop out
    n_digits = [np.searchsorted(_TENS, x, side="right") + 1 for x in fields]
    widths = [int(d.max()) for d in n_digits]
    width = sum(widths) + len(widths) + _LABELS.shape[1]
    chars = np.empty((len(codes), width), dtype=np.uint8)
    keep = np.ones((len(codes), width), dtype=bool)
    end = 0
    for x, d, w in zip(fields, n_digits, widths):
        for col in range(end + w - 1, end - 1, -1):
            tens = x // 10
            chars[:, col] = x - 10 * tens + ord("0")
            x = tens
        keep[:, end:end + w] = np.arange(w) >= w - d[:, None]
        chars[:, end + w] = ord(",")
        end += w + 1
    chars[:, end:] = _LABELS[codes]
    keep[:, end:] = _LABEL_KEEP[codes]
    return chars[keep].tobytes().decode("ascii")


@contextmanager
def open_events_csv(path):
    """A text file for emit_events_csv, its header written, that becomes
    `path` only when the block exits without an error.  The rows go to
    `<path>.part` beside it, removed on an error, so a failed run leaves
    no partial events.csv."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w") as fh:
            fh.write("traj,step,site,action\n")
            yield fh
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def emit_events_csv(codes: np.ndarray, traj_id: int, qs, fh) -> None:
    """Append the events of the (count, N_t, contacts) codes of the batch
    from trajectory traj_id to the open file `fh` as
    `traj,step,site,action` (site 1-based, contact i on qubit qs[i]), in
    trajectory, step and contact-list order: the fewest equal slices of
    the codes that hold about EVENTS_BLOCK events at the batch's mean
    rate, each slice's events formatted as one byte matrix."""
    sites = np.asarray(qs, dtype=np.int64) + 1
    flat = codes.reshape(-1)
    n_slices = max(1, -(-np.count_nonzero(flat >= 0) // EVENTS_BLOCK))
    span = max(1, -(-flat.size // n_slices))
    for start in range(0, flat.size, span):
        piece = flat[start:start + span]
        at = np.flatnonzero(piece >= 0)
        if len(at):
            # np.unravel_index rather than shifts, masks and divmod, whose
            # first use pages in more of numpy's loops: the calling process
            # of the contacts-l8 and wide-l16 benchmark workloads peaked
            # 0.2-0.3 MiB higher with them (2-core host, five runs each)
            traj, step, contact = np.unravel_index(at + start, codes.shape)
            fh.write(_events_block((traj + traj_id, step + 1, sites[contact]), piece[at]))


def mark_changes(cells: np.ndarray, codes: np.ndarray, qs) -> None:
    """Set in `cells`, the (N_t, L, 2) bool raster of (step, site,
    target), every cell where an event of a batch's (count, N_t,
    contacts) codes changed its site, contact i on qubit qs[i]; one
    contact at a time, so two on one site merge."""
    for i, q in enumerate(qs):
        for target in (0, 1):
            cells[:, q, target] |= (codes[:, :, i] == 2 * target + 1).any(axis=0)


def emit_heatmap(result: EnsembleResult, cells: np.ndarray, path) -> None:
    """Self-contained SVG raster of n_i(t).

    x = time, y = site (site 1 on top); grayscale from 0 = black to
    1 = white.  Of `cells`, the run's (N_t, L, 2) raster of the (step,
    site, target) that an event changed (mark_changes), injections are
    drawn as filled markers and removals as hollow ones, in (step, site,
    target) order, so a removal's hollow marker lies under an
    injection's at the same step and site.  A run without contacts may
    pass a raster of no steps.
    """
    times = result.times
    dens = result.mean_density
    T, L = dens.shape
    width = MARGIN * 2 + T * CELL
    height = MARGIN * 2 + L * CELL
    t_final = float(times[-1]) if times[-1] > 0 else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="#888"/>',
    ]
    for row in range(T):
        x = MARGIN + row * CELL
        for site in range(L):
            y = MARGIN + site * CELL
            level = int(round(255 * min(max(dens[row, site], 0.0), 1.0)))
            color = f"#{level:02x}{level:02x}{level:02x}"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" fill="{color}"/>'
            )
    # event steps are trajectory steps 1..N_t; map onto the T raster
    # columns (column 0 is t=0)
    for step, q, target in np.argwhere(cells).tolist():
        x = MARGIN + ((step + 1) / len(cells)) * ((T - 1) * CELL) + CELL / 2.0
        y = MARGIN + q * CELL + CELL / 2.0
        r = CELL * 0.3
        if target == 1:
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r:.1f}" fill="#000" stroke="#fff" stroke-width="1"/>'
            )
        else:
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r:.1f}" fill="none" stroke="#fff" stroke-width="1.5"/>'
            )
    # simple axis labels
    parts.append(
        f'<text x="{MARGIN}" y="{MARGIN - 8}" font-size="10" fill="#fff">t = 0 .. {_fmt(t_final)} (site 1 top)</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
