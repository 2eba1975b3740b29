"""Plain-text tables: the row formatter and CSV reader of every file curvspec
writes or reads back. Rows are `fmt % row` over the columns' `.tolist()`
scalars; `%.17g` prints every float, -0, nan and inf as `{v:.17g}` does.

Tables of `%.17g` and `%.2f` are written by numpy, a chunk of rows at a time,
each value as NUL-padded ASCII in a fixed-width slot of its row (or by `%` in
its slot, outside the kernel's range), and the NULs dropped; same bytes.
"""

from __future__ import annotations

import functools
import re

import numpy as np

_CONVERSION = re.compile(r"(%\.17g|%\.2f)")
_SLOT = {"%.17g": 24, "%.2f": 16}  # bytes: `%.17g` of any float, `%.2f` of |x| < 1e11
_CHUNK = 4096  # rows per pass: bounds the buffers and keeps them in cache


def format_rows(fmt: str, *columns, sep: str = "\n") -> str:
    """The `fmt % row` of every row of the equal-length columns, joined by sep."""
    cols = [np.asarray(c) for c in columns]
    parts = _CONVERSION.split(fmt + sep)
    convs = parts[1::2]
    if (len(convs) != len(cols) or any(c.dtype.kind != "f" or c.dtype.itemsize > 8 for c in cols)
            or not all(s.isascii() and "%" not in s and "\0" not in s for s in parts[::2])
            or any(v == "%.2f" and np.any(abs(c[np.isfinite(c)]) >= 1e11)
                   for v, c in zip(convs, cols))):
        cols = [c.tolist() for c in cols]
        n, k = len(cols[0]), len(cols)
        flat = [None] * (n * k)  # row-major: the arguments of one `%` over the table
        for j, col in enumerate(cols):
            flat[j::k] = col
        return ((fmt + sep) * (n - 1) + fmt) % tuple(flat) if n else ""
    lits = [np.frombuffer(s.encode("ascii"), np.uint8) for s in parts[::2]]
    ends = np.cumsum([len(lit) + _SLOT[v] for lit, v in zip(lits, convs)]).tolist()  # slots end
    blocks = []
    for lo in range(0, len(cols[0]), _CHUNK):
        rows = np.zeros((len(cols[0][lo:lo + _CHUNK]), ends[-1] + len(lits[-1])), np.uint8)
        for lit, start in zip(lits, [0] + ends):
            rows[:, start:start + len(lit)] = lit
        for conv, col, end in zip(convs, cols, ends):
            col = col[lo:lo + _CHUNK].astype(float)
            slot = rows[:, end - _SLOT[conv]:end]
            slot[:], bad = (_g17 if conv == "%.17g" else _f2)(col)
            if bad.any():
                idx = np.flatnonzero(bad)
                each = np.array([conv % v for v in col[idx].tolist()], f"S{_SLOT[conv]}")
                slot[idx] = each.view(np.uint8).reshape(len(idx), -1)
        blocks.append(rows.tobytes().translate(None, b"\0"))
    text = b"".join(blocks).decode("ascii")
    return text[:len(text) - len(sep)]


@functools.cache
def _tables():
    """Built on first use: the text of each 4-digit group as is, with trailing and
    with leading zeros blanked; the `%.17g` slot layouts per (e + 4) + 21 *
    integral + 42 * negative (masks of shifted and kept bytes, fixed text); 10**k."""
    q = np.arange(10000)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    text = (digits + 48).astype(np.uint8)
    trailing = np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] == 0
    leading = np.cumsum(digits, axis=1) == 0
    groups = np.concatenate([text, np.where(trailing, 0, text), np.where(leading, 0, text)])
    lay = np.zeros((2, 2, 21, 3, 24), np.uint8)
    for e in range(-4, 17):
        shifted, kept, fixed = (lay[:, :, e + 4, i] for i in range(3))
        if e < 0:  # "0." and -e-1 zeros end at byte 6, before d0
            kept[:] = 255
            fixed[..., 6 + e:7] = ord("0")
            fixed[..., 7 + e] = ord(".")
        else:  # d0..de move to bytes 6..6+e, their blanked zeros restored
            shifted[..., 6:7 + e] = 255
            kept[..., 8 + e:] = 255
            fixed[..., 6:7 + e] = ord("0")
            fixed[:, 0, 7 + e] = ord(".")  # no point when the fraction is all zeros
    lay[1, ..., 2, 0] = ord("-")
    pow10 = np.array([float(10**k) for k in range(21)])  # exact
    groups = groups.view("<u4").ravel().astype(np.uint64)
    return groups, lay.view("<u8").reshape(84, 9).T.copy(), pow10


def _two_product(a, f):
    """a * f as p + err exactly, p = fl(a * f) (Dekker's two-product)."""
    p = a * f
    (ah, al), (fh, fl) = (_halves(v) for v in (a, f))
    return p, ((ah * fh - p) + ah * fl + al * fh) + al * fl


def _halves(v):
    c = v * 134217729.0  # 2**27 + 1: two 26-bit halves
    return c - (c - v), v - (c - (c - v))


def _g17(x):
    """24-byte slots of `%.17g` for 1e-4 <= |x| < 1e17: the digits of m = round(|x|
    * 10**(16-e)), e = floor(log10|x|), at bytes 7..23 and the sign at 0 before
    the layout moves them; and the mask of the values left to `%`."""
    groups, lay, pow10 = _tables()
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e17)
    a = np.where(ok, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    p, err = _two_product(a, pow10[16 - e])  # p is an integer: p >= 1e16 > 2**53
    near = np.flatnonzero((p <= 1e16) | (p >= 1e17))  # log10 may miss by one next to 10**e
    pn, en = p[near], err[near]
    e[near] += ((pn > 1e17) | (pn == 1e17) & (en >= 0)).astype(np.int64)
    e[near] -= (pn < 1e16) | (pn == 1e16) & (en < 0)
    p[near], err[near] = _two_product(a[near], pow10[16 - e[near]])
    # p is even, so rounding err half to even rounds p + err so; and no float
    # below 10**(e+1) lies within 5e-18 of it, so m < 10**17
    m = p.astype(np.int64) + np.rint(err).astype(np.int64)
    d0 = m // 10**16
    hi = (m - d0 * 10**16) // 10**8
    lo = m - d0 * 10**16 - hi * 10**8
    q1, q3 = hi // 10**4, lo // 10**4
    q2, q4 = hi - q1 * 10**4, lo - q3 * 10**4
    z3 = q4 == 0  # groups followed by zeros only take their trailing-blanked text
    z2 = z3 & (q3 == 0)
    z1 = z2 & (q2 == 0)
    w = ((d0 + 48).astype(np.uint64) << 56,
         groups[q1 + 10000 * z1] | groups[q2 + 10000 * z2] << 32,
         groups[q3 + 10000 * z3] | groups[q4 + 10000] << 32)
    s = (w[0] >> 8 | w[1] << 56, w[1] >> 8 | w[2] << 56, w[2] >> 8)
    key = (e + 4) + 21 * (a == np.floor(a)) + 42 * np.signbit(x)
    out = np.empty((len(x), 3), "<u8")
    for j in range(3):
        np.bitwise_or(s[j] & lay[j][key] | w[j] & lay[3 + j][key], lay[6 + j][key], out=out[:, j])
    return out.view(np.uint8), ~ok


def _f2(x):
    """16-byte slots of `%.2f` for |x| < 1e6, and the mask of the values left to `%`:
    fl(|x| * 100) is within 7.5e-9 of |x| * 100, so it rounds alike away from ties."""
    groups = _tables()[0]
    a = np.abs(x)
    ok = a < 1e6
    p = np.where(ok, a, 0.0) * 100.0
    k = np.rint(p)
    bad = ~ok | (np.abs(p - k) > 0.5 - 1e-6) | (k >= 1e8)
    m = np.minimum(k.astype(np.int64), 10**8 - 1)
    hi = m // 10**4
    lo = m - hi * 10**4
    # sign, hi with leading zeros blanked, lo's first two digits, point, last two
    g = groups[lo + 20000 * (hi == 0)] | 0x30303000
    out = np.empty((len(x), 2), "<u8")
    out[:, 0] = np.signbit(x).astype(np.uint64) * 45 | groups[hi + 20000] << 8 | (g & 0xFFFF) << 40
    out[:, 0] |= ord(".") << 56
    out[:, 1] = g >> 16
    return out.view(np.uint8), bad


def write_table(path, header: str, fmt: str, *columns) -> None:
    """A header line, then one `fmt % row` line per row of the columns."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n" + format_rows(fmt + "\n", *columns, sep=""))


def read_csv(path, what: str, header_ok, error) -> tuple[list[str], np.ndarray]:
    """Header columns and the float data rows (blank lines skipped); an unreadable
    file, a bad header (`header_ok`) or a bad row raises `error` naming the path."""
    try:  # a non-ASCII byte becomes U+FFFD, which fails as a header or number below
        fh = open(path, "r", encoding="ascii", errors="replace")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    with fh:
        header = fh.readline().strip().split(",")
        if not header_ok(header):
            raise error(f"{path}:1: not a {what} (columns {header})")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise error(f"{path}:{lineno}: expected {len(header)} columns, got {len(parts)}")
            try:
                rows.append([float(x) for x in parts])
            except ValueError:
                raise error(f"{path}:{lineno}: malformed number in {line!r}") from None
    return header, np.asarray(rows, dtype=float).reshape(len(rows), len(header))
