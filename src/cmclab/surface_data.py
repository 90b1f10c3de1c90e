"""Scalar data (u, Q, H) of normalized isothermic CMC immersions on grids.

A surface with metric e^{2u}(dx^2 + dy^2), Hopf differential function Q and
mean curvature H is *normalized* when H = 2Q, which makes its Christoffel
dual carry the reciprocal conformal factor e^{-2u}.  The conformal exponent
must satisfy the Gauss equation

    4 u_{z zbar} - 4 Q^2 e^{-2u} + H^2 e^{2u} = 0,

with 4 u_{z zbar} = u_xx + u_yy.  Built-in generators cover the round
cylinder (u = 0, Q = H/2) and translation-invariant Delaunay-type profiles
u = u(x) obtained by integrating the reduced ODE; arbitrary u grids can be
loaded from a plain text file (see `load_surface_data`).

Arrays are indexed [i, j] with i along x and j along y.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IntegrationBlowupError, InvalidInputError, naming

# |u| beyond this makes e^{2u} useless in double precision; treat as blowup.
BLOWUP_LIMIT = 200.0

# the Delaunay profile's RK4 step, shrunk to divide each span evenly
PROFILE_STEP = 1e-3

# most RK4 steps one profile may take; each is a Python-level step
MAX_PROFILE_STEPS = 10**7

# a loaded row's x or y may miss its grid node by this share of the spacing
GRID_NODE_RTOL = 1e-6

# fewest nodes per axis that carry the derivative kernel's six-point edge rows
MIN_NODES = 6


def _frozen(a):
    """`a`, marked read-only down its whole `base` chain: how a builder hands
    a container the array it has just made, so that `_locked` holds it
    without a copy.  Only for arrays nothing else refers to."""
    b = a
    while isinstance(b, np.ndarray):
        b.flags.writeable = False
        b = b.base
    return a


def _read_only(a):
    """Whether `a` and every array down its `base` chain are read-only, the
    chain ending in an array that owns its memory."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _locked(a, dtype=float, shape=None, what=None):
    """`a` as a read-only C-contiguous array of `dtype`; refused unless of
    `shape`, when one is given.

    An array is held as it is when nothing can write it, that is when it
    and every array down its `base` chain are read-only (`_frozen` marks a
    builder's fresh arrays so), and when it already has `dtype` and is
    C-contiguous.  Any other array is copied, a caller's writeable array
    and a read-only view of one included, so the container never shares
    memory that someone may still write.
    """
    if (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and a.flags.c_contiguous
        and _read_only(a)
        and (shape is None or a.shape == shape)
    ):
        return a
    a = np.array(a, dtype=dtype, order="C")
    if shape is not None and a.shape != shape:
        raise InvalidInputError(f"{what} has shape {a.shape}, expected {shape}")
    a.flags.writeable = False
    return a


def require_grid_size(nx, ny):
    """Refuse node counts below MIN_NODES, or too many for numpy to shape a
    grid's largest array, its (2, 2, nx, ny) complex frame."""
    if nx < MIN_NODES or ny < MIN_NODES:
        msg = f"grids need nx, ny >= {MIN_NODES} for the derivative stencils, got {nx} x {ny}"
    elif nx * ny * 4 * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        msg = f"a grid of {nx} x {ny} nodes is too large for numpy to shape its frame"
    else:
        return
    raise InvalidInputError(msg)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling of the conformal coordinate z = x + i y."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        require_grid_size(self.nx, self.ny)
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise InvalidInputError("grid extents must have positive length")

    @property
    def hx(self):
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def hy(self):
        return (self.y_max - self.y_min) / (self.ny - 1)

    def xs(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self):
        return np.linspace(self.y_min, self.y_max, self.ny)

    def mesh(self):
        """Coordinate arrays X, Y of shape (nx, ny)."""
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    def center_index(self):
        return (self.nx // 2, self.ny // 2)


@dataclass(frozen=True, eq=False)
class SurfaceData:
    """Conformal exponent grid with the constants Q and H: H nonzero, and
    neither so large that its square overflows a double."""

    grid: GridSpec
    u: np.ndarray
    Q: float
    H: float

    def __post_init__(self):
        if self.H == 0.0:
            raise InvalidInputError("mean curvature H must be nonzero")
        for name in ("H", "Q"):
            value = float(getattr(self, name))
            try:
                value**2  # as `gauss_residual` squares it
            except OverflowError:
                msg = f"{name} = {value:g} is too large: its square overflows"
                raise InvalidInputError(msg) from None
        shape = (self.grid.nx, self.grid.ny)
        object.__setattr__(self, "u", _locked(self.u, float, shape, "u"))

    @property
    def normalized(self):
        """True when H = 2Q holds exactly."""
        return self.H == 2.0 * self.Q

    @cached_property
    def residual(self):
        """`gauss_residual` of this data, taken once: u is read-only."""
        return _frozen(gauss_residual(self))


def cylinder_data(grid, H=0.5):
    """Round-cylinder data: u = 0 and normalized Q = H/2 on the whole grid."""
    return SurfaceData(grid, _frozen(np.zeros((grid.nx, grid.ny))), Q=0.5 * H, H=H)


def _integrate_profile(H, x0, x1, u0, du0, n_steps):
    """Classical RK4 on (u, u') for u'' = 4Q^2 e^{-2u} - H^2 e^{2u}, Q = H/2,
    in n_steps equal steps from x0 to x1; the steps run inline, with the
    constants 4Q^2, H^2, h/2 and h/6 taken once."""
    if n_steps > MAX_PROFILE_STEPS:
        raise InvalidInputError(
            f"x range too wide: the profile would take {n_steps:.3g} RK4 steps "
            f"of at most {PROFILE_STEP:g}, more than {MAX_PROFILE_STEPS:.0e}"
        )
    h = (x1 - x0) / n_steps
    half, sixth = 0.5 * h, h / 6.0
    exp = math.exp
    us = np.empty(n_steps + 1)
    dus = np.empty(n_steps + 1)
    us[0], dus[0] = u0, du0
    u, v = u0, du0
    k = 0
    try:
        Q = 0.5 * H
        # like exp, ** raises OverflowError: a huge H blows up at the first step
        four_q2, h2 = 4.0 * Q**2, H**2
        for k in range(n_steps):
            # stage s has the slopes (ks_u, ks_v); k1_u is v itself
            k1v = four_q2 * exp(-2.0 * u) - h2 * exp(2.0 * u)
            k2u, w = v + half * k1v, u + half * v
            k2v = four_q2 * exp(-2.0 * w) - h2 * exp(2.0 * w)
            k3u, w = v + half * k2v, u + half * k2u
            k3v = four_q2 * exp(-2.0 * w) - h2 * exp(2.0 * w)
            k4u, w = v + h * k3v, u + h * k3u
            k4v = four_q2 * exp(-2.0 * w) - h2 * exp(2.0 * w)
            u, v = (
                u + sixth * (v + 2.0 * k2u + 2.0 * k3u + k4u),
                v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
            )
            if abs(u) > BLOWUP_LIMIT:
                raise IntegrationBlowupError(
                    f"profile left the representable range near x = {x0 + (k + 1) * h:.6g}",
                    x=x0 + (k + 1) * h,
                )
            us[k + 1], dus[k + 1] = u, v
    except OverflowError:
        raise IntegrationBlowupError(
            f"profile overflowed near x = {x0 + (k + 1) * h:.6g}",
            x=x0 + (k + 1) * h,
        ) from None
    return us, dus


def delaunay_data(grid, H, u0, du0):
    """Sample a Delaunay-type profile onto a grid, constant in y.

    The ODE is integrated with PROFILE_STEP shrunk to land exactly on every
    grid node, so the sampled values carry no interpolation error.  H = 0
    is refused by SurfaceData once the (then flat) profile is sampled.
    """
    per_cell = max(1, math.ceil(grid.hx / PROFILE_STEP))
    n = per_cell * (grid.nx - 1)
    us, _ = _integrate_profile(H, grid.x_min, grid.x_max, u0, du0, n)
    profile = us[::per_cell]
    u = np.repeat(profile[:, None], grid.ny, axis=1)
    return SurfaceData(grid, _frozen(u), Q=0.5 * H, H=H)


def gauss_residual(data):
    """Gauss-equation residual (u_xx + u_yy) - 4Q^2 e^{-2u} + H^2 e^{2u} on
    every node, with the fourth-order second differences of `_d2`."""
    u, Q, H = data.u, data.Q, data.H
    lap = _d2(u, data.grid.hx) + _along_y(_d2, u, data.grid.hy)
    return lap - 4.0 * Q**2 * np.exp(-2.0 * u) + H**2 * np.exp(2.0 * u)


def max_gauss_residual(data):
    """Largest residual magnitude, read off the data's one residual grid."""
    return float(np.max(np.abs(data.residual)))


# one-sided weights at the first two nodes of a line, over its first six.  The
# d1 rows (times 12 h) share the central rule's error term -h^4 u^(5)/30: the
# frame integrates u_x and `measure` differentiates the frame, so a jump in
# that error where the rows meet would cost an order.  The d2 rows (times
# 12 h^2) are Fornberg's (1988, Math. Comp. 51).
_D1_EDGES = ((-27.0, 58.0, -56.0, 36.0, -13.0, 2.0), (-2.0, -15.0, 28.0, -16.0, 6.0, -1.0))
_D2_EDGES = ((45.0, -154.0, 214.0, -156.0, 61.0, -10.0), (10.0, -15.0, -4.0, 14.0, -6.0, 1.0))


def _edges(out, u, weights, sign):
    """Fill the two outer nodes at each end of axis 0 of `out` from the six
    one-sided `weights` over u, mirrored at the far end with `sign`."""
    head, tail = u[:6], u[:-7:-1]  # tail: the last six nodes, last first
    for k, w in enumerate(weights):
        out[k] = sum(wi * ui for wi, ui in zip(w, head))
        out[-1 - k] = sign * sum(wi * ui for wi, ui in zip(w, tail))
    return out


def _d1(u, h):
    """Fourth-order first derivative of u along axis 0, on the whole axis."""
    out = np.empty_like(u)
    out[2:-2] = u[:-4] - u[4:] + 8.0 * (u[3:-1] - u[1:-3])
    return _edges(out, u, _D1_EDGES, -1.0) / (12.0 * h)


def _d2(u, h):
    """Fourth-order second derivative of u along axis 0, on the whole axis."""
    out = np.empty_like(u)
    out[2:-2] = 16.0 * (u[1:-3] + u[3:-1]) - (u[:-4] + u[4:]) - 30.0 * u[2:-2]
    return _edges(out, u, _D2_EDGES, 1.0) / (12.0 * h * h)


def _along_y(kernel, f, h):
    """`kernel` along axis 1 of f (swapaxes, not .T: entry axes stay last).
    Core callers pass one (nx, ny) plane; `reference.numeric_normal` passes
    (nx, ny, 4) vectors."""
    return kernel(f.swapaxes(0, 1), h).swapaxes(0, 1)


def grid_derivatives(f, hx, hy):
    """Fourth-order f_x and f_y of a field of shape (nx, ny, ...), on every
    node: central differences (1, -8, 8, -1)/12h inside, six-point one-sided
    rows on the two outer lines of each axis.  Core callers pass one
    (nx, ny) plane; `reference.numeric_normal` passes (nx, ny, 4) vectors."""
    return _d1(f, hx), _along_y(_d1, f, hy)


def grid_second_derivatives(f, fx, hx, hy):
    """Fourth-order f_xx, f_yy and f_xy of a field of shape (nx, ny, ...), on
    every node; f_xy is the y derivative of the f_x the caller holds."""
    return _d2(f, hx), _along_y(_d2, f, hy), _along_y(_d1, fx, hy)


def read_table(path, header_width, width):
    """Header line and float body of a text table; '#' and blank lines skip.

    Returns the first line as its list of fields, exactly header_width of
    them, and the rest as an array of shape (rows, width).  A line of any
    other length, or a body row that is not all numbers, raises
    InvalidInputError naming the line, which a caller running it under
    `errors.naming` leads with the file; a byte that is not UTF-8 reads as
    a character that no number holds.

    The body is read in one tokenising pass over the file (numpy's parser,
    handed the path and the count of lines above the body), which converts
    the last column row by row and keeps the other columns as text;
    `_numbers` converts only the rows of those that do not repeat an
    earlier spelling, which in a grid table are the first x line and one
    row per y line.  Both read 17-digit text back bit for bit.
    Whatever the pass cannot take is scanned again line by line by `_scan`:
    a file that is not plain ASCII or holds a NUL byte, a header of the
    wrong length, an empty body or one whose first line is blank, a line
    that is not `width` numbers (a '#' line inside the body among them) and
    a text token that fills its field.
    """
    with open(path, "rb") as fh:
        plain = _plain(fh)
    with open(path, errors="surrogateescape") as fh:
        for above, ln in enumerate(fh, 1):
            if ln[0] != "#" and not ln.isspace():
                break
        else:
            raise InvalidInputError("truncated file, header missing")
        header = ln.split()
        first = next(fh, "")
    table = None
    # a body of blank lines only would make np.loadtxt warn "input
    # contained no data", so one that starts blank goes to _scan
    if plain and len(header) == header_width and first and not first.isspace():
        table = _tokenised(path, above, width)
    if table is None:
        table = _scan(path, header_width, width)
    return header, table


def _plain(fh):
    """Whether the binary file fh is ASCII without a NUL byte: the text the
    tokenising pass keeps faithfully in fixed-width bytes fields."""
    while chunk := fh.read(1 << 16):
        if not chunk.isascii() or b"\0" in chunk:
            return False
    return True


# '%.17g' spells a double in at most 24 characters; a token that fills its
# text field may have been cut to fit
_TOKEN_BYTES = 25


def _tokenised(path, above, width):
    """The table below the first `above` lines of the file at `path` as
    floats, or None if `_scan` must read it.  numpy reads a path in chunks;
    any other source it iterates line by line."""
    fields = [(f"f{k}", f"S{_TOKEN_BYTES}") for k in range(width - 1)]
    try:
        body = np.loadtxt(
            path, dtype=fields + [("last", float)], comments=None, skiprows=above, ndmin=1
        )
        table = np.empty((len(body), width))
        table[:, -1] = body["last"]
        for k, (name, _) in enumerate(fields):
            text = body[name]
            if (np.char.str_len(text) == _TOKEN_BYTES).any():
                return None
            table[:, k] = _numbers(text)
    except ValueError:
        return None
    return table


def _numbers(text):
    """float() of each spelling in the 1-d bytes array text.

    With p the first row that repeats row 0's spelling, a row that repeats
    the spelling of the row p above it takes that row's number, and only
    the other rows are converted: in a grid table the first x line for x
    (p = nx) and the first row of each y line for y (p = 1).  A spelling
    float() refuses raises ValueError.
    """
    n = len(text)
    repeats = np.flatnonzero(text[1:] == text[0])
    p = int(repeats[0]) + 1 if repeats.size else n
    fresh = np.ones(n, bool)
    fresh[p:] = text[p:] != text[:-p]
    rows = np.flatnonzero(fresh)
    values = np.array([float(s) for s in text[rows].tolist()])
    # each row's index into values: that of the last fresh row up its
    # column of period p, whose spelling it repeats
    at = np.zeros(-(-n // p) * p, np.intp)
    at[rows] = np.arange(len(rows))
    np.maximum.accumulate(at.reshape(-1, p), axis=0, out=at.reshape(-1, p))
    return values[at[:n]]


def _scan(path, header_width, width):
    """The body of `read_table`, parsed one line at a time with float().

    Raises on a header line of the wrong length or the first body row that
    is not exactly `width` numbers, naming its line.  A file with none
    returns its body as parsed: float() also takes spellings numpy's parser
    refuses, such as "1_0" or digits outside ASCII.
    """
    body, header_seen = [], False
    with open(path, errors="surrogateescape") as fh:
        for n, ln in enumerate(fh, 1):
            if ln[0] == "#" or ln.isspace():
                continue
            fields = ln.split()
            if not header_seen:
                header_seen = True
                if len(fields) != header_width:
                    raise InvalidInputError(f"line {n}: expected {header_width} header fields")
                continue
            if len(fields) != width:
                raise InvalidInputError(f"line {n}: expected {width} fields")
            try:
                body.append([float(v) for v in fields])
            except ValueError:
                raise InvalidInputError(f"line {n}: non-numeric entry") from None
    return np.array(body).reshape(len(body), width)


# -- exact 17-digit text, spelled in whole-array steps ------------------------
#
# A double x with 1e-28 <= |x| < 1e16 and decimal exponent X = floor(log10|x|)
# has the 17 significant digits N = round(|x| 10^p), p = 16 - X.  Each power
# 10^p (p <= 45, so 5^p < 2^106) is exactly the sum of two doubles P + P', and
# Dekker's TwoProduct (Dekker 1971, Numer. Math. 18) splits |x| P into
# hi + e with no error at all.  So |x| 10^p = hi + lo with lo = e + |x| P',
# up to the roundings of |x| P', of that sum and of frac(lo): together at
# most 2^-106 |x| 10^p + 2^-49 + 2^-54 < 3.1e-15 while |x| 10^p < 1e17
# (|e| <= 8, |x| P' < 12, so |lo| < 32).  hi is an integer past 2^53, so
# N = hi + floor(lo) + (frac(lo) > 1/2).  CPython's own _FALLBACK spells,
# in one batched % per block,
#   - values whose computed frac(lo) lies within _TIE_BAND of 1/2, over
#     3000 times that bound, where the rounding could go either way; exact
#     decimal ties are among them;
#   - values whose N is not strictly between 10^16 and 10^17 - 1, where X
#     may be one off (log10 rounds) or N may carry into an 18th digit;
#   - zero, non-finite values and magnitudes outside [1e-28, 1e16).
_TIE_BAND = 1e-11
_X_MIN, _X_MAX = -28, 15
_FALLBACK = b"%.17g"
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    """a as hi + lo exactly, each with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _word(text):
    """Up to four ASCII bytes as one little-endian word, NUL padded."""
    return int.from_bytes(text.ljust(4, b"\0"), "little")


_P10 = np.array([float(10**p) for p in range(46)])
_P10_REST = np.array([float(10**p - int(_P10[p])) for p in range(46)])
_P10_HI, _P10_LO = _split(_P10)  # P's halves for TwoProduct


def _group_words():
    """Every 4-digit group as a word, in three runs of 10000: plain, leading
    zeros blanked (the top group of an integer part) and trailing zeros
    blanked (the last group of a fraction); the last two blank 0000."""
    digits = np.frombuffer(b"".join(b"%04d" % g for g in range(10000)), np.uint8)
    digits = digits.reshape(10000, 4)
    lit = digits != ord("0")
    leading = np.logical_or.accumulate(lit, axis=1)
    trailing = np.logical_or.accumulate(lit[:, ::-1], axis=1)[:, ::-1]
    runs = [digits, np.where(leading, digits, 0), np.where(trailing, digits, 0)]
    return np.concatenate(runs).astype(np.uint8).view("<u4").ravel()


_GROUPS = _group_words()
_LEADING, _TRAILING = 10000, 20000  # where those runs start in _GROUPS

# Exponent classes X_MIN..X_MAX, then the fallback class.  A number of class
# X is spelled, after its separator and sign, in the words
#   integer   N // E, 4 digits a word, leading zeros blanked (X >= 0; the
#             last word also carries "0." for -4 <= X < 0)
#   point     "." (X >= 0), "d." (X < -4) or "0..0d" (-4 <= X < 0), with d
#             the leading digit N // E; no "." when the fraction is zero
#   fraction  (N % E) M, 16 places, trailing zeros blanked
#   exponent  "e-XX" (X < -4)
# The fallback class is blank in all of them; its text, at most 24
# characters, goes in the first _FALLBACK_WORDS digit words instead.
_FALLBACK_CLASS = _X_MAX - _X_MIN + 1
_FALLBACK_WORDS = 7  # one integer word at least, point, 4 fraction, exponent


def _class_tables():
    """Per class: E, M, whether N // E is the leading digit d, and the words
    of the units ("0."), the point (indexed [class, d, fraction is zero])
    and the exponent."""
    n = _FALLBACK_CLASS + 1
    E = np.full(n, 10**16, np.int64)
    M = np.ones(n, np.int64)
    lead_digit = np.zeros(n, np.int64)
    units = np.zeros(n, np.uint32)
    point = np.zeros((n, 10, 2), np.uint32)  # [class, d, fraction is zero]
    exp = np.zeros(n, np.uint32)
    for c, X in enumerate(range(_X_MIN, _X_MAX + 1)):
        if X >= 0:
            E[c], M[c] = 10 ** (16 - X), 10**X
            point[c, :, 0] = _word(b".")
            continue
        lead_digit[c] = 1
        for d in range(1, 10):
            if X < -4:
                point[c, d] = _word(b"%d." % d), _word(b"%d" % d)
            else:
                point[c, d] = _word(b"0" * (-X - 1) + b"%d" % d)
        if X < -4:
            exp[c] = _word(b"e-%02d" % -X)
        else:
            units[c] = _word(b"0.".rjust(4, b"\0"))
    return E, M, lead_digit, units, point.ravel(), exp


_C_E, _C_M, _C_LEAD_DIGIT, _C_UNITS, _C_POINT, _C_EXP = _class_tables()
_MINUS = np.uint32(ord("-") << 24)  # in the last byte of a lead word
_ZERO = np.uint32(ord("0") << 24)  # an integer's "0", last in its word
_BLANK = np.uint32(0)

# numbers of the full columns per block, or grid points in a table without
# one: enough to amortise numpy's per-call cost, few enough that the block's
# arrays stay small next to the tables being written
_BLOCK_VALUES = 8192


def _digits(x):
    """(class, N) of each double of the 1-d array x.

    The class is X - _X_MIN for a number whose 17 significant digits N and
    decimal exponent X the kernel found (see above), _FALLBACK_CLASS with
    N = 0 for every other number.
    """
    a = np.abs(x)
    ok = (a >= 1e-28) & (a < 1e16)
    a = np.where(ok, a, 2.0)
    X = np.floor(np.log10(a)).astype(np.intp)
    p = 16 - X
    hi = a * _P10[p]
    ah, al = _split(a)
    bh, bl = _P10_HI[p], _P10_LO[p]
    lo = (((ah * bh - hi) + ah * bl + al * bh) + al * bl) + a * _P10_REST[p]
    fl = np.floor(lo)
    frac = lo - fl
    N = hi.astype(np.int64) + (fl + (frac > 0.5)).astype(np.int64)
    ok &= (np.abs(frac - 0.5) > _TIE_BAND) & (N > 10**16) & (N < 10**17 - 1)
    return np.where(ok, X - _X_MIN, _FALLBACK_CLASS), np.where(ok, N, 0)


def _divmod(a, b):
    """np.divmod(a, b) for integers a >= 0 and b > 0, at about half its cost."""
    q = a // b
    return q, a - q * b


def _number_words(x, lead):
    """The 4-byte words that spell the numbers of the 1-d array x, as a
    (words, numbers) array.

    Each number's first words are `lead`, a (words, 1) or (words, numbers)
    array: its separator, with a minus in the last byte of the last word when
    the number is negative.  The digit words follow (see _class_tables): a
    double as '%.17g' spells it, through `_digits`; an integer, which must
    lie below 2**53 in magnitude, in its integer words alone, with zero as
    "0".  Words blank for every number are left out.
    """
    integer = x.dtype.kind in "iu"
    if integer:
        I = np.abs(x).astype(np.int64, copy=False)
        negative = x < 0
    else:
        c, N = _digits(x)
        I, F = _divmod(N, _C_E[c])
        F *= _C_M[c]
        d = I * _C_LEAD_DIGIT[c]
        I -= d
        negative = (x < 0) & (c != _FALLBACK_CLASS)
    lead = np.broadcast_to(lead, (len(lead), len(x)))
    words = [*lead[:-1], lead[-1] | np.where(negative, _MINUS, _BLANK)]
    rest = I
    for g in range((len(str(I.max())) - 1) // 4, 0, -1):
        group, rest = _divmod(rest, 10 ** (4 * g))
        words.append(_GROUPS[group + _LEADING * (I < 10 ** (4 * g + 4))])
    words.append(_GROUPS[rest + _LEADING * (I < 10000)])
    if integer:
        words[-1] |= np.where(I == 0, _ZERO, _BLANK)
        return np.stack([w for w in words if w.any()])
    words[-1] |= _C_UNITS[c]
    words.append(_C_POINT[(c * 10 + d) * 2 + (F == 0)])
    hi8, lo8 = _divmod(F, 10**8)
    for g8, rest_zero in ((hi8, lo8 == 0), (lo8, True)):
        g4, g4_rest = _divmod(g8, 10000)
        words.append(_GROUPS[g4 + _TRAILING * (rest_zero & (g4_rest == 0))])
        words.append(_GROUPS[g4_rest + _TRAILING * rest_zero])
    words.append(_C_EXP[c])
    fallback = np.flatnonzero(c == _FALLBACK_CLASS)
    if fallback.size:
        text = b" ".join([_FALLBACK] * fallback.size) % tuple(x[fallback].tolist())
        spelled = np.array(text.split(), f"S{4 * _FALLBACK_WORDS}").view("<u4")
        for row, fill in zip(words[len(lead):], spelled.reshape(-1, _FALLBACK_WORDS).T):
            row[fallback] = fill
    return np.stack([w for w in words if w.any()])


def table_lines(columns, prefix=""):
    """The bytes of a grid table, a few grid lines at a time.

    `columns` are k arrays that broadcast to one (nx, ny) grid, or one
    (k, nx, ny) array.  Each grid
    point is one line: `prefix`, then its k numbers joined by spaces, x
    fastest.  Doubles are spelled byte for byte as '%.17g' does, so they
    round-trip exactly.  Integer columns are spelled as integers, which
    '%.17g' prints alike below 2**53; larger entries are refused.

    The trailing run, the full (nx, ny) columns at the end that share the
    last column's kind (integer or double), goes through one `_number_words`
    call per block of grid lines.  Every column before it is spelled once,
    whole, at its own shape, and its words are broadcast into every block:
    once per distinct value for an (nx, 1), (1, ny) or (1, 1) column, once
    per node for a full column (the writers put none there).  Every number
    sits in fixed 4-byte words with NUL bytes where it has no character,
    each line of a block in one row of words, and bytes.translate deletes
    the NULs.  A line's first number leads with the newline that ends the
    line above, and `prefix`.
    """
    columns = [np.atleast_2d(c) for c in columns]
    columns = [c if c.dtype.kind in "iu" else c.astype(float, copy=False) for c in columns]
    nx, ny = np.broadcast_shapes(*(c.shape for c in columns))
    head = b"\n" + prefix.encode()
    size = 4 * ((len(head) + 4) // 4)  # whole words, the sign in the last byte
    lead = [np.frombuffer(text.ljust(size, b"\0"), "<u4")[:, None]
            for text in [head] + [b" "] * (len(columns) - 1)]
    integer = [c.dtype.kind in "iu" for c in columns]
    for c, i in zip(columns, integer):
        if i and c.size and (int(c.min()) <= -(2**53) or int(c.max()) >= 2**53):
            raise ValueError("integer table entries must lie below 2**53 in magnitude")
    k = len(columns)  # the trailing run is columns[k:]
    while k and columns[k - 1].shape == (nx, ny) and integer[k - 1] == integer[-1]:
        k -= 1
    once = []  # the words of each column before the run, (ny, nx, 1, words)
    for n, c in enumerate(columns[:k]):
        w = _number_words(c.T.ravel(), lead[n])
        once.append(np.broadcast_to(w.T.reshape(*c.T.shape, 1, len(w)), (ny, nx, 1, len(w))))
    run = columns[k:]
    step = max(1, _BLOCK_VALUES // (nx * max(1, len(run))))
    if run:
        run_lead = np.tile(np.hstack(lead[k:]), step * nx)
    for j0 in range(0, ny, step):
        lines = slice(j0, j0 + step)
        m = min(step, ny - j0)
        spelled = [w[lines] for w in once]
        if run:
            x = np.empty((m, nx, len(run)), np.int64 if integer[-1] else float)
            for q, c in enumerate(run):
                x[:, :, q] = c[:, lines].T
            w = _number_words(x.ravel(), run_lead[:, :x.size])
            spelled.append(w.reshape(len(w), m, nx, len(run)).transpose(1, 2, 3, 0))
        out = np.empty((m, nx, sum(w.shape[2] * w.shape[3] for w in spelled)), np.uint32)
        a = 0
        for w in spelled:
            width = w.shape[2] * w.shape[3]
            out[:, :, a:a + width].reshape(w.shape)[...] = w  # a view: splits the word axis
            a += width
        text = out.tobytes().translate(None, b"\0")
        yield text[1:] if j0 == 0 else text
    yield b"\n"


def write_table(fh, columns, prefix=""):
    """Write the grid table `table_lines` spells to the binary file fh."""
    fh.writelines(table_lines(columns, prefix))


def save_surface_data(path, data):
    """Write the plain text tabular format read by `load_surface_data`.

    A u constant along y bit for bit, as a built-in family's is, goes to
    the writer as its first x line u[:, :1], so each of its nx values is
    spelled once, not once per node; the bytes are the same.
    """
    g = data.grid
    u = data.u
    bits = u.view(np.int64)  # bits, so that -0.0 and 0.0 stay apart
    if (bits == bits[:, :1]).all():
        u = u[:, :1]
    with open(path, "wb") as fh:
        fh.write(b"# surface data: header 'Q H nx ny', then rows 'x y u' (x fastest)\n")
        write_table(fh, (data.Q, data.H, g.nx, g.ny))  # the header
        write_table(fh, (g.xs()[:, None], g.ys()[None, :], u))


def load_surface_data(path):
    """Read a u-grid from the documented tabular format.

    Format: optional '#' comment lines, one header line `Q H nx ny`, then
    nx*ny rows `x y u` with x varying fastest.  The first and last rows of
    the first x line and of the first y column give the grid extents, and
    every row must lie on its grid node.  Every number must be finite, and
    a Q or H that `SurfaceData` refuses is refused; each refusal is an
    InvalidInputError led by the file's path (`errors.naming`).  H and Q
    are taken as given, so loaded data may be non-normalized; check
    `SurfaceData.normalized` before verification runs.

    The rows come from `read_table`: u is converted row by row, x and y
    once per spelling of the first x line and of each y line, so a file
    that spells a coordinate another way on some rows loads the same
    values and meets the same on-node check.
    """
    with naming(path):
        head, table = read_table(path, 4, 3)
        try:
            Q, H = float(head[0]), float(head[1])
            nx, ny = int(head[2]), int(head[3])
        except ValueError as exc:
            raise InvalidInputError("malformed header line") from exc
        if not (math.isfinite(Q) and math.isfinite(H)):
            raise InvalidInputError(f"header Q = {Q}, H = {H} must be finite")
        require_grid_size(nx, ny)
        if len(table) != nx * ny:
            raise InvalidInputError(f"expected {nx * ny} data rows, found {len(table)}")
        bad = ~np.isfinite(table).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            raise InvalidInputError(
                f"data row {k + 1} has (x, y, u) = {tuple(table[k].tolist())}, not all finite"
            )
        xs = table[:nx, 0]
        ys = table[::nx, 1]
        grid = GridSpec(
            x_min=float(xs[0]), x_max=float(xs[-1]),
            y_min=float(ys[0]), y_max=float(ys[-1]),
            nx=nx, ny=ny,
        )
        # every row must sit on its node of the grid the corner rows span
        xs, ys = grid.xs(), grid.ys()
        off = np.abs(table[:, 0].reshape(ny, nx) - xs) > GRID_NODE_RTOL * grid.hx
        off |= np.abs(table[:, 1].reshape(ny, nx) - ys[:, None]) > GRID_NODE_RTOL * grid.hy
        if off.any():
            k = int(np.argmax(off))  # rows run x fastest, as off flattens
            raise InvalidInputError(
                f"data row {k + 1} has (x, y) = {tuple(table[k, :2].tolist())}, "
                f"not grid node {float(xs[k % nx]), float(ys[k // nx])}"
            )
        u = table[:, 2].reshape(ny, nx).T
        return SurfaceData(grid, u, Q=Q, H=H)
