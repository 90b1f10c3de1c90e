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
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationBlowupError, InvalidInputError

# |u| beyond this makes e^{2u} useless in double precision; treat as blowup.
BLOWUP_LIMIT = 200.0

# a loaded row's x or y may miss its grid node by this share of the spacing
GRID_NODE_RTOL = 1e-6

# fewest nodes per axis that leave an interior for the second-order stencils
MIN_NODES = 5


def _locked(a, dtype=float, shape=None, what=None):
    """A read-only copy of `a`; refused unless of `shape`, when one is given."""
    a = np.array(a, dtype=dtype)
    if shape is not None and a.shape != shape:
        raise InvalidInputError(f"{what} has shape {a.shape}, expected {shape}")
    a.flags.writeable = False
    return a


def require_grid_size(nx, ny, where=None):
    """Refuse node counts below MIN_NODES, naming `where` (a file) if given."""
    if nx < MIN_NODES or ny < MIN_NODES:
        msg = f"grids need nx, ny >= {MIN_NODES} for interior stencils, got {nx} x {ny}"
        raise InvalidInputError(msg if where is None else f"{where}: {msg}")


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
    """Conformal exponent grid with the constants Q and H (H nonzero)."""

    grid: GridSpec
    u: np.ndarray
    Q: float
    H: float

    def __post_init__(self):
        if self.H == 0.0:
            raise InvalidInputError("mean curvature H must be nonzero")
        shape = (self.grid.nx, self.grid.ny)
        object.__setattr__(self, "u", _locked(self.u, float, shape, "u"))

    @property
    def normalized(self):
        """True when H = 2Q holds exactly."""
        return self.H == 2.0 * self.Q


def cylinder_data(grid, H=0.5):
    """Round-cylinder data: u = 0 and normalized Q = H/2 on the whole grid."""
    return SurfaceData(grid, np.zeros((grid.nx, grid.ny)), Q=0.5 * H, H=H)


@dataclass(frozen=True, eq=False)
class DelaunayProfile:
    """Dense solution of the reduced Gauss equation u'' = 4Q^2 e^{-2u} - H^2 e^{2u}."""

    xs: np.ndarray
    us: np.ndarray
    dus: np.ndarray
    Q: float
    H: float

    def energy(self):
        """Conserved energy (1/2) u'^2 + 2 Q^2 e^{-2u} + (1/2) H^2 e^{2u}."""
        return (
            0.5 * self.dus**2
            + 2.0 * self.Q**2 * np.exp(-2.0 * self.us)
            + 0.5 * self.H**2 * np.exp(2.0 * self.us)
        )

    def energy_drift(self):
        e = self.energy()
        return float(np.max(np.abs(e - e[0])))


def _profile_rhs(u, v, Q, H):
    return v, 4.0 * Q**2 * math.exp(-2.0 * u) - H**2 * math.exp(2.0 * u)


def _profile_step(u, v, h, Q, H):
    # classical RK4 on (u, v)
    k1u, k1v = _profile_rhs(u, v, Q, H)
    k2u, k2v = _profile_rhs(u + 0.5 * h * k1u, v + 0.5 * h * k1v, Q, H)
    k3u, k3v = _profile_rhs(u + 0.5 * h * k2u, v + 0.5 * h * k2v, Q, H)
    k4u, k4v = _profile_rhs(u + h * k3u, v + h * k3v, Q, H)
    return (
        u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
        v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def _integrate_profile(H, x0, x1, u0, du0, n_steps):
    Q = 0.5 * H
    h = (x1 - x0) / n_steps
    us = np.empty(n_steps + 1)
    dus = np.empty(n_steps + 1)
    us[0], dus[0] = u0, du0
    u, v = u0, du0
    for k in range(n_steps):
        try:
            u, v = _profile_step(u, v, h, Q, H)
        except OverflowError:
            raise IntegrationBlowupError(
                f"profile overflowed near x = {x0 + (k + 1) * h:.6g}",
                x=x0 + (k + 1) * h,
            ) from None
        if abs(u) > BLOWUP_LIMIT:
            raise IntegrationBlowupError(
                f"profile left the representable range near x = {x0 + (k + 1) * h:.6g}",
                x=x0 + (k + 1) * h,
            )
        us[k + 1], dus[k + 1] = u, v
    return us, dus


def delaunay_profile(H, x_range, u0, du0, step=1e-3):
    """Integrate the translation-invariant Gauss equation along x.

    Initial data (u0, du0) is imposed at x_range[0]; Q = H/2 is forced by
    the normalization.  The step is shrunk so the range divides evenly.
    """
    if H == 0.0:
        raise InvalidInputError("H must be nonzero")
    if not step > 0.0:
        raise InvalidInputError("step must be positive")
    x0, x1 = float(x_range[0]), float(x_range[1])
    if not x1 > x0:
        raise InvalidInputError("x_range must be increasing")
    n = max(1, math.ceil((x1 - x0) / step))
    us, dus = _integrate_profile(H, x0, x1, u0, du0, n)
    xs = np.linspace(x0, x1, n + 1)
    return DelaunayProfile(
        xs=_locked(xs), us=_locked(us), dus=_locked(dus), Q=0.5 * H, H=H
    )


def delaunay_data(grid, H, u0, du0, step=1e-3):
    """Sample a Delaunay-type profile onto a grid, constant in y.

    The ODE is integrated with a step that lands exactly on every grid
    node, so the sampled values carry no interpolation error.  H = 0 is
    refused by SurfaceData once the (then flat) profile is sampled.
    """
    if not step > 0.0:
        raise InvalidInputError("step must be positive")
    per_cell = max(1, math.ceil(grid.hx / step))
    n = per_cell * (grid.nx - 1)
    us, _ = _integrate_profile(H, grid.x_min, grid.x_max, u0, du0, n)
    profile = us[::per_cell]
    u = np.repeat(profile[:, None], grid.ny, axis=1)
    return SurfaceData(grid, u, Q=0.5 * H, H=H)


def gauss_residual(data):
    """Gauss-equation residual (u_xx + u_yy) - 4Q^2 e^{-2u} + H^2 e^{2u}.

    Second-order central differences, so it exists on the interior nodes
    only: shape (nx - 2, ny - 2), entry (i, j) at grid node (i + 1, j + 1).
    """
    u, Q, H = data.u, data.Q, data.H
    hx, hy = data.grid.hx, data.grid.hy
    core = u[1:-1, 1:-1]
    lap = (u[2:, 1:-1] - 2.0 * core + u[:-2, 1:-1]) / hx**2 + (
        u[1:-1, 2:] - 2.0 * core + u[1:-1, :-2]
    ) / hy**2
    return lap - 4.0 * Q**2 * np.exp(-2.0 * core) + H**2 * np.exp(2.0 * core)


def max_gauss_residual(data):
    """Largest residual magnitude."""
    return float(np.max(np.abs(gauss_residual(data))))


def dual_data(data):
    """Christoffel-dual data: u -> -u with Q and H unchanged (involution)."""
    return SurfaceData(data.grid, -data.u, Q=data.Q, H=data.H)


def grid_derivatives(u, hx, hy):
    """Second-order u_x and u_y on the whole grid.

    Central differences inside, one-sided three-point stencils on the two
    boundary lines of each axis.
    """
    ux = np.empty_like(u)
    uy = np.empty_like(u)
    ux[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2.0 * hx)
    ux[0, :] = (-3.0 * u[0, :] + 4.0 * u[1, :] - u[2, :]) / (2.0 * hx)
    ux[-1, :] = (3.0 * u[-1, :] - 4.0 * u[-2, :] + u[-3, :]) / (2.0 * hx)
    uy[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * hy)
    uy[:, 0] = (-3.0 * u[:, 0] + 4.0 * u[:, 1] - u[:, 2]) / (2.0 * hy)
    uy[:, -1] = (3.0 * u[:, -1] - 4.0 * u[:, -2] + u[:, -3]) / (2.0 * hy)
    return ux, uy


def read_table(path, header_width, width):
    """Header line and float body of a text table; '#' and blank lines skip.

    Returns the first line as its list of fields, exactly header_width of
    them, and the rest as an array of shape (rows, width).  A line of any
    other length, or a body row that is not all numbers, raises
    InvalidInputError naming the file and the line.  The body goes through
    numpy's parser, which reads 17-digit text back bit for bit; whatever it
    or the header check refuses is scanned again line by line by `_scan`.
    """
    with open(path) as fh:
        kept = [ln for ln in fh if ln[0] != "#" and not ln.isspace()]
    if not kept:
        raise InvalidInputError(f"{path}: truncated file, header missing")
    header, body = kept[0].split(), kept[1:]
    table = None
    if len(header) == header_width:
        if not body:  # np.loadtxt would warn "input contained no data"
            return header, np.empty((0, width))
        try:
            table = np.loadtxt(body, comments=None, ndmin=2)
        except ValueError:
            pass
    if table is None or table.shape[1] != width:
        table = _scan(path, header_width, width)
    return header, table


def _scan(path, header_width, width):
    """The body of `read_table`, parsed one line at a time with float().

    Raises on a header line of the wrong length or the first body row that
    is not exactly `width` numbers, naming its line.  A file with none
    returns its body as parsed: float() also takes spellings numpy's parser
    refuses, such as "1_0".
    """
    body, header_seen = [], False
    with open(path) as fh:
        for n, ln in enumerate(fh, 1):
            if ln[0] == "#" or ln.isspace():
                continue
            fields = ln.split()
            if not header_seen:
                header_seen = True
                if len(fields) != header_width:
                    msg = f"{path}: line {n}: expected {header_width} header fields"
                    raise InvalidInputError(msg)
                continue
            if len(fields) != width:
                raise InvalidInputError(f"{path}: line {n}: expected {width} fields")
            try:
                body.append([float(v) for v in fields])
            except ValueError:
                msg = f"{path}: line {n}: non-numeric entry"
                raise InvalidInputError(msg) from None
    return np.array(body)


def table_lines(table, prefix=""):
    """The text of a (nx, ny, k) grid table, one string per grid line.

    Each point is one line of k numbers, x fastest, at 17 significant
    digits so doubles round-trip exactly.  Integer tables print as
    integers, as "%.17g" prints them below 2**53, without the detour
    through float.
    """
    field = "%d" if table.dtype.kind in "iu" else "%.17g"
    row = prefix + " ".join([field] * table.shape[-1]) + "\n"
    for line in table.swapaxes(0, 1):  # one grid line at a time bounds memory
        yield (row * len(line)) % tuple(line.ravel().tolist())


def write_table(fh, table, prefix=""):
    """Write a (nx, ny, k) grid table as `table_lines` spells it."""
    fh.writelines(table_lines(table, prefix))


def save_surface_data(path, data):
    """Write the plain text tabular format read by `load_surface_data`."""
    with open(path, "w") as fh:
        fh.write("# surface data: header 'Q H nx ny', then rows 'x y u' (x fastest)\n")
        fh.write(f"{data.Q:.17g} {data.H:.17g} {data.grid.nx} {data.grid.ny}\n")
        write_table(fh, np.stack([*data.grid.mesh(), data.u], axis=-1))


def load_surface_data(path):
    """Read a u-grid from the documented tabular format.

    Format: optional '#' comment lines, one header line `Q H nx ny`, then
    nx*ny rows `x y u` with x varying fastest.  The first and last rows of
    the first x line and of the first y column give the grid extents, and
    every row must lie on its grid node.  Every number must be finite.  H
    and Q are taken as given, so loaded data may be non-normalized; check
    `SurfaceData.normalized` before verification runs.
    """
    head, table = read_table(path, 4, 3)
    try:
        Q, H = float(head[0]), float(head[1])
        nx, ny = int(head[2]), int(head[3])
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed header line") from exc
    if not (math.isfinite(Q) and math.isfinite(H)):
        raise InvalidInputError(f"{path}: header Q = {Q}, H = {H} must be finite")
    require_grid_size(nx, ny, path)
    if len(table) != nx * ny:
        raise InvalidInputError(
            f"{path}: expected {nx * ny} data rows, found {len(table)}"
        )
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise InvalidInputError(
            f"{path}: data row {k + 1} has (x, y, u) = {tuple(table[k].tolist())}, "
            "not all finite"
        )
    xs = table[:nx, 0]
    ys = table[::nx, 1]
    try:
        grid = GridSpec(
            x_min=float(xs[0]), x_max=float(xs[-1]),
            y_min=float(ys[0]), y_max=float(ys[-1]),
            nx=nx, ny=ny,
        )
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    # every row must sit on its node of the grid the corner rows span
    xs, ys = grid.xs(), grid.ys()
    off = np.abs(table[:, 0].reshape(ny, nx) - xs) > GRID_NODE_RTOL * grid.hx
    off |= np.abs(table[:, 1].reshape(ny, nx) - ys[:, None]) > GRID_NODE_RTOL * grid.hy
    if off.any():
        k = int(np.argmax(off))  # rows run x fastest, as off flattens
        raise InvalidInputError(
            f"{path}: data row {k + 1} has (x, y) = {tuple(table[k, :2].tolist())}, "
            f"not grid node {float(xs[k % nx]), float(ys[k // nx])}"
        )
    u = table[:, 2].reshape(ny, nx).T
    return SurfaceData(grid, u, Q=Q, H=H)
