"""Tests for grid data generation, the Gauss residual, and duality."""

import decimal
import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cmclab import surface_data
from cmclab.errors import IntegrationBlowupError, InvalidInputError
from cmclab.reference import delaunay_profile, dual_data, edge_row
from cmclab.surface_data import (
    MIN_NODES,
    GridSpec,
    SurfaceData,
    cylinder_data,
    delaunay_data,
    gauss_residual,
    grid_derivatives,
    grid_second_derivatives,
    load_surface_data,
    max_gauss_residual,
    read_table,
    save_surface_data,
    table_lines,
    write_table,
)


def small_grid(n=11, half=1.0):
    return GridSpec(-half, half, -half, half, n, n)


def bisect_root(f, lo, hi, tol=1e-12):
    """Plain bisection; independent oracle for turning-point levels."""
    flo = f(lo)
    assert flo * f(hi) < 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestGridSpec:
    def test_spacing(self):
        g = GridSpec(-1.0, 1.0, -2.0, 2.0, 101, 41)
        assert g.hx == pytest.approx(0.02)
        assert g.hy == pytest.approx(0.1)

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidInputError):
            GridSpec(-1.0, 1.0, -1.0, 1.0, 4, 11)

    def test_rejects_empty_extent(self):
        with pytest.raises(InvalidInputError):
            GridSpec(1.0, -1.0, -1.0, 1.0, 11, 11)


class TestCylinderData:
    def test_values(self):
        d = cylinder_data(small_grid())
        assert np.all(d.u == 0.0)
        assert d.Q == 0.25 and d.H == 0.5
        assert d.H == 2.0 * d.Q
        assert d.normalized

    def test_residual_is_exactly_zero(self):
        g = small_grid()
        r = gauss_residual(cylinder_data(g))
        assert np.all(r == 0.0)
        assert r.shape == (g.nx, g.ny)


class TestDelaunayProfile:
    def test_equilibrium_stays_constant(self):
        p = delaunay_profile(0.5, (0.0, 5.0), 0.0, 0.0)
        assert np.max(np.abs(p.us)) < 1e-14

    def test_energy_conservation(self):
        p = delaunay_profile(0.5, (0.0, 10.0), 0.3, 0.0)
        assert p.energy_drift() <= 1e-8

    def test_oscillation_extrema_match_bisection(self):
        p = delaunay_profile(0.5, (0.0, 20.0), 0.3, 0.0)
        assert np.max(p.us) == pytest.approx(0.3, abs=1e-6)
        # independent oracle: the lower turning point solves
        # 2 Q^2 e^{-2u} + H^2 e^{2u} / 2 = E(0) for u < 0
        Q, H = 0.25, 0.5
        e0 = 2.0 * Q**2 * np.exp(-0.6) + 0.5 * H**2 * np.exp(0.6)
        root = bisect_root(
            lambda u: 2.0 * Q**2 * np.exp(-2 * u) + 0.5 * H**2 * np.exp(2 * u) - e0,
            -1.0,
            -0.05,
        )
        assert root == pytest.approx(-0.3, abs=1e-9)
        assert np.min(p.us) == pytest.approx(root, abs=1e-6)

    def test_blowup_is_reported_with_location(self):
        with pytest.raises(IntegrationBlowupError) as err:
            delaunay_profile(0.5, (0.0, 400.0), 150.0, 0.0)
        assert err.value.x > 0.0

    def test_rejects_zero_h(self):
        with pytest.raises(InvalidInputError):
            delaunay_profile(0.0, (0.0, 1.0), 0.1, 0.0)

    def test_data_rejects_zero_h(self):
        # the profile integrates flat; SurfaceData refuses H = 0
        with pytest.raises(InvalidInputError, match="mean curvature H must be nonzero"):
            delaunay_data(small_grid(n=9), 0.0, 0.3, 0.1)


class TestGaussResidual:
    def test_delaunay_residual_small(self):
        d = delaunay_data(small_grid(n=51), 0.5, 0.3, 0.0)
        assert max_gauss_residual(d) < 1e-3

    def test_residual_second_order(self):
        coarse = delaunay_data(GridSpec(-1, 1, -1, 1, 51, 51), 0.5, 0.3, 0.0)
        fine = delaunay_data(GridSpec(-1, 1, -1, 1, 101, 101), 0.5, 0.3, 0.0)
        order = np.log2(max_gauss_residual(coarse) / max_gauss_residual(fine))
        assert order >= 1.9

    def test_point_perturbation_is_local(self):
        d = cylinder_data(small_grid())
        u = d.u.copy()
        u[5, 5] += 0.1
        perturbed = SurfaceData(d.grid, u, Q=d.Q, H=d.H)
        r = gauss_residual(perturbed)
        touched = {tuple(ij) for ij in np.argwhere(np.abs(r) > 0.0)}
        # on an 11-node line node 5 enters the central rows of nodes 3 to 7
        # and the six-point edge rows of nodes 0, 1, 9 and 10, not those of
        # nodes 2 and 8
        line = (0, 1, 3, 4, 5, 6, 7, 9, 10)
        assert touched == {(k, 5) for k in line} | {(5, k) for k in line}


class TestDualData:
    def test_cylinder_self_dual(self):
        d = cylinder_data(small_grid())
        assert np.array_equal(dual_data(d).u, d.u)

    def test_involution_and_constants(self):
        d = delaunay_data(small_grid(n=21), 0.5, 0.3, 0.0)
        dd = dual_data(d)
        assert dd.Q == d.Q and dd.H == d.H
        assert np.array_equal(dual_data(dd).u, d.u)

    def test_dual_preserves_gauss_equation(self):
        # substituting -u maps the equation to itself when 4Q^2 = H^2,
        # i.e. under the H = 2Q normalization (residual flips sign)
        d = delaunay_data(small_grid(n=31), 0.5, 0.3, 0.0)
        r = gauss_residual(d)
        rd = gauss_residual(dual_data(d))
        np.testing.assert_allclose(rd, -r, atol=1e-12)


def wirtinger(d):
    """u_z = (u_x - i u_y)/2 and u_zbar = (u_x + i u_y)/2 on the whole grid."""
    ux, uy = grid_derivatives(d.u, d.grid.hx, d.grid.hy)
    return 0.5 * (ux - 1j * uy), 0.5 * (ux + 1j * uy)


class TestDerivativeSamples:
    """Derivative samples from grid_derivatives, boundary lines included."""

    def test_cylinder(self):
        uz, uzb = wirtinger(cylinder_data(small_grid()))
        assert not np.any(uz) and not np.any(uzb)

    def test_linear_in_x(self):
        g = small_grid()
        X, _ = g.mesh()
        uz, uzb = wirtinger(SurfaceData(g, X, Q=0.25, H=0.5))
        np.testing.assert_allclose(uz, 0.5, atol=1e-13)
        np.testing.assert_allclose(uzb, 0.5, atol=1e-13)

    def test_linear_in_y(self):
        g = small_grid()
        _, Y = g.mesh()
        uz, uzb = wirtinger(SurfaceData(g, Y, Q=0.25, H=0.5))
        np.testing.assert_allclose(uz, -0.5j, atol=1e-13)
        np.testing.assert_allclose(uzb, 0.5j, atol=1e-13)

    def test_conjugate_symmetry(self):
        d = delaunay_data(small_grid(n=15), 0.5, 0.3, 0.0)
        ux, uy = grid_derivatives(d.u, d.grid.hx, d.grid.hy)
        assert np.isrealobj(ux) and np.isrealobj(uy)
        uz, uzb = wirtinger(d)
        np.testing.assert_array_equal(uzb, np.conj(uz))

    def test_exact_on_quartics_on_every_node(self):
        # both kernels are fourth order, their edge rows included, so they
        # differentiate a polynomial of degree 4 exactly up to round-off
        g = small_grid(n=9)
        X, Y = g.mesh()
        f = X**4 - 2.0 * X**3 * Y + X * Y**2 + Y**4
        fx, fy = grid_derivatives(f, g.hx, g.hy)
        got = (fx, fy, *grid_second_derivatives(f, fx, g.hx, g.hy))
        want = (
            4.0 * X**3 - 6.0 * X**2 * Y + Y**2,
            -2.0 * X**3 + 2.0 * X * Y + 4.0 * Y**3,
            12.0 * X**2 - 12.0 * X * Y,
            2.0 * X + 12.0 * Y**2,
            -6.0 * X**2 + 2.0 * Y,
        )
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-11)

    @staticmethod
    def moments(weights, first, degrees):
        """M_p = sum_m w_m o_m^p / p! over offsets o_m = first, first + 1, ...,
        for each degree p, exactly."""
        return [
            sum(Fraction(w) * Fraction(first + m) ** p for m, w in enumerate(weights))
            / math.factorial(p)
            for p in degrees
        ]

    def test_edge_rows_meet_their_moment_conditions(self):
        # the rows as typed, times 12 h (d1) or 12 h^2 (d2); a row at node k
        # spans offsets -k..5-k.  Exact through degree 4 means moments 12
        # [p == order]; the d1 rows also match the central rule's h^4 error
        # moment, -2/5 at degree 5
        central_d1 = self.moments((1, -8, 0, 8, -1), -2, [5])
        assert central_d1 == [Fraction(-2, 5)]
        for k, row in enumerate(surface_data._D1_EDGES):
            assert self.moments(row, -k, range(6)) == [0, 12, 0, 0, 0] + central_d1, k
        # the d2 rows are exact through degree 5; their h^4 error moments at
        # degree 6 are 137/2 (68.5) and -13/2 times the central rule's
        central_d2 = self.moments((-1, 16, -30, 16, -1), -2, [6])
        assert central_d2 == [Fraction(-2, 15)]
        for k, (row, m6) in enumerate(zip(surface_data._D2_EDGES, (-137, 13))):
            assert self.moments(row, -k, range(7)) == [0, 0, 12, 0, 0, 0, Fraction(m6, 15)], k
        assert Fraction(-137, 15) / central_d2[0] == Fraction(137, 2)

    def test_edge_rows_are_the_solved_rows(self):
        # the typed rows, times 12, are the exact solutions of their moment
        # conditions; the d1 rows fix their h^4 moment to the central rule's
        for k in range(2):
            offsets = range(-k, 6 - k)
            d1 = edge_row(offsets, 1, last=Fraction(-1, 30))
            assert [12 * w for w in d1] == list(surface_data._D1_EDGES[k]), k
            assert [12 * w for w in edge_row(offsets, 2)] == list(surface_data._D2_EDGES[k]), k
        # the central rows come out of the same solver
        assert [12 * w for w in edge_row(range(-2, 3), 1)] == [1, -8, 0, 8, -1]
        assert [12 * w for w in edge_row(range(-2, 3), 2)] == [-1, 16, -30, 16, -1]
        with pytest.raises(InvalidInputError):
            edge_row((0, 1, 1), 1)
        with pytest.raises(InvalidInputError):
            edge_row((0, 1), 2)

    def test_vector_fields_are_differentiated_per_entry(self):
        # the y kernels swap the two grid axes only, never the entry axis
        d = delaunay_data(small_grid(n=9), 0.5, 0.2, 0.1)
        X, Y = d.grid.mesh()
        planes = (d.u, X * Y, np.sin(X + 2.0 * Y), Y**3)
        f = np.stack(planes, axis=-1)
        fx, fy = grid_derivatives(f, d.grid.hx, d.grid.hy)
        got = (fx, fy, *grid_second_derivatives(f, fx, d.grid.hx, d.grid.hy))
        for c, plane in enumerate(planes):
            px, py = grid_derivatives(plane, d.grid.hx, d.grid.hy)
            want = (px, py, *grid_second_derivatives(plane, px, d.grid.hx, d.grid.hy))
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a[..., c], b)


class TestFileRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        d = delaunay_data(small_grid(n=9), 0.5, 0.2, 0.1)
        path = tmp_path / "surface.dat"
        save_surface_data(path, d)
        back = load_surface_data(path)
        assert back.grid == d.grid
        assert np.array_equal(back.u, d.u)
        assert back.Q == d.Q and back.H == d.H
        assert back.normalized

    def test_awkward_u_round_trips_bit_for_bit(self, tmp_path):
        d = delaunay_data(small_grid(n=9), 0.5, 0.2, 0.1)
        u = np.array(d.u)
        u[2, :4] = 5e-324, -0.0, 2.0**-1022, 1e300
        path = tmp_path / "surface.dat"
        save_surface_data(path, SurfaceData(d.grid, u, Q=d.Q, H=d.H))
        back = load_surface_data(path)
        assert back.grid == d.grid
        assert np.array_equal(back.u.view(np.int64), u.view(np.int64))

    @pytest.mark.parametrize("kind", ["delaunay", "cylinder", "custom", "signed-zero"])
    def test_a_y_constant_u_is_spelled_once_per_x_line(self, tmp_path, monkeypatch, kind):
        n = 13
        g = small_grid(n)
        if kind == "delaunay":
            d = delaunay_data(g, 0.5, 0.2, 0.1)
        else:
            d = cylinder_data(g)
            u = np.array(d.u)
            if kind == "custom":
                u += np.random.default_rng(5).normal(size=u.shape)
            elif kind == "signed-zero":
                u[3, 7] = -0.0  # equal to 0.0, but not bitwise
            d = SurfaceData(g, u, Q=d.Q, H=d.H)
        seen = []
        digits = surface_data._digits

        def counted(x):
            seen.append(x.size)
            return digits(x)

        monkeypatch.setattr(surface_data, "_digits", counted)
        save_surface_data(tmp_path / "surface.dat", d)
        # Q and H, each x and each y once, then u once per x line or per node
        assert sum(seen) == 2 + 2 * n + (n * n if kind in ("custom", "signed-zero") else n)
        # the bytes of u spelled at every node
        fh = io.BytesIO()
        fh.write(b"# surface data: header 'Q H nx ny', then rows 'x y u' (x fastest)\n")
        write_table(fh, (d.Q, d.H, n, n))
        write_table(fh, (g.xs()[:, None], g.ys()[None, :], d.u))
        assert (tmp_path / "surface.dat").read_bytes() == fh.getvalue()

    @pytest.mark.parametrize(
        "rows", [[6], [6, 15, 24], [60]], ids=["one-x", "x-line", "one-y"]
    )
    @pytest.mark.parametrize("value", ["5e-1", "0.50000000000000000"])
    def test_coordinate_spelled_another_way_loads_the_same(self, tmp_path, rows, value):
        # 0.5 is node 6 of each axis of small_grid(9); rows run x fastest
        path = tmp_path / "surface.dat"
        d = delaunay_data(small_grid(n=9), 0.5, 0.2, 0.1)
        save_surface_data(path, d)
        lines = path.read_text().splitlines(keepends=True)
        for row in rows:
            fields = lines[2 + row].split()  # after the comment and header lines
            column = 0 if row % 9 == 6 else 1
            assert float(fields[column]) == 0.5
            fields[column] = value
            lines[2 + row] = " ".join(fields) + "\n"
        path.write_text("".join(lines))
        back = load_surface_data(path)
        assert back.grid == d.grid
        assert np.array_equal(back.u.view(np.int64), d.u.view(np.int64))

    def test_non_normalized_is_flagged(self, tmp_path):
        path = tmp_path / "surface.dat"
        g = small_grid(n=6)
        save_surface_data(path, SurfaceData(g, np.zeros((6, 6)), Q=0.3, H=0.5))
        assert not load_surface_data(path).normalized

    @pytest.mark.parametrize(
        "row, column, value",
        [(4, 0, "0.9"), (41, 1, "-5"), (5, 0, "5e-1"), (41, 1, "0.50000000000000000")],
    )
    def test_row_off_its_grid_node_refused(self, tmp_path, row, column, value):
        path = tmp_path / "surface.dat"
        save_surface_data(path, cylinder_data(small_grid(n=9)))
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[2 + row].split()  # after the comment and header lines
        fields[column] = value
        lines[2 + row] = " ".join(fields) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(InvalidInputError, match=f"surface.dat: data row {row + 1} "):
            load_surface_data(path)

    @pytest.mark.parametrize(
        "row, column, value, message",
        [
            (-1, 0, "nan", "header Q = nan, H = 0.5 must be finite"),
            (-1, 1, "inf", "header Q = 0.25, H = inf must be finite"),
            (0, 0, "nan", r"data row 1 has \(x, y, u\) = \(nan, -1.0, 0.0\), not all finite"),
            (40, 1, "-inf", r"data row 41 has \(x, y, u\) = \(0.0, -inf, 0.0\), not all finite"),
            (80, 2, "nan", r"data row 81 has \(x, y, u\) = \(1.0, 1.0, nan\), not all finite"),
        ],
        ids=["Q", "H", "x", "y", "u"],
    )
    def test_non_finite_entry_refused(self, tmp_path, row, column, value, message):
        path = tmp_path / "surface.dat"
        save_surface_data(path, cylinder_data(small_grid(n=9)))
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[2 + row].split()  # row -1 is the header line
        fields[column] = value
        lines[2 + row] = " ".join(fields) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(InvalidInputError, match=f"surface.dat: {message}"):
            load_surface_data(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("0.25 0.5\n")
        with pytest.raises(InvalidInputError):
            load_surface_data(path)

    def test_extra_header_fields_refused(self, tmp_path):
        path = tmp_path / "surface.dat"
        save_surface_data(path, cylinder_data(small_grid(n=6)))
        lines = path.read_text().splitlines(keepends=True)
        assert lines[1] == "0.25 0.5 6 6\n"
        lines[1] = "0.25 0.5 6 6 junk 7\n"
        path.write_text("".join(lines))
        expected = "surface.dat: line 2: expected 4 header fields"
        with pytest.raises(InvalidInputError, match=expected):
            load_surface_data(path)

    @pytest.mark.parametrize(
        "text", ["0.25 0.5 0 0\n", "0.25 0.5 -1 -1\n0 0 0\n"], ids=["empty", "negative"]
    )
    def test_header_below_the_grid_minimum_refused(self, tmp_path, text):
        path = tmp_path / "surface.dat"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"surface.dat: grids need nx, ny >= {MIN_NODES}"):
                load_surface_data(path)

    def test_empty_body_counts_rows_without_warning(self, tmp_path):
        path = tmp_path / "surface.dat"
        path.write_text("0.25 0.5 6 6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="expected 36 data rows, found 0"):
                load_surface_data(path)

    def test_blank_body_counts_rows_without_warning(self, tmp_path):
        path = tmp_path / "surface.dat"
        path.write_text("0.25 0.5 6 6\n\n   \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="expected 36 data rows, found 0"):
                load_surface_data(path)


# values whose 17-digit text is easy to get wrong
AWKWARD = [-0.0, 5e-324, 1e300, 1 / 3, 2.0, -7.0, 0.1, -1.7976931348623157e308, 2.0**-1022]


def per_float_text(table, prefix=""):
    """The per-float f-string join `write_table` replaced, as the reference."""
    return "".join(
        prefix + " ".join(f"{v:.17g}" for v in row) + "\n"
        for line in table.swapaxes(0, 1)
        for row in line.tolist()
    )


class TestTableIO:
    def awkward_table(self):
        a = np.array(AWKWARD)
        return np.stack([a, a[::-1], -a]).reshape(3, 3, 3)

    def test_writer_matches_per_float_format(self):
        table = self.awkward_table()
        fh = io.BytesIO()
        write_table(fh, np.moveaxis(table, -1, 0), prefix="v ")
        assert fh.getvalue().decode() == per_float_text(table, prefix="v ")

    def test_writer_matches_per_float_format_on_ints(self):
        table = np.arange(24).reshape(2, 3, 4) * 12345
        fh = io.BytesIO()
        write_table(fh, np.moveaxis(table, -1, 0), prefix="f ")
        assert fh.getvalue().decode() == per_float_text(table, prefix="f ")
        assert fh.getvalue().decode().startswith("f 0 12345 24690 37035\n")

    @pytest.mark.parametrize("entry", [2**53, -(2**53)])
    def test_integers_beyond_exact_doubles_refused(self, entry):
        table = np.array([[[1, entry]]])
        with pytest.raises(ValueError, match="below 2\\*\\*53"):
            write_table(io.BytesIO(), np.moveaxis(table, -1, 0))

    def test_reader_returns_the_written_bits(self, tmp_path):
        table = self.awkward_table()
        path = tmp_path / "t.dat"
        with open(path, "wb") as fh:
            fh.write(b"# header then rows\nh1 h2\n")
            write_table(fh, np.moveaxis(table, -1, 0))
        head, body = read_table(path, 2, 3)
        assert head == ["h1", "h2"]
        rows = table.swapaxes(0, 1).reshape(-1, 3)  # x fastest
        assert np.array_equal(body.view(np.int64), rows.view(np.int64))

    @pytest.mark.parametrize(
        "text",
        [
            ["-1", "0", "1", "-1", "0", "1", "-1", "0", "1"],  # an x column, p = 3
            ["-1", "-1", "-1", "0", "0", "0", "1", "1", "1"],  # a y column, p = 1
            ["-1", "0", "1", "-1", "-0", "1", "-1", "-0", "1", "-1"],  # a chain and a short line
            ["1", "2", "3", "5e-1", "-0", "0.50000000000000000"],  # row 0 never repeats
            ["4.9406564584124654e-324"] * 4,
        ],
        ids=["x", "y", "chain", "no-repeat", "constant"],
    )
    def test_numbers_are_float_of_every_row(self, text):
        # the per-row float() loop is the reference
        text = np.array(text, "S25")
        want = np.array([float(s) for s in text.tolist()])
        assert np.array_equal(surface_data._numbers(text).view(np.int64), want.view(np.int64))

    def test_reader_takes_every_spelling_float_takes(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_text("h\n1_0 -inf 2.5\n")
        _, body = read_table(path, 1, 3)
        assert body.tolist() == [[10.0, -np.inf, 2.5]]


def _ties(rng, per_exponent=200):
    """Doubles k 2^-j whose exact decimal k 5^j 10^-j has 18 significant
    digits, the last a 5: each lies exactly halfway between two 17-digit
    spellings."""
    out = []
    for j in range(3, 26):
        lo, hi = -(-(10**17) // 5**j), min((10**18 - 1) // 5**j, 2**53 - 1)
        ks = rng.integers(lo, hi + 1, per_exponent) | 1  # odd: no factor 10
        out += [float(k) / 2**j for k in ks.tolist() if len(str(k * 5**j)) == 18]
    return np.array(out)


def _powers_of_ten():
    """Every double power of ten and its neighbours either side."""
    p = np.array([float(f"1e{e}") for e in range(-323, 309)] + [1e-28, 1e16])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


class TestSeventeenDigitKernel:
    """The table writer spells every double byte for byte as '%.17g' does."""

    def sample(self):
        rng = np.random.default_rng(20261018)
        n = 100_000
        parts = [
            rng.normal(size=n),
            rng.uniform(-1.0, 1.0, n),
            np.exp(rng.uniform(np.log(1e-120), np.log(1e17), n)),
            rng.integers(-(10**9), 10**9, n).astype(float),
            rng.integers(1, 2**20, n) * 2.0 ** rng.integers(-60, 40, n),
            _ties(rng),
            _powers_of_ten(),
            np.array(AWKWARD + [0.0, np.nan, np.inf, 2.0**-1074 * 3, 2.0**-1022 * 0.75]),
        ]
        values = np.concatenate(parts)
        return np.concatenate([values, -values])

    def test_sample_covers_exact_ties(self):
        # the ties are what a rounding shortcut gets wrong
        ties = _ties(np.random.default_rng(20261018)).tolist()
        assert len(ties) > 3000
        for v in ties:
            digits = decimal.Decimal(v).normalize().as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5

    def test_matches_percent_17g_byte_for_byte(self):
        values = self.sample()
        assert len(values) > 1_000_000
        rows = values[: len(values) // 4 * 4].reshape(-1, 4)
        fh = io.BytesIO()
        write_table(fh, np.moveaxis(rows[None], -1, 0), prefix="v ")  # one point per grid line
        got = fh.getvalue().decode().splitlines(keepends=True)
        expected = ["v %.17g %.17g %.17g %.17g\n" % row for row in map(tuple, rows.tolist())]
        assert len(got) == len(expected)
        assert [(g, e) for g, e in zip(got, expected) if g != e][:5] == []

    def test_mixed_table_with_fallback_columns(self):
        # columns the kernel spells, columns it hands to CPython, and a mix
        rng = np.random.default_rng(7)
        nx, ny = 37, 5
        columns = [
            rng.normal(size=(nx, ny)),
            np.zeros((nx, ny)),
            rng.choice([np.nan, np.inf, -np.inf, -0.0, 1e300, 5e-324], size=(nx, ny)),
            rng.choice(_ties(rng, 10), size=(nx, ny)),
            np.indices((nx, ny))[0].astype(float),
            np.where(rng.uniform(size=(nx, ny)) < 0.5, 1e-30, rng.uniform(size=(nx, ny))),
        ]
        table = np.stack(columns, axis=-1)
        for prefix in ("", "v ", "100% of row: "):
            fh = io.BytesIO()
            write_table(fh, np.moveaxis(table, -1, 0), prefix=prefix)
            assert fh.getvalue().decode() == per_float_text(table, prefix=prefix)


def spelled(columns, prefix=""):
    return b"".join(table_lines(columns, prefix)).decode()


def stacked_text(columns, prefix=""):
    """`per_float_text` of the columns broadcast to one grid and stacked."""
    grid = np.broadcast_arrays(*(np.atleast_2d(c) for c in columns))
    return per_float_text(np.stack(grid, axis=-1), prefix)


# the integer words split at 10^4 and 10^8; 2^53 - 1 is the largest taken
INT_EDGES = [
    0, 1, -1, 9, 10, 9999, 10000, 10001, -9999, -10000, 99_999_999, 10**8,
    10**8 + 1, -(10**8), 10**12, 10**15 + 1, 2**53 - 1, -(2**53 - 1),
]


class TestColumnShapes:
    """Columns spelled at their own shape, integers without `_digits`."""

    @pytest.mark.parametrize("prefix", ["", "v "])
    def test_integer_columns_at_the_group_edges(self, prefix):
        a = np.array(INT_EDGES).reshape(6, 3)
        columns = [
            a, -a, a[::-1], np.zeros((6, 3), int), np.abs(a).astype(np.uint64),
            np.arange(18, dtype=np.uint8).reshape(6, 3), (a // 10**7).astype(np.int32),
        ]
        assert spelled(columns, prefix) == stacked_text(columns, prefix)
        assert spelled([np.zeros((2, 2), int)], prefix) == f"{prefix}0\n" * 4

    @pytest.mark.parametrize("prefix", ["", "v "])
    @pytest.mark.parametrize("shape", [(37, 1), (1, 150), (1, 1)])
    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_a_broadcast_column_anywhere(self, prefix, shape, where, kind):
        rng = np.random.default_rng(11)
        nx, ny = 37, 150
        # only the trailing run is blocked: here the index column alone, or no
        # column when the broadcast one comes last.  Four full columns would
        # make blocks of this many grid lines, and ny is no multiple of it
        assert ny % (surface_data._BLOCK_VALUES // (nx * 4)) != 0
        columns = [
            rng.normal(size=(nx, ny)),
            rng.integers(-(10**6), 10**6, (nx, ny)),
            rng.choice(AWKWARD + [0.0, np.nan, -np.inf, 12.5], size=(nx, ny)),
            np.indices((nx, ny))[1],
        ]
        values = INT_EDGES if kind == "int" else AWKWARD + [0.0, np.nan, 0.25]
        columns.insert(where, np.resize(np.array(values), shape))
        assert spelled(columns, prefix) == stacked_text(columns, prefix)

    @pytest.mark.parametrize(
        "kind, width, blocks", [("int", 4, (55, 55, 40)), ("float", 3, (73, 73, 4))]
    )
    def test_a_trailing_run_across_blocks(self, kind, width, blocks):
        # a faces-like table: an (nx, 1) column spelled once, then a run of
        # full columns of one kind over three blocks, the last one short
        rng = np.random.default_rng(14)
        nx, ny = 37, 150
        step = surface_data._BLOCK_VALUES // (nx * width)
        assert (step, step, ny - 2 * step) == blocks
        shape = (width, nx, ny)
        if kind == "int":
            run = rng.choice(INT_EDGES, shape)
        else:
            awkward = rng.choice(AWKWARD, shape)
            run = np.where(rng.random(shape) < 0.5, rng.normal(size=shape), awkward)
        columns = [rng.integers(-(10**6), 10**6, (nx, 1)), *run]
        assert spelled(columns, "f ") == stacked_text(columns, "f ")

    @pytest.mark.parametrize("prefix", ["", "v "])
    def test_only_broadcast_columns(self, prefix):
        rng = np.random.default_rng(12)
        nx, ny = 300, 45
        columns = [
            np.arange(nx)[:, None], np.arange(ny)[None, :], rng.normal(size=(nx, 1)),
            rng.normal(size=(1, ny)), -7, 0.5,
        ]
        assert spelled(columns, prefix) == stacked_text(columns, prefix)

    def test_the_diagnostics_layout(self):
        # broadcast i j x y first, then full float columns, as write_diagnostics
        rng = np.random.default_rng(13)
        nx, ny = 41, 63
        xs, ys = np.linspace(-1.0, 1.0, nx), np.linspace(-2.0, 2.0, ny)
        columns = [
            np.arange(nx)[:, None], np.arange(ny)[None, :], xs[:, None], ys[None, :],
            *rng.normal(size=(7, nx, ny)),
        ]
        assert spelled(columns) == stacked_text(columns)


def _insert_skipped_lines(lines):
    mid = len(lines) // 2
    return lines[:mid] + ["# a note\n", "\n", "   \n"] + lines[mid:]


class TestTableInputRules:
    def saved(self, tmp_path):
        path = tmp_path / "surface.dat"
        save_surface_data(path, delaunay_data(small_grid(n=9), 0.5, 0.2, 0.1))
        return path, path.read_text().splitlines(keepends=True)

    def test_comment_and_blank_lines_in_the_body_skip(self, tmp_path):
        path, lines = self.saved(tmp_path)
        before = load_surface_data(path)
        path.write_text("".join(_insert_skipped_lines(lines)))
        after = load_surface_data(path)
        assert np.array_equal(after.u, before.u) and after.grid == before.grid

    @pytest.mark.parametrize(
        "index, edit, message",
        [
            (40, lambda ln: ln.rstrip("\n") + " # note\n", "expected 3 fields"),
            (40, lambda ln: "  # indented note\n", "non-numeric entry"),
            (40, lambda ln: ln.rstrip("\n") + " 0\n", "expected 3 fields"),
            (2, lambda ln: "abc" + ln[ln.index(" "):], "non-numeric entry"),
            (2, lambda ln: ln.split(" ", 1)[1], "expected 3 fields"),
            # the byte 0xff, which no UTF-8 text holds, inside an x field
            (40, lambda ln: ln[:1] + "\udcff" + ln[1:], "non-numeric entry"),
            # a NUL ending an x field, which fixed-width bytes fields drop
            (40, lambda ln: ln.replace(" ", "\0 ", 1), "non-numeric entry"),
        ],
        ids=[
            "inline-comment", "indented-comment", "extra-field", "first-row-word",
            "first-row-short", "x-not-utf8", "x-nul",
        ],
    )
    def test_bad_row_refused_with_its_line(self, tmp_path, index, edit, message):
        path, lines = self.saved(tmp_path)
        lines[index] = edit(lines[index])
        path.write_bytes("".join(lines).encode(errors="surrogateescape"))
        with pytest.raises(InvalidInputError, match=f"surface.dat: line {index + 1}: {message}"):
            load_surface_data(path)

    @pytest.mark.parametrize("rounding", ["ROUND_DOWN", "ROUND_UP"])
    def test_forty_digit_coordinate_rounds_correctly(self, tmp_path, rounding):
        # 0.25 (node 5 of x) and the double above it: their midpoint, cut to
        # 40 significant digits on either side, rounds to the nearer one
        path, lines = self.saved(tmp_path)
        above = np.nextafter(0.25, 1.0)
        exact = decimal.Context(prec=60)  # the midpoint has 55 digits
        mid = exact.add(decimal.Decimal(0.25), decimal.Decimal((above - 0.25) / 2))
        context = decimal.Context(prec=40, rounding=getattr(decimal, rounding))
        token = str(context.plus(mid))
        assert len(token.replace("0.", "", 1).lstrip("0")) == 40
        fields = lines[2 + 14].split()  # data row 15: node (5, 1)
        assert float(fields[0]) == 0.25
        lines[2 + 14] = " ".join([token, *fields[1:]]) + "\n"
        path.write_text("".join(lines))
        _, table = read_table(path, 4, 3)
        assert table[14, 0] == (above if rounding == "ROUND_UP" else 0.25)
        assert load_surface_data(path).grid == small_grid(n=9)

    def test_line_numbers_count_skipped_lines(self, tmp_path):
        path, lines = self.saved(tmp_path)
        lines = _insert_skipped_lines(lines)
        lines[-1] = "1 2\n"
        path.write_text("".join(lines))
        with pytest.raises(InvalidInputError, match=f"line {len(lines)}: expected 3 fields"):
            load_surface_data(path)
