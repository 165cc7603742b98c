"""The trajectory CSV's cells: ``formats._csv_block`` builds the "%.17g" text
in numpy and falls back to Python's "%" only for cells whose 17-digit
significand it cannot prove.  Every test requires bytes equal to "%.17g" % x;
the last ones require that the exact fast path really carries the cells.  The
table tests check the exact powers of ten behind that path, and that
importing the command line builds none of its tables."""

import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from mpmech import formats
from mpmech.cli import BUILTIN_INVARIANTS, main
from mpmech.dynamics import HamiltonianSpec, TrajectoryRecord, integrate

from oracles import csv_reference

CHUNK = 1 << 16  # cells per formatted block, 8 to a row


def percent_text(block: np.ndarray) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in block.tolist()).encode("ascii")


def assert_cells_match(values):
    values = np.asarray(values, dtype=float).ravel()
    for start in range(0, len(values), CHUNK):
        chunk = values[start:start + CHUNK]
        block = chunk.reshape(-1, 8) if len(chunk) % 8 == 0 else chunk[:, None]
        assert formats._csv_block(block) == percent_text(block)


def fast_share(values) -> float:
    return float(formats._significands(np.asarray(values, dtype=float).ravel())[0].mean())


def log_uniform(rng, count, low=-12, high=17):
    return 10.0 ** rng.uniform(low, high, count) * rng.choice([-1.0, 1.0], count)


def significant_bits(v: float) -> int:
    n = Fraction(v).numerator
    return (n // (n & -n)).bit_length() if n else 0


def power_neighbours():
    """10**k and its four nearest doubles on each side, k = -13..18."""
    out = []
    for x in 10.0 ** np.arange(-13, 19):
        below = above = x
        out.append(x)
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            out += [below, above]
    return np.array(out)


def ties(rng):
    """Doubles exactly halfway between two 17-digit decimals: k / 2**j with k
    odd and k * 5**j an 18-digit integer, which ends in 5."""
    out = []
    for j in range(8, 26):
        low, high = -(-10**17 // 5**j), 10**18 // 5**j
        k = rng.integers(low, high, 200) | 1
        out += [float(kk) / 2.0**j for kk in k.tolist() if kk * 5**j < 10**18]
    return np.array(out)


class TestBytesEqualPercent:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(1010)
        bits = rng.integers(0, 2**64, 1_100_000, dtype=np.uint64).view(np.float64)
        finite = bits[np.isfinite(bits)][:1_048_576]
        assert len(finite) == 1_048_576
        assert_cells_match(finite)

    def test_log_uniform_both_signs(self):
        values = log_uniform(np.random.default_rng(1011), 1 << 18)
        assert fast_share(values) > 0.9
        assert_cells_match(values)

    def test_neighbours_of_powers_of_ten(self):
        values = power_neighbours()
        assert_cells_match(np.concatenate([values, -values]))

    def test_exact_ties_fall_back_and_round_half_even(self):
        values = ties(np.random.default_rng(1012))
        assert len(values) > 1000
        for x in values[:50].tolist():
            assert len(Decimal(x).as_tuple().digits) == 18
        assert fast_share(values) == 0.0
        assert_cells_match(np.concatenate([values, -values]))

    def test_integers_halves_and_special_values(self):
        rng = np.random.default_rng(1013)
        integers = np.concatenate([rng.integers(0, 2**53, 4096), 2**53 - np.arange(64),
                                   10 ** np.arange(16) + 1]).astype(float)
        dyadic = rng.integers(1, 2**20, 4096) * 2.0 ** -rng.integers(1, 60, 4096)
        special = [0.5, 2.5, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                   1e308, -1e308, 2.0**53, 1.0, 123.0, 1.5e-5, 12345678901234567.0]
        for values in (integers, dyadic):
            assert_cells_match(np.concatenate([values, -values]))
        assert_cells_match(special)

    def test_short_decimals(self):
        # m * 10**e whose 17-digit text may end in zeros, in every layout
        values = [float(f"{m}e{e}") for m in range(1, 100) for e in range(-14, 19)]
        assert fast_share(values) > 0.5
        assert_cells_match(np.concatenate([values, np.negative(values)]))

    def test_small_values(self):
        # the range the float64 two-product adds: 1e-28 <= |x| < 1e-11
        values = log_uniform(np.random.default_rng(1015), 1 << 16, -28, -11)
        assert fast_share(values) > 0.99
        assert_cells_match(values)

    def test_powers_table_is_exact(self):
        tens = formats._tens()
        assert tens.shape == (4, 45)
        for p, (hi, lo, hh, hl) in enumerate(tens.T.tolist()):
            assert Fraction(hi) + Fraction(lo) == 10**p
            assert Fraction(hh) + Fraction(hl) == Fraction(hi)
            assert significant_bits(hh) <= 26 and significant_bits(hl) <= 26
            assert (lo == 0.0) == (p <= 22)

    def test_tables_are_built_on_first_use(self):
        code = ("import mpmech.cli; from mpmech import formats; print(formats._tens.cache_info()"
                ".currsize, formats._cell_tables.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(formats.__file__))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.split() == ["0", "0"]

    def test_without_the_fast_path(self, monkeypatch):
        # a table that holds no power of ten: no significand is in range, so
        # every cell takes "%"
        monkeypatch.setattr(formats, "_tens", lambda: np.zeros((4, 45)))
        values = np.concatenate([log_uniform(np.random.default_rng(1014), 8192),
                                 power_neighbours(), [0.0, -0.0, np.inf, np.nan]])
        assert fast_share(values) == 0.0
        assert_cells_match(values)


class TestTrajectoryCells:
    def test_most_cells_of_a_long_run_take_the_fast_path(self, sl2c_derived, tmp_path):
        spec = HamiltonianSpec.quadratic(np.eye(6))
        invariants = {name: HamiltonianSpec.quadratic(Q) for name, Q in
                      [("mu_norm2", np.diag([1.0] * 3 + [0.0] * 3)),
                       ("nu_norm2", np.diag([0.0] * 3 + [1.0] * 3))]}
        rec = integrate(sl2c_derived, spec,
                        np.array([0.3, -0.2, 0.5, 0.1, 0.4, -0.6]), 0.01, 100.0,
                        invariants=invariants)
        assert len(rec.times) == 10_001
        cells = np.column_stack([rec.times, rec.states]
                                + [rec.invariants[name] for name in rec.invariants])
        assert 1.0 - fast_share(cells) < 0.001
        path = tmp_path / "traj.csv"
        formats.trajectory_to_csv(rec, str(path))
        assert path.read_bytes() == csv_reference(rec).encode("ascii")

    @pytest.mark.parametrize("scale", [1e-7, 1e-13, 1e5])
    def test_scaled_rows_through_the_writer(self, tmp_path, rng, scale):
        rows = formats.CSV_BLOCK_ROWS + 3
        rec = TrajectoryRecord(0.01 * np.arange(rows), rng.standard_normal((rows, 6)) * scale,
                               (3, 3), {"H": rng.standard_normal(rows) * scale**2}, {})
        path = tmp_path / "traj.csv"
        formats.trajectory_to_csv(rec, str(path))
        assert path.read_bytes() == csv_reference(rec).encode("ascii")

    def test_tiny_values_run(self, sl2c_derived, tmp_path):
        z0 = "1e-7,-3e-6,2e-12,0,4e-5,-1e-9"
        prefix = str(tmp_path / "tiny")
        assert main(["simulate", "--pair", "sl2c_derived", "--hamiltonian", "quadratic_identity",
                     "--initial", z0, "--dt", "0.01", "--t-end", "30",
                     "--invariants", "mu_norm2,nu_norm2,mu_dot_nu", "--out", prefix]) == 0
        rec = integrate(sl2c_derived, HamiltonianSpec.quadratic(np.eye(6)),
                        np.array([float(v) for v in z0.split(",")]), 0.01, 30.0,
                        invariants={name: BUILTIN_INVARIANTS[name](3, 3)
                                    for name in ("mu_norm2", "nu_norm2", "mu_dot_nu")})
        assert len(rec.times) == 3001
        with open(prefix + ".csv", "rb") as fh:
            assert fh.read() == csv_reference(rec).encode("ascii")
        cells = np.column_stack([rec.times, rec.states]
                                + [rec.invariants[name] for name in rec.invariants])
        assert fast_share(cells) >= 0.999
