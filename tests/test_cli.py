"""Command-line front door: rate grammar, determinism, artifacts, exit codes."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fracmotion.cli import (
    _CSV_CHUNK,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    OUT_DIR_ENV,
    RunConfig,
    cmd_verify,
    main,
    parse_rate,
)
from fracmotion.counting import (
    FlightCountSpec,
    FracPoissonSpec,
    RateFunction,
    count_distribution,
    cumulative_rate,
)
from fracmotion import motion
from fracmotion._csvrows import endpoint_rows
from fracmotion.densities import (
    classical_line_density,
    flight_unconditional,
    line_density,
    planar_law,
)
from fracmotion.specfun import (
    ConvergenceError,
    DomainError,
    MLParams,
    RangeOverflowError,
    mittag_leffler,
)
from fracmotion.verify import SUITE


def read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


def manifest_without_timestamp(path):
    payload = json.loads(path.read_text())
    payload.pop("generated_at")
    payload["config"].pop("out")  # the path itself differs between runs
    return payload


# ---------------------------------------------------------------------------
# Rate mini-grammar


def test_parse_rate_const():
    rate = parse_rate("const:2.5")
    assert rate.kind == "constant"
    assert rate.params == (2.5,)


def test_parse_rate_power():
    rate = parse_rate("power:3,0.5")
    assert rate.kind == "power"
    assert rate.params == (3.0, 0.5)
    # lambda(s) = 3 s^0.5 integrates to 2 t^1.5.
    assert cumulative_rate(rate, 4.0) == pytest.approx(16.0, rel=1e-14)


def test_parse_rate_piecewise():
    rate = parse_rate("piecewise:1:2,3:0.5")
    assert rate.kind == "piecewise"
    assert cumulative_rate(rate, 0.5) == 1.0
    assert cumulative_rate(rate, 2.0) == 2.5
    assert cumulative_rate(rate, 5.0) == 3.0


@pytest.mark.parametrize(
    "text",
    ["const", "unknown:1", "power:1", "piecewise:1:2:3", "const:abc"],
)
def test_parse_rate_rejects_bad_grammar(text):
    with pytest.raises(ValueError):
        parse_rate(text)


def test_parse_rate_propagates_domain_validation():
    with pytest.raises(DomainError):
        parse_rate("const:-1")


# ---------------------------------------------------------------------------
# simulate


def simulate(out, *extra):
    return main(["simulate", "--samples", "400", "--seed", "11",
                 "--out", str(out), *extra])


def test_simulate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "pts.csv"
    assert simulate(out) == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["x", "y", "n", "is_singular"]
    assert len(rows) == 401
    x, y = float(rows[1][0]), float(rows[1][1])
    assert math.hypot(x, y) <= 1.0 + 1e-12
    assert rows[1][3] in {"true", "false"}
    manifest = json.loads((tmp_path / "pts.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 11
    assert manifest["rows"] == 400
    assert {"package_version", "numpy_version", "python_version", "generated_at"} <= set(manifest)
    assert "scipy_version" not in manifest


def test_simulate_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert simulate(a) == EXIT_OK
    assert simulate(b) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert manifest_without_timestamp(
        tmp_path / "a.csv.manifest.json"
    ) == manifest_without_timestamp(tmp_path / "b.csv.manifest.json")


def csv_of_batch(cols) -> str:
    """The ``simulate`` CSV of a whole batch, formatted in one piece."""
    rows = zip(cols.x.tolist(), cols.y.tolist(), cols.n.tolist())
    return "x,y,n,is_singular\n" + "".join(
        f"{x!r},{y!r},{n},{'true' if n == 0 else 'false'}\n" for x, y, n in rows)


@pytest.mark.parametrize("rate,n_samples", [
    ("const:1", 2 * motion._BLOCK + 7), ("const:10", motion._BLOCK + 1), ("power:2,0.5", 3)])
@pytest.mark.parametrize("seed", [20260815, 77])
def test_simulate_streams_the_bytes_of_the_whole_batch(tmp_path, seed, rate, n_samples):
    # Rows are written block by block; across block edges they are the
    # batch that endpoint_arrays draws.
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--alpha", "0.5", "--rate", rate, "--samples", str(n_samples),
                 "--seed", str(seed), "--out", str(out)]) == EXIT_OK
    cfg = motion.MotionConfig(c=1.0, t=1.0, count_spec=FracPoissonSpec(0.5, parse_rate(rate)))
    assert out.read_text() == csv_of_batch(motion.endpoint_arrays(cfg, n_samples, seed))
    assert json.loads((tmp_path / "sim.csv.manifest.json").read_text())["rows"] == n_samples


@pytest.mark.parametrize("extra,regime", [
    # Every value in exponent form.
    (["--c", "1e-6"], lambda text, cols: text.count("e-") == 2 * cols.n.size),
    # Exponent form beside whole numbers such as 6028875521076896.0.
    (["--c", "1e17"], lambda text, cols: "e+16," in text and ".0," in text),
    # Counts near 5.0e9, past 2**32.
    (["--alpha", "1", "--rate", "const:5e9"], lambda text, cols: cols.n.min() > 2**32),
])
def test_simulate_writes_the_bytes_of_repr_in_every_regime(tmp_path, extra, regime):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--samples", "200", "--seed", "5", *extra, "--out", str(out)]) == EXIT_OK
    args = dict(zip(extra[::2], extra[1::2]))
    cfg = motion.MotionConfig(
        c=float(args.get("--c", 1.0)), t=1.0,
        count_spec=FracPoissonSpec(float(args.get("--alpha", 1.0)),
                                   parse_rate(args.get("--rate", "const:1"))))
    cols = motion.endpoint_arrays(cfg, 200, 5)
    text = out.read_text()
    assert text == csv_of_batch(cols)
    assert regime(text, cols)


# ---------------------------------------------------------------------------
# Endpoint rows: the chunk formatter against repr


def repr_rows(x, y, n) -> bytes:
    return csv_of_batch(motion.EndpointArrays(x, y, n)).encode()[len("x,y,n,is_singular\n"):]


def formatted_rows(x, y, n) -> bytes:
    return b"".join(endpoint_rows(x[lo:lo + _CSV_CHUNK], y[lo:lo + _CSV_CHUNK],
                                   n[lo:lo + _CSV_CHUNK])
                    for lo in range(0, x.size, _CSV_CHUNK))


def assert_rows_match_repr(values, counts=None):
    values = np.asarray(values, dtype=np.float64)
    # Each value is written as x and, in another row and chunk, as y.
    x, y = values, np.roll(values, values.size // 2 + 1)
    n = np.zeros(values.size, dtype=np.int64) if counts is None else counts
    got, want = formatted_rows(x, y, n), repr_rows(x, y, n)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} rows differ from repr, first {bad[:3]}")


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        around = [values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)]
    both = np.concatenate(around)
    both = both[np.isfinite(both)]
    return np.concatenate([both, -both])


def test_rows_match_repr_at_every_power_of_two():
    assert_rows_match_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_rows_match_repr_at_every_power_of_ten():
    assert_rows_match_repr(with_neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_rows_match_repr_on_random_bit_patterns():
    bits = np.random.default_rng(20260815).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_rows_match_repr(values[np.isfinite(values)])


def test_rows_match_repr_at_the_edges_of_each_notation():
    edges = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
             sys.float_info.max, sys.float_info.min, 1.0, 2.0**53 + 2.0,
             # 17 digits after "0.000": decpt = -3.
             0.00012345678901234567, 100.0, 1200.0, 6028875521076896.0, 1e22, 1e21]
    assert_rows_match_repr(np.concatenate([
        edges, with_neighbours([1e-4, 1e-5, 1e15, 1e16, 2.0**53, 0.5, 1e-3])]))


def test_rows_match_repr_for_counts_past_two_to_the_32():
    counts = np.array([0, 1, 9, 10, 99, 100, 2**32 - 1, 2**32, 5000024773, 10**18, 2**63 - 1],
                      dtype=np.int64)
    assert_rows_match_repr(np.linspace(-1.0, 1.0, counts.size), counts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.integers(0, 2**63 - 1)),
                min_size=1, max_size=40))
def test_rows_match_repr_on_any_floats(rows):
    x, y, n = (np.array(col) for col in zip(*rows))
    assert endpoint_rows(x.astype(np.float64), y.astype(np.float64),
                          n.astype(np.int64)) == repr_rows(x, y, n)


def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_peak_allocation_does_not_grow_with_samples(tmp_path):
    # One block is alive at a time: 2**18 samples peak within one block's
    # columns (25 bytes per sample) of 2**15; whole batches grew by 5.5 MB.
    argv = ["simulate", "--alpha", "0.5", "--rate", "const:1", "--out", str(tmp_path / "s.csv")]
    traced_peak([*argv, "--samples", "10"])  # count table, parser and caches
    small = traced_peak([*argv, "--samples", str(2**15)])
    large = traced_peak([*argv, "--samples", str(2**18)])
    assert large - small < 25 * motion._BLOCK


def test_simulate_fractional_order(tmp_path):
    out = tmp_path / "frac.csv"
    assert simulate(out, "--alpha", "0.5", "--rate", "power:1,1") == EXIT_OK
    rows = read_csv(out)
    assert any(row[3] == "true" for row in rows[1:])


def test_simulate_zero_samples_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--samples", "0", "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == EXIT_USAGE


def test_simulate_bad_rate_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--samples", "10", "--rate", "const:",
              "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == EXIT_USAGE


def test_simulate_invalid_order_is_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--samples", "10", "--alpha", "1.5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE
    assert "invalid configuration" in capsys.readouterr().err


def test_simulate_rejects_the_removed_instants_flag(tmp_path):
    # Switch instants are always uniform order statistics; the flag that
    # chose their placement is gone, whatever its value.
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--samples", "10", "--instants-mode", "order-statistics",
              "--out", str(tmp_path / "e.csv")])
    assert excinfo.value.code == EXIT_USAGE
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_negative_seed_is_usage_error(tmp_path, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--samples", "10", "--seed", "-1",
              "--out", str(tmp_path / "x.out")])
    assert excinfo.value.code == EXIT_USAGE


def test_out_dir_env_var_sets_default_location(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    assert main(["simulate", "--samples", "50"]) == EXIT_OK
    assert (tmp_path / "endpoints.csv").exists()
    assert (tmp_path / "endpoints.csv.manifest.json").exists()


# ---------------------------------------------------------------------------
# density


def test_density_planar_matches_direct_evaluation(tmp_path):
    out = tmp_path / "planar.csv"
    rc = main(["density", "--law", "planar", "--alpha", "0.5", "--rate", "const:1",
               "--grid-min", "0", "--grid-max", "0.9", "--grid-points", "10",
               "--out", str(out)])
    assert rc == EXIT_OK
    law = planar_law(FracPoissonSpec(0.5, RateFunction.constant(1.0)), 1.0, 1.0)
    rows = read_csv(out)
    assert rows[0] == ["r", "density"]
    for coord_text, value_text in rows[1:]:
        r = float(coord_text)
        assert float(value_text) == law.ac_density(r, 0.0)
    meta = json.loads((tmp_path / "planar.csv.meta.json").read_text())
    weight = 1.0 / mittag_leffler(MLParams(0.5, 1.0), 1.0)
    assert meta["singular_weight"] == pytest.approx(weight, rel=1e-12)
    assert meta["nan_rows"] == 0


def test_density_marks_out_of_support_rows_nan(tmp_path, capsys):
    out = tmp_path / "wide.csv"
    rc = main(["density", "--law", "planar", "--grid-min", "0", "--grid-max", "1.9",
               "--grid-points", "20", "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_csv(out)
    nan_rows = sum(1 for row in rows[1:] if math.isnan(float(row[1])))
    meta = json.loads((tmp_path / "wide.csv.meta.json").read_text())
    assert nan_rows == meta["nan_rows"] > 0
    assert "outside the support" in capsys.readouterr().err


def test_density_pointwise_domain_error_is_usage_error(tmp_path):
    # alpha is checked by the law at each point; a bad value must not
    # turn into nan rows.
    out = tmp_path / "bad.csv"
    rc = main(["density", "--law", "planar-const", "--alpha", "1.5", "--grid-points", "5",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("law", ["planar", "planar-const", "line", "line-classical", "flight"])
def test_density_grid_may_end_just_below_ct(tmp_path, law):
    # At c = 3.3, t = 7.3 the planar-const law's c²t² − r² rounds to 0 at
    # r = nextafter(ct, 0); that point is outside its support, not an error.
    c, t = 3.3, 7.3
    out = tmp_path / "edge.csv"
    rc = main(["density", "--law", law, "--c", str(c), "--t", str(t), "--grid-min", "0",
               "--grid-max", repr(math.nextafter(c * t, 0.0)), "--grid-points", "4",
               "--out", str(out)])
    assert rc == EXIT_OK
    values = [float(row[1]) for row in read_csv(out)[1:]]
    assert all(math.isfinite(v) for v in values[:-1])
    meta = json.loads((tmp_path / "edge.csv.meta.json").read_text())
    assert meta["nan_rows"] == sum(math.isnan(v) for v in values) <= 1


def test_density_classical_line(tmp_path):
    out = tmp_path / "line.csv"
    rc = main(["density", "--law", "line-classical", "--rate", "const:2",
               "--grid-min", "-0.9", "--grid-max", "0.9", "--grid-points", "7",
               "--out", str(out)])
    assert rc == EXIT_OK
    for coord_text, value_text in read_csv(out)[1:]:
        assert float(value_text) == classical_line_density(2.0, 1.0, 1.0, float(coord_text))


def test_density_flight(tmp_path):
    out = tmp_path / "flight.csv"
    rc = main(["density", "--law", "flight", "--d", "4", "--rate", "const:1",
               "--grid-min", "0", "--grid-max", "0.95", "--grid-points", "8",
               "--out", str(out)])
    assert rc == EXIT_OK
    spec = FlightCountSpec(d=4, rate=RateFunction.constant(1.0))
    for coord_text, value_text in read_csv(out)[1:]:
        assert float(value_text) == flight_unconditional(spec, 1.0, 1.0, float(coord_text))


def test_density_const_form_needs_constant_rate(tmp_path):
    rc = main(["density", "--law", "planar-const", "--rate", "power:1,1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("law", ["planar", "planar-const", "line", "line-classical", "flight"])
@pytest.mark.parametrize("flag,value", [("--c", "inf"), ("--t", "inf"), ("--c", "-1")])
def test_density_bad_speed_or_horizon_is_usage_error(tmp_path, law, flag, value):
    out = tmp_path / "bad.csv"
    rc = main(["density", "--law", law, flag, value, "--grid-points", "5", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "simulate --samples 10 --rate piecewise:nan:1",
    "simulate --samples 10 --rate const:nan",
    "simulate --samples 10 --rate const:inf",
    "simulate --samples 10 --rate power:1,nan",
    "density --law planar-const --alpha 0.5 --rate const:nan",
    "verify --check pgf --lambda nan",
    "verify --check eigenfunction --c 0",
    "verify --check cf --c 0 --samples 100000",
    "verify --check telegraph --c -1",
    "verify --check telegraph --c nan",
], ids=lambda argv: argv.replace(" ", ","))
def test_non_finite_rate_or_bad_speed_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "bad.out"
    try:
        rc = main(argv.split() + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects the --rate text itself
        rc = exc.code
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].startswith("fracmotion")
    assert not out.exists()


@pytest.mark.parametrize("check", ["telegraph", "eigenfunction"])
@pytest.mark.parametrize("lam", ["nan", "inf", "-1", "abc"])
def test_bad_lambda_is_rejected_at_parse_time(tmp_path, capsys, check, lam):
    out = tmp_path / "bad.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--check", check, "--lambda", lam, "--out", str(out)])
    assert excinfo.value.code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument --lambda: must be a finite number >= 0, got {lam}")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--grid-min", "--grid-max"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
def test_non_finite_grid_bound_is_rejected_at_parse_time(tmp_path, capsys, flag, value):
    # A nan or infinite bound used to write an all-nan grid and exit 0.
    out = tmp_path / "bad.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["density", "--law", "planar", f"{flag}={value}", "--out", str(out)])
    assert excinfo.value.code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument {flag}: must be a finite number, got {value}")
    assert not out.exists()


def test_grid_range_past_the_double_range_is_usage_error(tmp_path, capsys):
    # Finite bounds whose difference overflows give no finite grid either.
    out = tmp_path / "bad.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["density", "--law", "line", "--grid-min=-1e308", "--grid-max", "1e308",
                   "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == ["fracmotion: invalid configuration: grid [-1e+308, 1e+308] is not a "
                   "finite range"]
    assert not out.exists()


def test_window_past_the_double_range_exits_3_without_a_numpy_warning(tmp_path):
    # The window width overflows to inf before the cap refuses it; numpy's
    # overflow warning must not reach stderr on the way.
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fracmotion.cli", "simulate", "--samples", "10",
         "--t", "1e308", "--out", str(tmp_path / "x.csv")],
        env=package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_NUMERIC
    (line,) = proc.stderr.splitlines()
    assert line.startswith("fracmotion: numeric failure: ")


@pytest.mark.parametrize("argv,code", [
    ("simulate --samples 3 --rate const:0 --c 1e200 --t 1e200", EXIT_USAGE),
    ("density --law line --c 1e-160 --t 1e-160 --grid-min 0 --grid-max 0 --grid-points 1",
     EXIT_USAGE),
    ("verify --check telegraph --c 1e200", EXIT_USAGE),
    ("verify --check cf --c 1e308", EXIT_NUMERIC),
], ids=lambda v: v.replace(" ", ",") if isinstance(v, str) else str(v))
def test_extreme_speed_exits_with_one_line_and_no_numpy_warning(tmp_path, argv, code):
    # These wrote inf rows and exited 0, ended in a traceback, or printed
    # numpy's warnings from the Bessel series before their exit-3 line.
    out = tmp_path / "x.out"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fracmotion.cli", *argv.split(), "--out", str(out)],
        env=package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("fracmotion: ")
    assert not out.exists()


EXTREME_SPEED_HORIZON = [(1e200, 1e200), (1e300, 1e10), (1e-160, 1e-160), (1e-160, 1.0),
                         (1e308, 1.0), (1.0, 1e-320)]
ENTRY_POINTS = (
    [["simulate", "--samples", "3", "--rate", "piecewise:1:1"]]
    + [["density", "--law", law, "--grid-min", "-1", "--grid-max", "1", "--grid-points", "5"]
       for law in ("planar", "planar-const", "line", "line-classical", "flight")]
    + [["verify", "--check", name, "--samples", "100000"]
       for name in ("telegraph", "eigenfunction", "pgf", "law", "mc", "cf")])


def holds_no_infinity(path: Path) -> bool:
    text = path.read_text()
    if path.suffix == ".json":
        infinite = []
        json.loads(text, parse_constant=infinite.append)
        return not infinite
    return not any(math.isinf(float(v)) for row in list(csv.reader(text.splitlines()))[1:]
                   for v in row if v not in ("true", "false"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c,t", EXTREME_SPEED_HORIZON, ids=lambda v: repr(v))
@pytest.mark.parametrize("command", ENTRY_POINTS, ids=lambda argv: "-".join(argv[:3]))
def test_extreme_speed_and_horizon_through_every_entry_point(tmp_path, capsys, command, c, t):
    # Warnings are errors here, so a numpy warning fails the test.
    out = tmp_path / ("x.json" if command[0] == "verify" else "x.csv")
    rc = main([*command, "--c", repr(c), "--t", repr(t), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC), err
    if rc == EXIT_OK:
        assert holds_no_infinity(out)
    else:
        (line,) = err
        assert line.startswith("fracmotion: ")
        assert not out.exists()


@pytest.mark.parametrize("rate", ["power:1,1e308", "const:1e308"])
@pytest.mark.parametrize("command", [["simulate", "--samples", "3"],
                                     ["density", "--law", "line", "--alpha", "0.5"]])
def test_cumulative_rate_past_the_double_range_is_a_numeric_error(tmp_path, capsys, rate,
                                                                  command):
    # Lambda(10) leaves the double range: a bare OverflowError from float **
    # (exit 3 by luck) or an inf that reached the count law.
    out = tmp_path / "x.csv"
    assert main([*command, "--rate", rate, "--t", "10", "--out", str(out)]) == EXIT_NUMERIC
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("fracmotion: numeric failure: cumulative rate") and "exceeds" in line
    assert not out.exists()


@pytest.mark.parametrize("lam", ["27", "50", "1000"])
def test_eigenfunction_profile_past_double_range_is_a_numeric_error(tmp_path, capsys, lam):
    # At alpha = 0.5 the profile tops out at E_{1/2}(lam) ~ 2 exp(lam^2),
    # which leaves the double range near lam = 26.6.
    out = tmp_path / "eig.json"
    with np.errstate(all="raise"):
        rc = main(["verify", "--check", "eigenfunction", "--lambda", lam, "--out", str(out)])
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err.splitlines()[-1]
    assert f"lambda={float(lam)} leaves double range: ln E_{{0.5,1}}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,culprit", [
    # E_{0.2,1}(1e5) itself leaves the double range.
    (["--alpha", "0.2", "--lambda", "1e5"], "ln E_{0.2,1}(100000.0) = 1e+25"),
    # The normalizer lambda/(2*pi*c*E) falls below the smallest double.
    (["--c", "1e308"], "lambda/(2*pi*c*E) = exp(-711.034) is below the smallest normal double"),
    # The law forms c*c*t*t = inf at t = 1/c.
    (["--c", "1e300"], "the planar law's c*c*t*t at t = 1/c = 1e-300 is inf"),
])
def test_eigenfunction_range_error_names_the_number_that_fails(tmp_path, capsys, argv, culprit):
    out = tmp_path / "eig.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--check", "eigenfunction", *argv, "--out", str(out)])
    assert rc == EXIT_NUMERIC
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("fracmotion: numeric failure: eigenfunction") and culprit in line
    assert not out.exists()


def test_eigenfunction_default_entry_keeps_its_statistic(tmp_path):
    out = tmp_path / "eig.json"
    with np.errstate(all="raise"):
        rc = main(["verify", "--check", "eigenfunction", "--lambda", "1", "--out", str(out)])
    assert rc == EXIT_OK
    (check,) = json.loads(out.read_text())["checks"]
    assert check["statistic"] == 0.0006634095688715647


@pytest.mark.parametrize("rate,reason", [
    ("const:nan", "constant rate must be finite and >= 0, got nan"),
    ("power:1,-2", "power-rate exponent must be finite and > -1, got -2.0"),
    ("const:x", "cannot parse rate 'const:x'"),
])
def test_bad_rate_error_gives_its_reason(tmp_path, capsys, rate, reason):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--samples", "10", "--rate", rate, "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("fracmotion simulate: error: argument --rate: ")
    assert reason in err
    assert "_rate_text" not in err


def test_alpha_02_const_60_density_runs_where_sampling_cannot(tmp_path, capsys):
    # The planar law needs E only, in closed form at this rate; the count
    # table needs the window of E_{0.2,1}(60), about 3e6 terms, past the cap.
    rate = ["--alpha", "0.2", "--rate", "const:60"]
    out = tmp_path / "planar.csv"
    assert main(["density", "--law", "planar", *rate, "--out", str(out)]) == EXIT_OK
    values = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]])
    assert np.all(values[:-1] >= 0.0) and values[0] > 0.0 and np.isnan(values[-1])
    assert main(["simulate", *rate, "--samples", "3",
                 "--out", str(tmp_path / "sim.csv")]) == EXIT_NUMERIC
    assert "past the cap" in capsys.readouterr().err


def test_rate_with_infinite_last_breakpoint_is_the_constant_rate(tmp_path):
    argv = ["simulate", "--alpha", "0.5", "--samples", "200", "--seed", "5"]
    assert main(argv + ["--rate", "piecewise:inf:1", "--out", str(tmp_path / "p.csv")]) == EXIT_OK
    assert main(argv + ["--rate", "const:1", "--out", str(tmp_path / "c.csv")]) == EXIT_OK
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


# ---------------------------------------------------------------------------
# verify


def test_verify_single_check_exits_zero(tmp_path):
    out = tmp_path / "telegraph.json"
    rc = main(["verify", "--check", "telegraph", "--lambda", "1", "--c", "1",
               "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert len(report["checks"]) == 1
    entry = report["checks"][0]
    assert entry["check"] == "telegraph-pde"
    assert set(entry) == {"check", "statistic", "tolerance", "pass", "details"}
    assert entry["pass"] is True


def test_verify_fast_law_check(tmp_path, capsys):
    out = tmp_path / "law.json"
    rc = main(["verify", "--check", "law", "--alpha", "0.5", "--lambda", "1",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert "PASS planar-closed-vs-mixture" in capsys.readouterr().out


def test_verify_negative_controls_exit_one(tmp_path):
    out = tmp_path / "neg.json"
    rc = main(["verify", "--negative-control", "--samples", "100000",
               "--out", str(out)])
    assert rc == EXIT_VERIFY_FAILED
    report = json.loads(out.read_text())
    assert report["manifest"]["negative_controls"] is True
    assert report["checks"]
    assert all(entry["pass"] is False for entry in report["checks"])


def test_verify_default_suite_all_pass(tmp_path):
    out = tmp_path / "suite.json"
    rc = main(["verify", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) >= 10
    names = {entry["check"] for entry in report["checks"]}
    for prefix in ("planar-closed-vs-mixture", "mc-radial-chi2", "conditional-cf",
                   "caputo-eigenfunction", "telegraph-pde", "pgf-fractional-ode"):
        assert any(name.startswith(prefix) for name in names)


def test_every_suite_row_is_its_single_check(tmp_path):
    # The suite and ``--check`` share one builder: each row, run on its own
    # at the suite's seed and sample count, gives the suite's entries, the
    # Monte-Carlo ones once tagged with the row's alpha.
    assert main(["verify", "--out", str(tmp_path / "suite.json")]) == EXIT_OK
    suite = json.loads((tmp_path / "suite.json").read_text())["checks"]
    rows = []
    for k, (name, alpha) in enumerate(SUITE):
        out = tmp_path / f"row{k}.json"
        argv = ["verify", "--check", name, "--alpha", repr(alpha), "--out", str(out)]
        assert main(argv) == EXIT_OK
        for entry in json.loads(out.read_text())["checks"]:
            if name == "mc":
                entry["check"] += f"[alpha={alpha:g}]"
            rows.append(entry)
    assert rows == suite


def test_hand_built_verify_config_gets_the_parser_defaults(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    config = RunConfig(command="verify", params={"check": "law", "samples": 100_000, "seed": 9})
    assert cmd_verify(config) == EXIT_OK
    parsed = tmp_path / "parsed.json"
    assert main(["verify", "--check", "law", "--seed", "9", "--out", str(parsed)]) == EXIT_OK
    assert (tmp_path / "verify_report.json").read_bytes() == parsed.read_bytes()


def test_verify_report_reruns_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = main(["verify", "--check", "mc", "--alpha", "1.0", "--lambda", "1",
                   "--samples", "100000", "--seed", "7", "--out", str(out)])
        assert rc == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


# Monte-Carlo and law checks where the singular weight is 0 or 1 in double
# precision.  Paths past 64 switches take their endpoints from the exact law
# given the count, two draws each: the entries under test depend on the
# counts alone, and the full paths would take about a minute at alpha 0.2.


def verify_entries(tmp_path, capsys, *argv) -> tuple[int, dict, str]:
    out = tmp_path / "report.json"
    rc = main(["verify", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    entries = {e["check"]: e for e in json.loads(out.read_text())["checks"]} if rc < 2 else {}
    return rc, entries, err


@pytest.mark.parametrize("argv", [["--lambda", "0"], ["--lambda", "40"],
                                  ["--alpha", "0.2", "--lambda", "5"]])
def test_mc_check_with_a_singular_weight_of_0_or_1_agrees_exactly(tmp_path, capsys,
                                                                   monkeypatch, argv):
    monkeypatch.setattr(motion, "_MAX_PATH_SWITCHES", 64)
    rc, entries, err = verify_entries(tmp_path, capsys, "--check", "mc", *argv)
    assert rc == EXIT_OK, err
    singular = entries["mc-singular-mass"]
    assert singular["details"]["expected_fraction"] in (0.0, 1.0)
    assert singular["details"]["z"] == 0.0 and singular["pass"]


def test_mc_check_without_nonsingular_samples_marks_the_radial_test_not_applicable(
        tmp_path, capsys):
    rc, entries, err = verify_entries(tmp_path, capsys, "--check", "mc", "--lambda", "1e-9")
    assert rc == EXIT_OK, err
    radial = entries["mc-radial-chi2"]
    assert radial["pass"] and radial["details"]["status"] == "not-applicable"
    assert radial["details"]["nonsingular_samples"] == 0


def test_law_check_at_zero_rate_is_not_applicable(tmp_path, capsys):
    rc, entries, err = verify_entries(tmp_path, capsys, "--check", "law", "--lambda", "0")
    assert rc == EXIT_OK, err
    assert entries["planar-closed-vs-mixture"]["details"]["status"] == "not-applicable"


@settings(deadline=None, max_examples=24,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(check=st.sampled_from(["mc", "cf", "law"]),
       alpha=st.floats(min_value=0.1, max_value=1.0),
       lam=st.floats(min_value=0.0, max_value=60.0))
# Subnormal Lambda(t), which the law check marks not applicable: exit 0.
@example(check="law", alpha=0.5, lam=5e-324)
@example(check="law", alpha=0.5, lam=1e-320)
@example(check="law", alpha=0.5, lam=1e-315)
@example(check="law", alpha=1.0, lam=1e-315)
@example(check="law", alpha=0.5, lam=1e-309)
@example(check="law", alpha=0.5, lam=1e-300)
@example(check="mc", alpha=0.5, lam=5e-324)
def test_any_verify_check_exits_with_a_documented_code(tmp_path, capsys, monkeypatch,
                                                        check, alpha, lam):
    monkeypatch.setattr(motion, "_MAX_PATH_SWITCHES", 64)
    out = tmp_path / "report.json"
    rc = main(["verify", "--check", check, "--alpha", repr(alpha), "--lambda", repr(lam),
               "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_NUMERIC)
    assert "Traceback" not in err
    assert (rc == EXIT_VERIFY_FAILED) == any(line.startswith("FAIL ")
                                             for line in stdout.splitlines())
    if lam <= 1e-300:
        assert rc == EXIT_OK, (stdout, err)


# ---------------------------------------------------------------------------
# Every valid order and rate, through every entry point that sums a
# Mittag-Leffler-type series


NUMERIC_ERRORS = (ConvergenceError, RangeOverflowError)


@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(alpha=st.floats(min_value=0.1, max_value=1.0),
       lam=st.floats(min_value=0.0, max_value=60.0),
       c=st.floats(min_value=0.1, max_value=10.0),
       t=st.floats(min_value=0.1, max_value=10.0))
def test_any_alpha_and_lambda_gives_a_value_or_a_documented_error(tmp_path, alpha, lam, c, t):
    spec = FracPoissonSpec(alpha, RateFunction.constant(lam / t))
    x = c * t * np.array([-0.9, 0.0, 0.5])
    try:
        series = line_density(spec, c, t, x, method="series")
        wright = line_density(spec, c, t, x, method="wright")
    except NUMERIC_ERRORS:
        series = wright = None
    if series is not None:
        # The two methods round their log-terms, about n*·ln(Lambda) nats at
        # the peak count n*, differently: past 1e-10 they may differ by the
        # documented bound n*·ln(Lambda)·eps.
        n_star = lam ** (1.0 / alpha) / alpha
        rtol = max(1e-10, n_star * math.log(max(lam, 1.0)) * 2.2e-16)
        shown = np.maximum(series, wright) >= 1e-300
        assert np.allclose(wright[shown], series[shown], rtol=rtol, atol=0.0)
    try:
        planar_law(spec, c, t).ac_density(c * t * np.array([0.0, 0.5]), 0.0)
        count_distribution(spec, t).sample_many(np.array([0.25, 0.75]))
    except NUMERIC_ERRORS:
        pass
    rate = ["--alpha", repr(alpha), "--rate", f"const:{lam / t!r}", "--c", repr(c), "--t", repr(t)]
    rc = main(["density", "--law", "line", *rate, "--grid-min", repr(-0.9 * c * t),
               "--grid-max", repr(0.9 * c * t), "--grid-points", "3",
               "--out", str(tmp_path / "line.csv")])
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC)
    rc = main(["simulate", *rate, "--samples", "3", "--out", str(tmp_path / "sim.csv")])
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC)


NO_SCIPY_SCRIPT = """
import json, sys
from fracmotion.cli import main
out = sys.argv[1]
codes = [
    main(["density", "--law", "planar", "--alpha", "0.5", "--grid-points", "50",
          "--out", out + "/density.csv"]),
    main(["verify", "--check", "mc", "--out", out + "/verify_report.json"]),
    main(["simulate", "--alpha", "0.5", "--samples", "100", "--out", out + "/sim.csv"]),
]
heavy = ("scipy", "importlib.metadata", "email", "concurrent.futures")
print(json.dumps({"codes": codes, "loaded": sorted(m for m in sys.modules if m.startswith(heavy))}))
"""


def package_env() -> dict:
    """The environment with this package on ``PYTHONPATH``."""
    import fracmotion

    src = str(Path(fracmotion.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_script(script: str, tmp_path: Path) -> dict:
    """The last stdout line of ``script`` run with this package on its path."""
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_commands_load_no_scipy(tmp_path):
    result = run_script(NO_SCIPY_SCRIPT, tmp_path)
    assert result == {"codes": [EXIT_OK, EXIT_OK, EXIT_OK], "loaded": []}


IMPORT_SCRIPT = """
import json, sys, threading
before = threading.active_count()
import fracmotion.cli
print(json.dumps({"threads": threading.active_count() - before,
                  "loaded": sorted(m for m in sys.modules if m.startswith("concurrent"))}))
"""


def test_importing_the_cli_starts_no_thread(tmp_path):
    # The endpoint kernel's worker thread starts at the first paired chunk.
    assert run_script(IMPORT_SCRIPT, tmp_path) == {"threads": 0, "loaded": []}


TABLES_SCRIPT = """
import json, sys
import numpy as np
import fracmotion.cli
loaded = "fracmotion._csvrows" in sys.modules
import fracmotion._csvrows as rows
before = [int(rows._FILLED.sum()), rows._digit_table.cache_info().currsize]
x = np.random.default_rng(3).random(4096) * 2 - 1
rows.endpoint_rows(x, x, np.arange(x.size))
print(json.dumps([loaded, before, np.flatnonzero(rows._FILLED).tolist(),
                  rows._digit_table.cache_info().currsize]))
"""


def test_importing_the_cli_builds_no_format_table(tmp_path):
    # The row formatter is imported by the first simulate.  Its digit table
    # is built when it formats its first chunk, and each column of its table
    # of scaled powers of ten the first time a chunk's exponents need it.
    loaded, before, filled, digit_tables = run_script(TABLES_SCRIPT, tmp_path)
    assert [loaded, before, digit_tables] == [False, [0, 0], 1]
    # The chunk's doubles lie in 2^-11 <= |x| < 1, so |x| = c·2^q with q from
    # -63 to -53 and Schubfach's k = ⌊q·log₁₀ 2⌋ from -19 to -16: four of the
    # 619 columns, 292 - k.
    assert filled == [308, 309, 310, 311]


# The same commands with scipy not importable at all.
WITHOUT_SCIPY_SCRIPT = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, NoScipy())
""" + NO_SCIPY_SCRIPT


def test_cli_commands_run_without_scipy(tmp_path):
    result = run_script(WITHOUT_SCIPY_SCRIPT, tmp_path)
    assert result == {"codes": [EXIT_OK, EXIT_OK, EXIT_OK], "loaded": []}
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert "scipy_version" not in manifest


# ---------------------------------------------------------------------------
# main() called many times in one process: the parser is built once and
# shared, so no call may see another's options.

REPEATED_CALLS = [
    ["density", "--law", "line", "--method", "wright", "--grid-min", "-0.9",
     "--grid-max", "0.9", "--grid-points", "21", "--out", "wright.csv"],
    # No --method: the default series, not the last call's wright.
    ["density", "--law", "line", "--grid-min", "-0.9", "--grid-max", "0.9",
     "--grid-points", "21", "--out", "series.csv"],
    ["density", "--law", "no-such-law"],
    # Below the goodness-of-fit sample floor: exit 2 and no report.
    ["verify", "--negative-control", "--samples", "2000", "--out", "neg-2000.json"],
    ["verify", "--negative-control", "--out", "neg.json"],
    ["verify", "--check", "law", "--out", "law.json"],
    # After verify: none of its options may reach a density sidecar.
    ["density", "--law", "line", "--grid-min", "-0.9", "--grid-max", "0.9",
     "--grid-points", "21", "--out", "series-again.csv"],
]


def run_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # The usage message wraps at the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    inproc, fresh = tmp_path / "in-process", tmp_path / "fresh"
    inproc.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(inproc)
    got = [run_in_process(argv, capsys) for argv in REPEATED_CALLS]

    env = package_env()
    want = []
    for argv in REPEATED_CALLS:
        proc = subprocess.run([sys.executable, "-m", "fracmotion.cli", *argv], cwd=fresh,
                              env=env, capture_output=True, text=True, timeout=120)
        want.append((proc.returncode, proc.stdout, proc.stderr))
    assert got == want
    assert [code for code, _, _ in got] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_USAGE,
                                           EXIT_VERIFY_FAILED, EXIT_OK, EXIT_OK]

    names = sorted(p.name for p in inproc.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    assert names == ["law.json", "neg.json", "series-again.csv", "series-again.csv.meta.json",
                     "series.csv", "series.csv.meta.json", "wright.csv", "wright.csv.meta.json"]
    for name in names:
        assert (inproc / name).read_bytes() == (fresh / name).read_bytes(), name
    assert json.loads((inproc / "series.csv.meta.json").read_text())["config"]["method"] == "series"
    law = json.loads((inproc / "law.json").read_text())["manifest"]
    assert law["n_samples"] == 100_000
    assert "negative_controls" not in law
