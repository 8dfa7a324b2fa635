import functools
import math

import numpy as np
import pytest

import oracles
from phasecomp import catalog, profiler
from phasecomp.su2 import DOUBLE, TRIPLE, CompositeSequence, PulseSpec, pi_pulse_train


def test_axis_validation():
    with pytest.raises(ValueError):
        profiler.AxisSpec("gamma", 0.0, 1.0, 11)
    with pytest.raises(ValueError):
        profiler.AxisSpec("alpha", 0.0, 1.0, 1)


def test_default_axes():
    x, y = profiler.default_axes(DOUBLE)
    assert (x.name, y.name) == ("alpha", "eps")
    assert (x.start, x.stop, x.count) == (-1.0, 1.0, 201)
    x, y = profiler.default_axes(TRIPLE, points=51)
    assert (x.name, y.name) == ("omega", "delta")
    assert x.count == 51


def test_scan_shape_and_range():
    seq = catalog.get_sequence("B3")
    grid = profiler.scan(seq, DOUBLE, profiler.default_axes(DOUBLE, 41))
    assert grid.values.shape == (41, 41)
    assert np.all(grid.values >= 0.0) and np.all(grid.values <= 1.0 + 1e-12)


def test_scan_origin_node_is_unity_for_catalog_sequences():
    axes = (
        profiler.AxisSpec("alpha", -1.0, 1.0, 41),
        profiler.AxisSpec("eps", -0.25, 0.25, 41),
    )
    for name in ("B3", "Phi5", "Phi13a"):
        grid = profiler.scan(catalog.get_sequence(name), DOUBLE, axes)
        assert grid.values[20, 20] == pytest.approx(1.0, abs=1e-12)


def test_scan_matches_pointwise_oracle():
    seq = catalog.get_sequence("Phi5")
    axes = (
        profiler.AxisSpec("alpha", -0.5, 0.5, 5),
        profiler.AxisSpec("eps", -0.1, 0.1, 5),
    )
    grid = profiler.scan(seq, DOUBLE, axes)
    xv, yv = axes[0].values(), axes[1].values()
    for i in (0, 2, 4):
        for j in (0, 2, 4):
            ref = oracles.product_probability(seq.phases, xv[i], yv[j])
            assert grid.values[i, j] == pytest.approx(ref, abs=1e-13)


@pytest.mark.parametrize("model", [DOUBLE, TRIPLE])
def test_probability_equals_pulse_by_pulse_kernel_bitwise(model):
    # pulses that differ from the first in one field each, and in phase, so
    # that sharing factors between pulses that differ anywhere but the phase
    # changes the result
    pi = math.pi
    seq = CompositeSequence(
        (
            PulseSpec(pi, 0.3),
            PulseSpec(pi, 1.7),
            PulseSpec(pi / 2, 0.3),
            PulseSpec(pi, 0.9, rabi=1.3 * pi),
            PulseSpec(pi, 0.9, detuning=0.4),
            PulseSpec(pi, 0.9, duration=1.25),
            PulseSpec(pi, -0.6),
        )
    )
    # alpha = -1 with delta = 0 puts the resonant pulses on the omega = 0
    # (sinc) branch of the triple model
    alpha = np.linspace(-1.0, 0.5, 7)[:, None, None]
    delta = np.linspace(-0.5, 0.5, 5)[None, :, None] if model is TRIPLE else 0.0
    eps = np.array([-0.1, 0.0, 0.07])[None, None, :]
    got = profiler.probability(seq, model, alpha, delta, eps)
    want = oracles.pulse_by_pulse_probability(seq, model, alpha, delta, eps)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_triple_scan_matches_mp_oracle():
    seq = catalog.get_sequence("U9")
    axes = (
        profiler.AxisSpec("omega", 0.5, 1.5, 3),
        profiler.AxisSpec("delta", -0.5, 0.5, 3),
    )
    grid = profiler.scan(seq, TRIPLE, axes, fixed={"eps": 0.05})
    for i, om in enumerate(axes[0].values()):
        for j, de in enumerate(axes[1].values()):
            u = oracles.mp_u11(seq.phases, (om - 1.0, de, 0.05), "triple")
            ref = 1.0 - abs(complex(u)) ** 2
            assert grid.values[i, j] == pytest.approx(ref, abs=1e-12)


def test_scan_rejects_bad_axis_combinations():
    seq = catalog.get_sequence("B3")
    with pytest.raises(ValueError):
        profiler.scan(
            seq,
            DOUBLE,
            (profiler.AxisSpec("alpha", 0, 1, 5), profiler.AxisSpec("alpha", 0, 1, 5)),
        )
    with pytest.raises(ValueError):
        profiler.scan(
            seq,
            DOUBLE,
            (profiler.AxisSpec("alpha", 0, 1, 5), profiler.AxisSpec("delta", 0, 1, 5)),
        )
    with pytest.raises(ValueError):
        profiler.scan(
            seq,
            DOUBLE,
            (profiler.AxisSpec("alpha", 0, 1, 5), profiler.AxisSpec("omega", 0, 2, 5)),
        )


def test_single_pulse_width_matches_closed_form():
    # p(alpha) = cos^2(pi alpha / 2); the 1-1e-4 interval has half-width
    # (2/pi) asin(1e-2)
    seq = pi_pulse_train([0.0])
    grid = profiler.scan(seq, DOUBLE, profiler.default_axes(DOUBLE, 201))
    metrics = profiler.region_metrics(grid)
    expected = (4 / math.pi) * math.asin(1e-2)
    assert metrics.width_x[4] == pytest.approx(expected, abs=5e-4)


def test_region_metrics_monotone_in_level():
    grid = profiler.scan(catalog.get_sequence("Phi5"), DOUBLE, profiler.default_axes(DOUBLE, 101))
    m = profiler.region_metrics(grid)
    assert m.cell_fraction[2] >= m.cell_fraction[3] >= m.cell_fraction[4] > 0
    assert m.width_x[2] >= m.width_x[3] >= m.width_x[4] > 0
    data = m.to_jsonable()
    assert [lvl["m"] for lvl in data["levels"]] == [2, 3, 4]


def test_width_clips_at_scan_range():
    # Phi13a stays above 1-1e-4 across the whole default eps range
    grid = profiler.scan(catalog.get_sequence("Phi13a"), DOUBLE)
    m = profiler.region_metrics(grid)
    assert m.width_y[4] == pytest.approx(0.5, abs=1e-12)


def test_compare_reports_fraction_difference():
    rep = profiler.compare(
        catalog.get_sequence("Phi5"),
        catalog.get_sequence("B3"),
        DOUBLE,
        profiler.default_axes(DOUBLE, 101),
    )
    assert rep.fraction_diff[4] == pytest.approx(
        rep.fraction_a[4] - rep.fraction_b[4], abs=1e-15
    )
    assert rep.fraction_a[4] > rep.fraction_b[4]
    assert rep.max_abs_dp > 0


def test_csv_layout():
    grid = profiler.scan(
        catalog.get_sequence("B3"),
        DOUBLE,
        (profiler.AxisSpec("alpha", -1, 1, 3), profiler.AxisSpec("eps", -0.1, 0.1, 2)),
    )
    text = profiler.grid_to_csv(grid)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# seq=B3 model=double")
    assert lines[1] == "alpha,eps,p"
    assert len(lines) == 2 + 3 * 2
    first = lines[2].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == -0.1


def test_grid_jsonable():
    grid = profiler.scan(
        catalog.get_sequence("B3"),
        TRIPLE,
        profiler.default_axes(TRIPLE, 5),
        fixed={"eps": 0.1},
    )
    data = profiler.grid_to_jsonable(grid)
    assert data["model"] == "triple"
    assert data["fixed"] == {"eps": 0.1}
    assert len(data["values"]) == 5 and len(data["values"][0]) == 5


def _scalar_line(grid, axis, other):
    """Probability along `axis` with the other scanned variable at its origin,
    one scalar call per point."""
    point = dict(grid.fixed)
    point[other.name] = other.origin

    @functools.lru_cache(maxsize=None)
    def f(v):
        point[axis.name] = v
        alpha = point["alpha"] if "alpha" in point else point.get("omega", 1.0) - 1.0
        return float(
            profiler.probability(
                grid.seq, grid.model, alpha, point.get("delta", 0.0), point.get("eps", 0.0)
            )
        )

    return f


def _oracle_widths(grid):
    widths = {}
    for name, axis, other in (("x", grid.x, grid.y), ("y", grid.y, grid.x)):
        f = _scalar_line(grid, axis, other)
        widths[name] = {
            m: oracles.axis_width(f, axis.values(), axis.origin, level)
            for m, level in profiler.LEVELS
        }
    return widths


def _assert_widths_match_oracle(grid):
    metrics = profiler.region_metrics(grid)
    want = _oracle_widths(grid)
    for m, _ in profiler.LEVELS:
        assert metrics.width_x[m] == pytest.approx(want["x"][m], abs=1e-12)
        assert metrics.width_y[m] == pytest.approx(want["y"][m], abs=1e-12)
    return metrics


@pytest.mark.parametrize(
    "model, eps",
    [(DOUBLE, None), (TRIPLE, 0.0), (TRIPLE, 0.05), (TRIPLE, 0.1)],
    ids=["double", "triple-eps0", "triple-eps0.05", "triple-eps0.1"],
)
def test_widths_match_scalar_oracle_for_catalog(model, eps):
    axes = profiler.default_axes(model, 41)
    fixed = {} if eps is None else {"eps": eps}
    for name in catalog.names():
        grid = profiler.scan(catalog.get_sequence(name), model, axes, fixed)
        _assert_widths_match_oracle(grid)


def test_width_is_zero_when_origin_is_below_level():
    # two pi pulses undo each other: p = 0 at the origin
    grid = profiler.scan(
        pi_pulse_train([0.0, 0.0]), DOUBLE, profiler.default_axes(DOUBLE, 21)
    )
    for axis, other in ((grid.x, grid.y), (grid.y, grid.x)):
        assert _scalar_line(grid, axis, other)(axis.origin) < profiler.LEVELS[0][1]
    metrics = _assert_widths_match_oracle(grid)
    assert all(w == 0.0 for w in (*metrics.width_x.values(), *metrics.width_y.values()))


def test_sub_cell_width_bisects_around_an_off_node_origin():
    # nodes -1, -1/3, 1/3, 1: the origin is no node, and the nearest node has
    # p = cos^2(pi/6) = 0.75, below every level
    axes = (profiler.AxisSpec("alpha", -1.0, 1.0, 4), profiler.AxisSpec("eps", -0.25, 0.25, 5))
    grid = profiler.scan(pi_pulse_train([0.0]), DOUBLE, axes)
    f = _scalar_line(grid, grid.x, grid.y)
    t = grid.x.values()
    assert 0.0 not in t
    assert max(f(t[1]), f(t[2])) < profiler.LEVELS[0][1] <= f(0.0)
    metrics = _assert_widths_match_oracle(grid)
    for m, _ in profiler.LEVELS:
        expected = (4 / math.pi) * math.asin(10 ** (-m / 2))
        assert metrics.width_x[m] == pytest.approx(expected, abs=2e-4)


def test_sub_cell_edge_stops_at_a_neighbour_node_inside_the_region():
    # nodes -2 and 0.4: the origin's nearest node has p = cos^2(0.2 pi), below
    # every level, while the far neighbour at alpha = -2 has p = 1
    axes = (profiler.AxisSpec("alpha", -2.0, 0.4, 2), profiler.AxisSpec("eps", -0.25, 0.25, 5))
    grid = profiler.scan(pi_pulse_train([0.0]), DOUBLE, axes)
    f = _scalar_line(grid, grid.x, grid.y)
    assert f(0.4) < profiler.LEVELS[0][1] and f(-2.0) >= profiler.LEVELS[-1][1]
    metrics = _assert_widths_match_oracle(grid)
    for m, _ in profiler.LEVELS:
        expected = 2.0 + (2 / math.pi) * math.asin(10 ** (-m / 2))
        assert metrics.width_x[m] == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize(
    "start, stop, clipped, bisected", [(-0.005, 1.0, 0, -1), (-1.0, 0.005, -1, 0)]
)
def test_width_clips_at_either_end_of_the_scan_range(start, stop, clipped, bisected):
    # p(alpha) = cos^2(pi alpha / 2) stays above 0.99 within +-0.0638
    axes = (
        profiler.AxisSpec("alpha", start, stop, 201),
        profiler.AxisSpec("eps", -0.25, 0.25, 5),
    )
    grid = profiler.scan(pi_pulse_train([0.0]), DOUBLE, axes)
    f = _scalar_line(grid, grid.x, grid.y)
    t = grid.x.values()
    level = dict(profiler.LEVELS)[2]
    assert f(t[clipped]) >= level > f(t[bisected])
    metrics = _assert_widths_match_oracle(grid)
    half = (2 / math.pi) * math.asin(0.1)
    assert metrics.width_x[2] == pytest.approx(half + 0.005, abs=1e-4)


def _csv_reference(grid, header_extra=""):
    """Per-cell formatting, the layout grid_to_csv must reproduce."""
    fixed = " ".join(f"{k}={v:g}" for k, v in sorted(grid.fixed.items()))
    meta = f"# seq={grid.seq.label} model={grid.model.kind}"
    if fixed:
        meta += f" {fixed}"
    if header_extra:
        meta += f" {header_extra}"
    lines = [meta, f"{grid.x.name},{grid.y.name},p"]
    for i, xi in enumerate(grid.x.values()):
        for j, yj in enumerate(grid.y.values()):
            lines.append(f"{xi:.17g},{yj:.17g},{grid.values[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def test_csv_matches_per_cell_reference():
    axes = (profiler.AxisSpec("omega", 0.0, 2.0, 7), profiler.AxisSpec("delta", -1.0, 1.0, 5))
    grid = profiler.scan(catalog.get_sequence("T9"), TRIPLE, axes, fixed={"eps": 0.05})
    assert profiler.grid_to_csv(grid, "rng_seed=3") == _csv_reference(grid, "rng_seed=3")

