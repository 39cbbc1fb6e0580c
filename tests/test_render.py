import numpy as np
import pytest

from rnasel.clustering import average_linkage
from rnasel.render import dendrogram_svg, scatter_svg

from test_clustering import hand_matrix


def test_dendrogram_svg_well_formed():
    dend = average_linkage(hand_matrix())
    svg = dendrogram_svg(dend, title="demo")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    for label in ("A", "B", "C", "dissimilarity", "demo"):
        assert label in svg


def test_dendrogram_svg_deterministic():
    dend = average_linkage(hand_matrix())
    assert dendrogram_svg(dend) == dendrogram_svg(dend)


def test_scatter_svg_marks_selected_and_handles_zeros():
    rng = np.random.default_rng(0)
    x = rng.lognormal(0, 2, size=50)
    y = rng.lognormal(0, 2, size=50)
    x[3] = 0.0
    mask = np.zeros(50, dtype=bool)
    mask[[1, 2, 3]] = True
    svg = scatter_svg(x, y, mask, "rep 1", "rep 2", title="pair")
    assert svg.startswith("<svg")
    assert svg.count("#cc3311") == 3
    assert svg.count("#4477aa") == 47
    assert "selected: 3 / 50" in svg


def scalar_circles(x_values, y_values, selected_mask):
    """The scatter's circle lines, one point at a time: the per-point scalar
    ``px``/``py`` loop that the array-built ``scatter_svg`` replaced."""
    x = np.asarray(x_values, dtype=np.float64)
    y = np.asarray(y_values, dtype=np.float64)
    sel = np.asarray(selected_mask, dtype=bool)
    positive = np.concatenate([x[x > 0], y[y > 0]])
    floor = float(positive.min()) / 2.0 if positive.size else 1e-3
    lx = np.log10(np.where(x > 0, x, floor))
    ly = np.log10(np.where(y > 0, y, floor))
    lo = min(lx.min(), ly.min())
    hi = max(lx.max(), ly.max())
    span = max(hi - lo, 1e-9)
    left, top, size = 60.0, 34.0, 440.0

    def px(v):
        return left + (v - lo) / span * size

    def py(v):
        return top + size - (v - lo) / span * size

    lines = []
    for i in np.nonzero(~sel)[0]:
        lines.append(f'<circle cx="{px(lx[i]):.2f}" cy="{py(ly[i]):.2f}" r="1.6" fill="#4477aa" fill-opacity="0.5"/>')
    for i in np.nonzero(sel)[0]:
        lines.append(f'<circle cx="{px(lx[i]):.2f}" cy="{py(ly[i]):.2f}" r="2.2" fill="#cc3311"/>')
    return lines


@pytest.mark.parametrize("selected", ["some", "all", "none"])
def test_scatter_svg_points_match_scalar_reference(selected):
    rng = np.random.default_rng(4)
    x = rng.lognormal(0, 3, size=2000)
    y = rng.lognormal(0, 3, size=2000)
    x[rng.random(2000) < 0.05] = 0.0
    y[rng.random(2000) < 0.05] = 0.0
    y[7] = x[7] = 0.0
    mask = {"some": rng.random(2000) < 0.1, "all": np.ones(2000, bool), "none": np.zeros(2000, bool)}[selected]
    svg = scatter_svg(x, y, mask, "rep 1", "rep 2")
    circles = [line for line in svg.splitlines() if line.startswith("<circle")]
    assert circles == scalar_circles(x, y, mask)
