import numpy as np

from speechmotion.coupling import CouplingCell
from speechmotion.motion import SummaryCell
from speechmotion.report import (
    REFERENCE_ANOVA,
    REFERENCE_COUPLING_R,
    activeness_grid,
    coupling_grid,
    reference_comparison_rows,
    render_svg,
    write_grid_csv,
)

REGIONS = (
    "head", "eyebrows", "mouth", "upper_face",
    "middle_face", "lower_face", "total_face", "hands",
)


def summary_cells(offset=0.0):
    cells = []
    for i, region in enumerate(REGIONS):
        for j, emotion in enumerate(("Neutral", "Happy", "Sad", "Angry")):
            for k, condition in enumerate(("overlap", "non_overlap")):
                cells.append(
                    SummaryCell(region, emotion, condition, offset + i + 0.1 * j + 0.01 * k, 0.0, 50, False)
                )
    return cells


class TestActivenessGrid:
    def test_64_cells_for_eight_regions(self):
        grid = activeness_grid({"s1": summary_cells()})
        assert grid.values.shape == (8, 8)
        assert grid.values.size == 64
        assert np.isfinite(grid.values).all()

    def test_pools_sessions_by_mean(self):
        grid = activeness_grid({"s1": summary_cells(0.0), "s2": summary_cells(1.0)})
        solo = activeness_grid({"s1": summary_cells(0.0)})
        assert np.allclose(grid.values, solo.values + 0.5)

    def test_empty_cells_are_nan(self):
        cells = [c for c in summary_cells() if c.emotion != "Angry"]
        grid = activeness_grid({"s1": cells})
        angry_cols = [i for i, c in enumerate(grid.col_labels) if c.startswith("Angry")]
        assert np.isnan(grid.values[:, angry_cols]).all()


class TestCouplingGrid:
    def cells(self):
        out = []
        for region in REGIONS:
            for fs in ("prosody", "mfcc"):
                out.append(
                    CouplingCell(region, fs, "all", "all", "", 0.4, 0.01, 2, 1000)
                )
        return out

    def test_shape_and_values(self):
        grid = coupling_grid(self.cells(), feature_sets=("prosody", "mfcc"))
        assert grid.values.shape == (8, 2)
        assert np.allclose(grid.values, 0.4)

    def test_missing_feature_set_is_nan(self):
        grid = coupling_grid(self.cells(), feature_sets=("prosody", "mfcc", "arousal"))
        assert np.isnan(grid.values[:, 2]).all()


class TestSvg:
    def test_deterministic_bytes_and_rect_count(self, tmp_path):
        grid = activeness_grid({"s1": summary_cells()})
        render_svg(grid, tmp_path / "a.svg")
        render_svg(grid, tmp_path / "b.svg")
        a = (tmp_path / "a.svg").read_bytes()
        assert a == (tmp_path / "b.svg").read_bytes()
        assert a.decode().count("<rect") == 64
        assert "colormap: linear vmin=" in a.decode()

    def test_nan_cells_grey(self, tmp_path):
        cells = [c for c in summary_cells() if c.emotion != "Angry"]
        grid = activeness_grid({"s1": cells})
        render_svg(grid, tmp_path / "n.svg")
        assert '#dddddd' in (tmp_path / "n.svg").read_text()

    def test_grid_csv(self, tmp_path):
        grid = activeness_grid({"s1": summary_cells()})
        write_grid_csv(grid, tmp_path / "g.csv")
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert len(lines) == 9
        assert lines[0].split(",")[0] == "region"


class TestReferenceComparison:
    def test_reference_constants(self):
        assert REFERENCE_COUPLING_R[("total_face", "prosody")] == (0.47, 0.006)
        assert REFERENCE_COUPLING_R[("lower_face", "valence")] == (0.31, None)
        assert REFERENCE_ANOVA[("middle_face", "condition")]["F"] == 175.29
        assert REFERENCE_ANOVA[("lower_face", "emotion")]["partial_eta_sq"] == 0.133

    def test_rows_without_measured_values(self):
        rows = reference_comparison_rows(None, None, "in_sample")
        assert len(rows) == len(REFERENCE_COUPLING_R) + len(REFERENCE_ANOVA)
        for row in rows:
            assert row[-1] == "in_sample"

    def test_measured_values_join(self):
        cells = [
            CouplingCell("total_face", "prosody", "all", "all", "", 0.41, 0.01, 5, 9000)
        ]
        rows = reference_comparison_rows(cells, None, "k_fold(5)")
        hit = [r for r in rows if r[:3] == ("coupling", "total_face", "prosody")]
        assert len(hit) == 1
        assert hit[0][3] == 0.41
