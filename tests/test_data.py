import numpy as np
import pytest

from hiddenpop.data import CountPanel, PanelDataset


def test_panel_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = PanelDataset(y=rng.normal(size=(4, 3)), x=rng.normal(size=(4, 3, 2)))
    path = tmp_path / "panel.csv"
    data.to_csv(path)
    back = PanelDataset.from_csv(path)
    assert np.allclose(back.y, data.y, atol=1e-4)
    assert np.allclose(back.x, data.x, atol=1e-4)
    assert back.n_regions == 4 and back.n_periods == 3 and back.k_regressors == 2


def test_panel_shape_validation():
    with pytest.raises(ValueError):
        PanelDataset(y=np.zeros((3, 2)), x=np.zeros((3, 3, 1)))
    with pytest.raises(ValueError):
        PanelDataset(y=np.array([[np.nan, 0.0]]), x=np.zeros((1, 2, 1)))


def test_panel_unbalanced_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("region,time,y,x1\n0,0,1.0,0.5\n0,1,1.0,0.5\n1,0,1.0,0.5\n")
    with pytest.raises(ValueError, match="unbalanced"):
        PanelDataset.from_csv(path)


def test_panel_duplicate_cell_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("region,time,y,x1\n0,0,1.0,0.5\n0,0,2.0,0.5\n")
    with pytest.raises(ValueError, match="duplicate"):
        PanelDataset.from_csv(path)


def test_panel_bad_header(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        PanelDataset.from_csv(path)


def test_count_panel_round_trip(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "region,time,count,population\n0,0,3,100\n0,1,1,100\n1,0,5,200\n1,1,2,200\n"
    )
    panel = CountPanel.from_csv(path)
    assert panel.s.shape == (2, 2)
    assert panel.s[1, 0] == 5
    assert panel.n[1, 1] == 200


def test_count_panel_validation():
    with pytest.raises(ValueError):
        CountPanel(s=np.array([[-1]]), n=np.array([[10.0]]))
    with pytest.raises(ValueError):
        CountPanel(s=np.array([[1]]), n=np.array([[0.0]]))
    with pytest.raises(ValueError):
        CountPanel(s=np.array([[1.5]]), n=np.array([[10.0]]))


def test_count_panel_rejects_infinite_counts(tmp_path):
    # inf equals its floor, so only a finiteness check stops it becoming -2**63
    with pytest.raises(ValueError, match="^counts must be nonnegative integers$"):
        CountPanel(s=np.array([[np.inf]]), n=np.array([[10.0]]))
    path = tmp_path / "counts.csv"
    path.write_text("region,time,count,population\n0,0,inf,100\n0,1,3,100\n")
    with pytest.raises(ValueError, match="^counts must be nonnegative integers$"):
        CountPanel.from_csv(path)
