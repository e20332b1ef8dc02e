import numpy as np
import pytest

from hiddenpop.data import _WRITE_BLOCK_ROWS, CountPanel, PanelDataset, _write_columns

from oracles import write_columns_by_row


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
    with pytest.raises(ValueError, match="^counts.csv:2: count 'inf' is not a nonnegative "
                                         "integer$"):
        CountPanel.from_csv(path)


B = _WRITE_BLOCK_ROWS
# float cells whose `%.6g` text is easy to get wrong: signed zero, the
# smallest subnormal, ties at the sixth digit, and integer values
SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 0.5, 123456.5,
                  3.0, -7.0, 1e6, 2.0**53]


# a block holds the whole regions that fit in B rows, or one region longer
# than B: the ids give the rows written
@pytest.mark.parametrize("n, t", [(1, 1), (819, 5), (1024, 4), (241, 17), (1, B + 1),
                                  (2731, 3)],
                         ids=["1", "B-1", "B", "B+1", "B+1-one-region", "2B+1"])
def test_block_writer_matches_the_row_writer(tmp_path, n, t):
    assert n * t in (1, B - 1, B, B + 1, 2 * B + 1)
    rng = np.random.default_rng(n)
    floats = np.concatenate([SPECIAL_FLOATS, rng.normal(scale=1e3, size=n * t)])[:n * t]
    rng.shuffle(floats)
    floats = floats.reshape(n, t)
    tiers = rng.choice(np.array(["none", "90", "95", "99.5"], dtype=object), size=(n, t))
    per_region = rng.choice(np.array(SPECIAL_FLOATS), size=(n, 1))
    regions = np.sort(rng.choice(np.arange(-10**6, 10**6), size=n, replace=False))
    times = np.arange(t) + 1990
    header = ["region", "time", "a", "b", "tier", "c"]
    columns = [floats, per_region, tiers, np.rint(floats)]
    _write_columns(tmp_path / "block.csv", header, regions, times, columns)
    write_columns_by_row(tmp_path / "row.csv", header, regions, times, columns)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


def test_block_writer_writes_every_special_float_as_the_row_writer(tmp_path):
    column = np.array(SPECIAL_FLOATS)[:, None]
    args = (["region", "time", "v"], np.arange(column.size), np.array([0]), [column])
    _write_columns(tmp_path / "block.csv", *args)
    write_columns_by_row(tmp_path / "row.csv", *args)
    text = (tmp_path / "block.csv").read_bytes()
    assert text == (tmp_path / "row.csv").read_bytes()
    assert text.split(b"\r\n")[1:-1] == [
        f"{i},0,{v}".encode() for i, v in enumerate(
            ["nan", "inf", "-inf", "-0", "0", "4.94066e-324", "1e+16", "0.5", "123456",
             "3", "-7", "1e+06", "9.0072e+15"])]


def test_block_writer_leaves_no_file_when_a_cell_fails_to_format(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(TypeError):
        _write_columns(path, ["region", "time", "v"], np.array(["a"]), np.arange(1),
                       [np.zeros((1, 1))])
    assert not path.exists()
