import numpy as np

from vbscd.csvout import cell, write_csv


def test_cell_writes_each_kind_of_value():
    assert cell(0.1) == "0.10000000000000001"
    assert cell(np.float64(2.0)) == "2"
    assert cell(float("nan")) == "nan" and cell(-float("inf")) == "-inf"
    assert cell(7) == "7" and cell(np.int64(-3)) == "-3"
    assert (cell(True), cell(False), cell(np.bool_(True))) == ("true", "false", "true")
    assert cell(None) == ""
    assert cell(np.array([[1.5, 0.1], [-2.0, 3.0]])) == "1.5;0.10000000000000001;-2;3"
    assert cell("lasso") == "lasso"
    # a float's cell is the one-%-call-per-row format of the long files
    for x in (0.1, 1e-300, 123456789.123, -0.0):
        assert cell(x) == "%.17g" % x


def test_write_csv_takes_lines_and_value_tuples(tmp_path):
    path = tmp_path / "sub" / "out.csv"
    write_csv(path, "a,b,c", ["1,x,", (0.5, None, False)])
    assert path.read_bytes() == b"a,b,c\n1,x,\n0.5,,false\n"
