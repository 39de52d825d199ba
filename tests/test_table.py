"""The one CSV writer writes the bytes the csv module writes."""
import csv

import numpy as np

from bosehub._table import write_csv

ROWS = [
    (0, "012011", np.int64(5), "reduced"),
    (np.int64(-3), -0.0, 1e-300, 1e16),
    (float("nan"), float("inf"), float("-inf"), np.float64(1 / 3)),
    (np.float64(-2e-17), 0.1 + 0.2, 123456789.125, "postselected-corrected"),
]


def test_write_csv_matches_the_csv_module(tmp_path):
    header = ("a", "b", "c", "d")
    path = tmp_path / "table.csv"
    write_csv(path, header, iter(ROWS))
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(ROWS)
    assert path.read_bytes() == reference.read_bytes()


def test_write_csv_with_no_rows_writes_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ("shots", "median_frac_dev", "std"), [])
    assert path.read_bytes() == b"shots,median_frac_dev,std\r\n"
