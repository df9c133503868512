import math
import tracemalloc

import pytest

from tailpath import cli, numerics
from tailpath.output import fmt_float, write_csv


def _list_and_join(header, rows):
    """The CSV text as write_csv once built it: every line, then one joined string."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_float(cell) for cell in row))
    return "\n".join(lines) + "\n"


ROWS = [
    (0.1, 1, True, "a"),
    (-0.0, 0, False, "b c"),
    (math.nan, -7, True, ""),
    (math.inf, 2**70, False, "x"),
    (-math.inf, 3, True, "y"),
    (1e-300, -1, False, "z"),
    (1.0 / 3.0, 10, True, "1e-300"),
    (5e-324, 0, False, "q"),
]


class TestWriteCsv:
    def test_bytes_equal_the_list_and_join_form(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ("f", "i", "b", "s")
        write_csv(str(path), header, ROWS)
        assert path.read_bytes() == _list_and_join(header, ROWS).encode()

    def test_rows_from_a_generator_stream(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ("f", "i", "b", "s"), (row for row in ROWS))
        assert path.read_bytes() == _list_and_join(("f", "i", "b", "s"), ROWS).encode()

    def test_write_that_raises_partway_leaves_no_file(self, tmp_path):
        def rows():
            yield from ROWS[:3]
            raise RuntimeError("row source failed")

        target = tmp_path / "out" / "t.csv"
        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(str(target), ("f", "i", "b", "s"), rows())
        assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("spec", ["smo:alpha=0.35,beta=0.7", "t:nu=4.5,rho=0.5"])
def test_sample_streams_within_a_memory_bound(spec, tmp_path, monkeypatch):
    # With blocks of 1000 rows and t cdf entries, 20000 pairs peak at ~2.2 MB
    # (smo) and ~1.6 MB (t) of Python allocations, where a list of every row
    # and line took 6.9 and 6.0 MB.
    monkeypatch.setattr(cli, "_ROW_BLOCK", 1000)
    monkeypatch.setattr(numerics, "_T_CDF_BLOCK", 1000)
    model = cli.parse_model(spec)
    model.sample(2, seed=1)  # loads numpy and the sampler outside the trace
    tracemalloc.start()
    try:
        cli._emit_sample(model, str(tmp_path), "", "csv", n=20000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6
    with open(tmp_path / "sample.csv") as handle:
        assert sum(1 for _ in handle) == 20001
