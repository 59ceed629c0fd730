"""The README's library tour runs as written against the current API."""

import re
from pathlib import Path

from confpce.harness import RECORD_COLUMNS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    tour = re.search(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert tour, "README has no python block"
    namespace = {}
    exec(compile(tour.group(1), str(README), "exec"), namespace)
    # The tour's closing line claims coverage near the nominal 0.95.
    coverage = namespace["cp"].empirical_coverage(
        namespace["lowers"], namespace["uppers"], namespace["test"].outputs
    )
    assert 0.9 <= coverage <= 1.0


def test_records_columns_line_is_the_schema():
    text = README.read_text()
    lead = "`experiment` writes `records.csv` (one row per seed, columns\n`"
    assert lead in text
    assert text.split(lead, 1)[1].split("`", 1)[0] == ",".join(RECORD_COLUMNS)
