import numpy as np

from icustudy.group import (
    read_strata_csv,
    read_studygroup_csv,
    write_strata_csv,
    write_studygroup_csv,
)

from helpers import make_group


def test_handoff_files_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(5)
    group = make_group(rng, 40)
    scores = rng.uniform(0.0, 1.0, size=40)
    assignment = np.arange(40) % 5 + 1
    # values that need all 17 significant digits, so any rounding shows
    assert any(float(format(v, ".16g")) != v for v in scores)
    assert any(float(format(v, ".16g")) != v for v in group.x.ravel())

    write_studygroup_csv(group, tmp_path / "studygroup.csv")
    back = read_studygroup_csv(tmp_path / "studygroup.csv")
    assert back.keys == group.keys
    assert back.x.tobytes() == group.x.tobytes()

    write_strata_csv(group, scores, assignment, tmp_path / "strata.csv")
    read_scores, read_assignment = read_strata_csv(tmp_path / "strata.csv", back)
    assert read_scores.tobytes() == scores.tobytes()
    assert np.array_equal(read_assignment, assignment)
