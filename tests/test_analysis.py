import numpy as np
import pytest

import oracles
from motionprim.analysis import (
    FrequencyReport,
    SimilarityMatrix,
    TransitionMatrix,
    export_frequency_csv,
    export_report_json,
    export_similarity_csv,
    export_transitions_csv,
    frequency,
    read_frequency_csv,
    read_similarity_csv,
    read_transitions_csv,
    report_path,
    similarity,
    token_streams,
    transitions,
)
from motionprim.errors import ConfigError, DataError
from motionprim.model import init_model, tiny_config


@pytest.fixture(scope="module")
def model():
    return init_model(tiny_config(), seed=0)


# ---------------------------------------------------------------------------
# similarity


def test_similarity_symmetric_unit_diagonal(model):
    ids = np.arange(model.config.codebook_size)
    sim = similarity(ids, model)
    np.testing.assert_allclose(sim.values, sim.values.T, atol=1e-9)
    np.testing.assert_allclose(np.diag(sim.values), 1.0, atol=1e-9)
    assert np.nanmax(sim.values) <= 1.0 + 1e-9
    assert np.nanmin(sim.values) >= -1.0 - 1e-9
    assert sim.defined.all()


def test_similarity_matches_manual_cosine(model):
    ids = np.array([0, 3, 5])
    sim = similarity(ids, model)
    rows = model.params["embed.rows"][ids]
    a, b = rows[0], rows[2]
    want = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert sim.values[0, 2] == pytest.approx(want, abs=1e-12)


def test_similarity_zero_norm_row_is_nan_and_flagged(model):
    broken = init_model(tiny_config(), seed=0)
    broken.params["embed.rows"][2] = 0.0
    sim = similarity(np.array([0, 1, 2]), broken)
    assert not sim.defined[2]
    assert np.isnan(sim.values[2]).all()
    assert np.isnan(sim.values[:, 2]).all()
    assert np.isfinite(sim.values[0, 1])


def test_similarity_validation(model):
    with pytest.raises(DataError):
        similarity(np.zeros((2, 2), dtype=np.int64), model)
    with pytest.raises(DataError):
        similarity(np.array([model.config.codebook_size]), model)


# ---------------------------------------------------------------------------
# frequency


def test_frequency_conserves_totals():
    streams = [
        (np.array([0, 1, 1, 2]), 0),
        (np.array([1, 1, 3]), 1),
        (np.array([], dtype=np.int64), 0),
    ]
    report = frequency(streams, top_n=10, codebook_size=4)
    assert report.total_tokens == 7
    assert report.counts.sum() == 7
    # index 1 seen 4 times: twice under label 0, twice under label 1
    pos = int(np.where(report.indices == 1)[0][0])
    assert report.counts[pos] == 4
    np.testing.assert_allclose(report.fractions[pos], [0.5, 0.5])
    row_sums = report.fractions[report.counts > 0].sum(axis=1)
    np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)


def test_frequency_order_count_desc_then_index_asc():
    streams = [(np.array([3, 3, 0, 0, 2]), 0)]
    report = frequency(streams, top_n=4, codebook_size=4)
    # counts: 0->2, 2->1, 3->2, 1->0; ties on count resolve to the lower id
    assert report.indices.tolist() == [0, 3, 2, 1]
    assert report.counts.tolist() == [2, 2, 1, 0]


def test_frequency_top_n_caps_rows():
    streams = [(np.arange(8), 0)]
    report = frequency(streams, top_n=3, codebook_size=8)
    assert report.indices.size == 3
    assert report.top_n == 3
    assert report.total_tokens == 8  # total is over all tokens, not kept rows


def test_frequency_validation():
    with pytest.raises(DataError):
        frequency([])
    with pytest.raises(DataError):
        frequency([(np.array([5]), 0)], codebook_size=4)
    with pytest.raises(DataError):
        frequency([(np.array([0]), 2)], num_classes=2)


@pytest.mark.parametrize("top_n", [0, -3])
def test_frequency_rejects_top_n_below_one(top_n):
    # a negative top_n once sliced rows off the end: K=8, top_n=-3 kept 5
    with pytest.raises(ConfigError, match="top_n"):
        frequency([(np.arange(8), 0)], top_n=top_n, codebook_size=8)


# ---------------------------------------------------------------------------
# transitions


def test_transition_rows_stochastic():
    rng = np.random.default_rng(0)
    streams = [rng.integers(0, 6, size=20) for _ in range(5)]
    matrix = transitions(streams, codebook_size=6)
    sums = matrix.probabilities[matrix.observed].sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    assert (matrix.probabilities[~matrix.observed] == 0).all()
    assert matrix.total_transitions == 5 * 19


def test_transitions_match_bigram_oracle():
    streams = [np.array([0, 1, 1, 2]), np.array([2, 0])]
    matrix = transitions(streams, codebook_size=3)
    want = sum(np.asarray(oracles.bigram_counts(s.tolist(), 3)) for s in streams)
    counts = matrix.probabilities * matrix.row_counts[:, None]
    np.testing.assert_allclose(counts, want, atol=1e-12)
    np.testing.assert_array_equal(matrix.row_counts, np.asarray(want).sum(axis=1))


def test_transitions_do_not_cross_stream_boundaries():
    # glued: [0,1] + [2,3] as one stream would add a 1->2 bigram
    split = transitions([np.array([0, 1]), np.array([2, 3])], codebook_size=4)
    glued = transitions([np.array([0, 1, 2, 3])], codebook_size=4)
    assert split.probabilities[1, 2] == 0.0
    assert glued.probabilities[1, 2] == 1.0
    assert split.total_transitions == 2
    # single-token streams contribute nothing
    skipped = transitions([np.array([3])], codebook_size=4)
    assert skipped.total_transitions == 0
    assert not skipped.observed.any()


# ---------------------------------------------------------------------------
# stream extraction


def test_token_streams_layout():
    indices = np.arange(2 * 3 * 4).reshape(2, 3, 4)
    labels = np.array([7, 9])
    streams = token_streams(indices, labels)
    assert len(streams) == 6
    np.testing.assert_array_equal(streams[0][0], indices[0, 0])
    np.testing.assert_array_equal(streams[4][0], indices[1, 1])
    assert [lab for _, lab in streams] == [7, 7, 7, 9, 9, 9]
    unlabeled = token_streams(indices, None)
    assert all(lab == -1 for _, lab in unlabeled)
    with pytest.raises(DataError):
        token_streams(indices[0], labels)
    with pytest.raises(DataError):
        token_streams(indices, labels[:1])


# ---------------------------------------------------------------------------
# exports


def test_report_path_convention(tmp_path):
    path = report_path(tmp_path, "run-ab12", "similarity", "csv")
    assert path == tmp_path / "run-ab12_similarity.csv"


def test_similarity_csv_round_trip(model, tmp_path):
    sim = similarity(np.array([0, 2, 4]), model)
    path = tmp_path / "sim.csv"
    export_similarity_csv(sim, path)
    back = read_similarity_csv(path)
    np.testing.assert_array_equal(back.token_ids, sim.token_ids)
    np.testing.assert_array_equal(back.values, sim.values)  # bit-exact
    export_similarity_csv(back, tmp_path / "sim2.csv")
    assert (tmp_path / "sim.csv").read_bytes() == (tmp_path / "sim2.csv").read_bytes()


def test_frequency_csv_round_trip(tmp_path):
    report = frequency([(np.array([0, 1, 1, 3, 3, 3]), 0), (np.array([1]), 1)],
                       top_n=4, codebook_size=4)
    path = tmp_path / "freq.csv"
    export_frequency_csv(report, path)
    back = read_frequency_csv(path)
    np.testing.assert_array_equal(back.indices, report.indices)
    np.testing.assert_array_equal(back.counts, report.counts)
    np.testing.assert_array_equal(back.fractions, report.fractions)
    assert back.num_classes == report.num_classes
    export_frequency_csv(back, tmp_path / "freq2.csv")
    assert path.read_bytes() == (tmp_path / "freq2.csv").read_bytes()


def test_transitions_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    matrix = transitions([rng.integers(0, 5, size=30)], codebook_size=5)
    path = tmp_path / "trans.csv"
    export_transitions_csv(matrix, path)
    back = read_transitions_csv(path)
    np.testing.assert_array_equal(back.probabilities, matrix.probabilities)
    np.testing.assert_array_equal(back.row_counts, matrix.row_counts)
    np.testing.assert_array_equal(back.observed, matrix.observed)
    assert back.total_transitions == matrix.total_transitions
    export_transitions_csv(back, tmp_path / "trans2.csv")
    assert path.read_bytes() == (tmp_path / "trans2.csv").read_bytes()


def test_report_json_nan_becomes_null(model, tmp_path):
    import json

    broken = init_model(tiny_config(), seed=0)
    broken.params["embed.rows"][1] = 0.0
    sim = similarity(np.array([0, 1]), broken)
    path = tmp_path / "sim.json"
    export_report_json(sim, path)
    payload = json.loads(path.read_text())
    assert payload["report"] == "similarity"
    assert payload["values"][1][0] is None
    assert payload["values"][0][0] == pytest.approx(1.0)
    with pytest.raises(DataError):
        export_report_json({"not": "a report"}, tmp_path / "bad.json")


def test_report_json_all_kinds(model, tmp_path):
    import json

    freq = frequency([(np.array([0, 0, 1]), 0)], codebook_size=2)
    trans = transitions([np.array([0, 1, 0])], codebook_size=2)
    export_report_json(freq, tmp_path / "f.json")
    export_report_json(trans, tmp_path / "t.json")
    f = json.loads((tmp_path / "f.json").read_text())
    t = json.loads((tmp_path / "t.json").read_text())
    assert f["report"] == "frequency" and f["total_tokens"] == 3
    assert t["report"] == "transitions" and t["total_transitions"] == 2
