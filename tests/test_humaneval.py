import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlab.corpus import read_lines
from mtlab.humaneval import (
    AdequacyFluencyRecord,
    ScoreError,
    correlate,
    ingest_scores,
    pearson,
    spearman,
    summarize,
    weighted_kappa,
)

HEADER = "sentence_id,rater_id,system,adequacy,fluency"


def sheet(tmp_path, rows):
    path = tmp_path / "scores.csv"
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return path


class TestIngest:
    def test_valid_file(self, tmp_path):
        path = sheet(tmp_path, ["1,r1,sysA,3,4", "1,r2,sysA,4,4", "2,r1,sysA,2,3", "2,r2,sysA,3,3"])
        records = ingest_scores(path)
        assert len(records) == 4
        assert records[0] == AdequacyFluencyRecord(1, "r1", "sysA", 3, 4)

    def test_out_of_range_names_row(self, tmp_path):
        path = sheet(tmp_path, ["1,r1,sysA,3,4", "2,r1,sysA,9,4"])
        with pytest.raises(ScoreError, match="line 3"):
            ingest_scores(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = sheet(tmp_path, ["1,r1,sysA,3,4", "1,r1,sysA,2,2"])
        with pytest.raises(ScoreError, match="duplicate"):
            ingest_scores(path)

    def test_malformed_row_named(self, tmp_path):
        path = sheet(tmp_path, ["1,r1,sysA,three,4"])
        with pytest.raises(ScoreError, match="line 2"):
            ingest_scores(path)

    @pytest.mark.parametrize("rows", [["1,r1,sysA,3,4"], []], ids=["one-row", "header-only"])
    def test_empty_range_rejected_up_front(self, tmp_path, rows):
        with pytest.raises(ScoreError) as exc:
            ingest_scores(sheet(tmp_path, rows), (4, 2))
        assert str(exc.value) == "score range 4-2 is empty: its minimum exceeds its maximum"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ScoreError, match="header"):
            ingest_scores(path)


def _record_of_present_cells(*fields):
    # DictReader reads a short row's missing cells as None; the reference kept
    # such a cell as a rater or system, and a short row is now malformed
    if None in fields:
        raise TypeError("the row lacks a cell")
    return AdequacyFluencyRecord(*fields)


def _reference_ingest_scores(path, score_range=(1, 4)):
    """`ingest_scores` as it read sheets through `csv.DictReader`, but for
    `_record_of_present_cells`.  A row is named by the file line it starts
    on: the first non-blank line after the end of the row before it."""
    low, high = score_range
    records = []
    seen = set()
    lines = read_lines(path)
    reader = csv.DictReader(line + "\n" for line in lines)
    rows = []
    try:
        reader.fieldnames   # reads the header
        end = reader.line_num
        for row in reader:
            start = end
            while not lines[start]:   # DictReader skips blank lines
                start += 1
            rows.append((start + 1, row))
            end = reader.line_num
    except csv.Error as exc:
        raise ScoreError(f"{path}: line {reader.reader.line_num}: {exc}") from None
    required = {"sentence_id", "rater_id", "system", "adequacy", "fluency"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ScoreError(f"{path}: header must contain {sorted(required)}")
    for line_number, row in rows:
        try:
            record = _record_of_present_cells(
                int(row["sentence_id"]), row["rater_id"], row["system"],
                int(row["adequacy"]), int(row["fluency"]),
            )
        except (TypeError, ValueError):
            # the row's cells, read again from the line the row starts on
            cells = next(csv.reader(text + "\n" for text in lines[line_number - 1:]))
            raise ScoreError(f"{path}: line {line_number}: malformed record {cells}") from None
        for name, score in (("adequacy", record.adequacy), ("fluency", record.fluency)):
            if not low <= score <= high:
                raise ScoreError(
                    f"{path}: line {line_number}: {name}={score} outside range {low}-{high}"
                )
        key = (record.sentence_id, record.rater_id, record.system)
        if key in seen:
            raise ScoreError(f"{path}: line {line_number}: duplicate key {key}")
        seen.add(key)
        records.append(record)
    return records


def _outcome(ingest, path):
    try:
        return ingest(path)
    except ScoreError as exc:
        return str(exc)


HEADERS = [
    HEADER.split(","),
    ["fluency", "system", "sentence_id", "adequacy", "rater_id"],
    HEADER.split(",") + ["comment"],
    ["comment", "adequacy", "sentence_id", "rater_id", "system", "fluency"],
    HEADER.split(",") + ["adequacy"],     # a repeated column reads its last cell
    ["sentence_id", "rater_id", "system", "adequacy"],
    [],
]
CELLS = {"sentence_id": ["1", "2", " 3"] * 5 + ["x"], "rater_id": ["r1", "r2", '"r\n3"', '"r,4"'],
         "system": ["sysA", "sysB", '"sys\n\nC"'], "adequacy": ["1", "2", "4"] * 5 + ["9", "0", ""],
         "fluency": ["1", "3", "4"] * 5 + ["5"], "comment": ["ok", '"a ""quoted"" note"', ""]}


@st.composite
def score_sheets(draw):
    """Sheet text: a header, then rows that may be blank, short or long, with
    quoted multi-line cells, out-of-range scores and repeated keys."""
    header = draw(st.sampled_from(HEADERS[:5] * 3 + HEADERS[5:]))
    lines = [""] * (draw(st.integers(0, 7)) == 0) + [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank", "blank", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        cells = [draw(st.sampled_from(CELLS[name])) for name in header]
        if kind == "short":
            cells = cells[: draw(st.integers(0, max(len(cells) - 1, 0)))] or ["1"]
        elif kind == "long":
            cells.append("extra")
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@given(score_sheets())
@settings(max_examples=400, deadline=None)
def test_ingest_matches_dictreader_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("sheet") / "scores.csv"
    path.write_text(text, encoding="utf-8")
    assert _outcome(ingest_scores, path) == _outcome(_reference_ingest_scores, path)


@pytest.mark.parametrize("text, expected", [
    ("\n".join([HEADER, "", "1,r1,sysA,3,4", "", "", "2,r1,sysA,9,4"]), "line 6: adequacy=9 outside range 1-4"),
    ("\n".join([HEADER, "1,r1,sysA,3"]),
     "line 2: malformed record ['1', 'r1', 'sysA', '3']"),
    ("\n".join(["fluency,system,sentence_id,adequacy,rater_id", "4,sysA,1,3"]),
     "line 2: malformed record ['4', 'sysA', '1', '3']"),
    ("\n".join([HEADER, '1,"r\n1",sysA,3,4', '1,"r\n1",sysA,2,2']), "line 4: duplicate key (1, 'r\\n1', 'sysA')"),
])
def test_ingest_names_the_row(tmp_path, text, expected):
    path = tmp_path / "scores.csv"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ScoreError) as exc:
        ingest_scores(path)
    assert str(exc.value) == f"{path}: {expected}"


def rec(sid, rater, system, adequacy, fluency):
    return AdequacyFluencyRecord(sid, rater, system, adequacy, fluency)


class TestSummarize:
    def test_perfect_agreement_kappa_one(self):
        records = []
        for sid, score in [(1, 1), (2, 2), (3, 3), (4, 4)]:
            records.append(rec(sid, "r1", "sys", score, score))
            records.append(rec(sid, "r2", "sys", score, score))
        summary = summarize(records).systems["sys"]
        assert summary.kappa_adequacy == pytest.approx(1.0)
        assert summary.kappa_fluency == pytest.approx(1.0)

    def test_hand_built_means(self):
        records = [
            rec(1, "r1", "sys", 1, 2), rec(1, "r2", "sys", 3, 4),
            rec(2, "r1", "sys", 2, 2), rec(2, "r2", "sys", 4, 2),
            rec(3, "r1", "sys", 1, 1), rec(3, "r2", "sys", 2, 3),
        ]
        s = summarize(records).systems["sys"]
        # sentence means: adequacy (2, 3, 1.5) -> 6.5/3 ; fluency (3, 2, 2) -> 7/3
        assert s.mean_adequacy == pytest.approx(6.5 / 3)
        assert s.mean_fluency == pytest.approx(7 / 3)
        assert s.rater_means["r1"] == (pytest.approx(4 / 3), pytest.approx(5 / 3))
        assert s.n == 3

    def test_constant_scores_kappa_undefined(self):
        records = [rec(i, r, "sys", 3, 3) for i in (1, 2, 3) for r in ("r1", "r2")]
        s = summarize(records).systems["sys"]
        assert s.kappa_adequacy is None
        assert s.mean_adequacy == 3.0

    def test_single_rater_agreement_undefined(self):
        records = [rec(1, "r1", "sys", 2, 3), rec(2, "r1", "sys", 3, 2)]
        s = summarize(records).systems["sys"]
        assert s.kappa_adequacy is None
        assert s.mean_adequacy == 2.5

    def test_means_invariant_under_permutation(self):
        records = [rec(i, r, "sys", (i + len(r)) % 4 + 1, i % 4 + 1)
                   for i in range(1, 6) for r in ("r1", "r2")]
        forward = summarize(records).systems["sys"]
        backward = summarize(list(reversed(records))).systems["sys"]
        assert forward.mean_adequacy == backward.mean_adequacy
        assert forward.kappa_adequacy == backward.kappa_adequacy

    def test_kappa_undefined_without_pairs_or_range(self):
        assert weighted_kappa([]) is None
        assert weighted_kappa([(3, 3)], (3, 3)) is None

    def test_kappa_symmetric_in_raters(self):
        pairs = [(1, 2), (2, 2), (3, 4), (4, 3), (1, 1), (2, 4)]
        assert weighted_kappa(pairs) == pytest.approx(weighted_kappa([(b, a) for a, b in pairs]))

    def test_empty_records_rejected(self):
        with pytest.raises(ScoreError):
            summarize([])

    def test_empty_range_rejected(self):
        records = [rec(1, "r1", "sys", 3, 3)]
        assert summarize(records, (3, 3)).systems["sys"].mean_adequacy == 3.0
        with pytest.raises(ScoreError, match="^score range 3-2 is empty"):
            summarize(records, (3, 2))


class TestCorrelate:
    def test_exact_linear_pearson_one(self):
        bleu = {"a": 40.0, "b": 42.0, "c": 47.0, "d": 45.0}
        human = {k: 2 * v + 1 for k, v in bleu.items()}
        report = correlate(bleu, human)
        assert report.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert report.spearman_rho == pytest.approx(1.0, abs=1e-12)
        assert not report.argmax_disagreement

    def test_monotone_nonlinear_spearman_one(self):
        bleu = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 10.0}
        human = {k: math.exp(v) for k, v in bleu.items()}
        report = correlate(bleu, human)
        assert report.spearman_rho == pytest.approx(1.0)
        assert report.pearson_r < 1.0

    def test_argmax_disagreement_flag(self):
        # BLEU ranks "7.5M" best while the human metric prefers "10M"
        bleu = {"1M": 46.54, "2.5M": 47.39, "5M": 47.88, "7.5M": 47.95, "10M": 47.41}
        adequacy = {"1M": 3.0, "2.5M": 3.1, "5M": 3.2, "7.5M": 3.25, "10M": 3.5}
        report = correlate(bleu, adequacy)
        assert report.bleu_argmax == "7.5M"
        assert report.human_argmax == "10M"
        assert report.argmax_disagreement

    def test_flag_depends_only_on_ranking(self):
        bleu = {"a": 1.0, "b": 3.0, "c": 2.0}
        human = {"a": 10.0, "b": 30.0, "c": 20.0}
        base = correlate(bleu, human)
        scaled = correlate({k: 100 * v for k, v in bleu.items()},
                           {k: 0.01 * v + 5 for k, v in human.items()})
        assert base.argmax_disagreement == scaled.argmax_disagreement == False
        assert scaled.spearman_rho == pytest.approx(base.spearman_rho)

    def test_insufficient_common_systems(self):
        with pytest.raises(ScoreError):
            correlate({"a": 1.0}, {"a": 2.0, "b": 3.0})


def test_rank_helpers():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert math.isnan(pearson([1, 2, 3], [5, 5, 5]))
    assert spearman([1, 2, 3], [1, 8, 9]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
