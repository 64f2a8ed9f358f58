import json
import os
import re
import tracemalloc
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_manifest, make_problem, write_jsonl, write_record_lines
from ganitprep import corpus
from ganitprep.corpus import (
    CorpusManifest,
    Difficulty,
    Language,
    Operation,
    Problem,
    Source,
    SourceFormat,
    ingest_gsm8k,
    ingest_hawp,
    ingest_indimathqa,
    ingest_math,
    load_manifest,
    records_checksum,
    save_manifest,
)
from ganitprep.cli import DEMO_PLAN, build_parser
from ganitprep.common import canonical_json, write_lines_atomic
from ganitprep.curriculum import (
    STAGE_EASY,
    CurriculumManifest,
    Stage,
    TrainingMode,
    build_curriculum,
    export_stage,
    save_curriculum,
    save_split,
    split,
)
from ganitprep.errors import PipelineError
from ganitprep.evaluate import GradeRecord, Verdict, save_grades
from ganitprep.llm_client import prompt_digest, write_mock_fixture
from ganitprep.structure import (
    SECTION_FIELDS,
    StructuredSolution,
    emit_training_config,
    get_template,
)
from ganitprep.answers import AnswerValue


class TestIngestGsm8k:
    def test_basic_record(self, tmp_path):
        path = tmp_path / "g.jsonl"
        write_jsonl(path, [{"question": "2+2 apples, how many?", "answer": "2+2=4\n#### 4"}])
        manifest = ingest_gsm8k(path)
        assert len(manifest) == 1
        problem = manifest.records[0]
        assert problem.source is Source.GSM8K
        assert problem.language is Language.ENGLISH
        assert problem.difficulty is Difficulty.UNCLASSIFIED
        assert problem.raw_solution.endswith("#### 4")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        manifest = ingest_gsm8k(path)
        assert len(manifest) == 0
        assert manifest.checksum == make_manifest([]).checksum

    def test_missing_marker_names_line(self, tmp_path):
        path = tmp_path / "g.jsonl"
        write_jsonl(path, [
            {"question": "ok?", "answer": "fine\n#### 1"},
            {"question": "bad?", "answer": "no marker here"},
        ])
        with pytest.raises(PipelineError, match=re.escape(f"{path}:2: no final-answer marker")):
            ingest_gsm8k(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "g.jsonl"
        write_jsonl(path, [{"question": "only question"}])
        with pytest.raises(PipelineError, match=re.escape(f"{path}:1: missing field 'answer'")):
            ingest_gsm8k(path)

    def test_extras_preserved(self, tmp_path):
        path = tmp_path / "g.jsonl"
        write_jsonl(path, [{"question": "q?", "answer": "#### 1", "split": "train"}])
        manifest = ingest_gsm8k(path)
        assert manifest.records[0].extras == {"split": "train"}

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "g.jsonl"
        write_jsonl(path, [{"question": f"q{i}?", "answer": f"#### {i}"} for i in range(5)])
        manifest = ingest_gsm8k(path)
        assert [p.question for p in manifest] == [f"q{i}?" for i in range(5)]


class TestIngestMath:
    def _write(self, path, level):
        write_jsonl(path, [{"problem": "p?", "level": level, "type": "Algebra",
                            "solution": "s \\boxed{1}"}])

    @pytest.mark.parametrize("level,expected", [("Level 1", 1), ("Level 5", 5)])
    def test_level_parse(self, tmp_path, level, expected):
        path = tmp_path / "m.jsonl"
        self._write(path, level)
        manifest = ingest_math(path)
        assert manifest.records[0].math_level == expected
        assert manifest.records[0].topic == "Algebra"

    def test_level_out_of_range(self, tmp_path):
        path = tmp_path / "m.jsonl"
        self._write(path, "Level 9")
        with pytest.raises(PipelineError, match="outside 1..5"):
            ingest_math(path)

    def test_level_unparseable(self, tmp_path):
        path = tmp_path / "m.jsonl"
        self._write(path, "Lvl three")
        with pytest.raises(PipelineError, match="unparseable level"):
            ingest_math(path)


class TestIngestHawp:
    def test_counts_and_tags(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_jsonl(path, [
            {"question": "राम के पास कितने आम हैं?", "operation": "mul", "solution": "5 × 3 = 15"},
            {"question": "कितने बचे?", "operation": "Sub"},
        ])
        manifest = ingest_hawp(path)
        assert len(manifest) == 2
        assert manifest.records[0].operation is Operation.MUL
        assert manifest.records[1].operation is Operation.SUB
        assert manifest.records[1].raw_solution is None
        assert all(p.language is Language.HINDI for p in manifest)

    def test_unknown_tag_lists_valid(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_jsonl(path, [{"question": "q?", "operation": "mod"}])
        with pytest.raises(PipelineError, match="add, div, mul, sub"):
            ingest_hawp(path)

    def test_nfc_normalization(self, tmp_path):
        # क़ composed (U+0958) vs क + nukta; ingestion must settle on NFC.
        decomposed = "क़"
        path = tmp_path / "h.jsonl"
        write_jsonl(path, [{"question": decomposed, "operation": "add"}])
        manifest = ingest_hawp(path)
        assert manifest.records[0].question == unicodedata.normalize("NFC", decomposed)


    def test_empty_solution_reads_as_absent(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_jsonl(path, [{"question": "q?", "operation": "add", "solution": ""}])
        assert ingest_hawp(path).records[0].raw_solution is None


class TestIngestIndiMathQA:
    def test_ids_language_and_fields(self, tmp_path):
        path = tmp_path / "i.jsonl"
        write_jsonl(path, [{"id": "imqa-7-hi", "topic": "sets", "question": "प्रश्न?",
                            "solution": "अंतिम उत्तर: 5"}])
        manifest = ingest_indimathqa(path, Language.HINDI)
        assert manifest.source_format is SourceFormat.INDIMATHQA
        problem = manifest.records[0]
        assert (problem.id, problem.language, problem.source, problem.topic) == \
            ("imqa-7-hi", Language.HINDI, Source.INDIMATHQA, "sets")
        assert problem.raw_solution == "अंतिम उत्तर: 5"
        assert problem.extras == {}

    def test_empty_solution_reads_as_absent(self, tmp_path):
        path = tmp_path / "i.jsonl"
        write_jsonl(path, [{"id": "a", "question": "q?", "solution": ""}])
        assert ingest_indimathqa(path, Language.ENGLISH).records[0].raw_solution is None

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
    def test_line_separator_in_question_kept(self, tmp_path, char):
        path = tmp_path / "i.jsonl"
        write_jsonl(path, [{"id": "a", "question": f"first{char}second?"}])
        problem = ingest_indimathqa(path, Language.ENGLISH).records[0]
        assert problem.question == f"first{char}second?"

    @pytest.mark.parametrize("record,field", [
        ({"question": "q?"}, "id"),
        ({"id": " ", "question": "q?"}, "id"),
        ({"id": "b"}, "question"),
        ({"id": "b", "question": ""}, "question"),
    ])
    def test_missing_field_names_path_and_line(self, tmp_path, record, field):
        path = tmp_path / "i.jsonl"
        write_jsonl(path, [{"id": "a", "question": "q?"}, record])
        expected = re.escape(f"{path}:2: missing field {field!r}")
        with pytest.raises(PipelineError, match=expected):
            ingest_indimathqa(path, Language.ENGLISH)

    def test_unknown_field_kept_in_extras(self, tmp_path):
        path = tmp_path / "i.jsonl"
        write_jsonl(path, [{"id": "a", "question": "q?", "grade": 11}])
        problem = ingest_indimathqa(path, Language.ENGLISH).records[0]
        assert problem.extras == {"grade": 11}


# Record checksums of the bundled fixtures: a change to any reader's field
# mapping, ids or normalisation shows here.
_FIXTURE_CHECKSUMS = {
    "gsm8k": "sha256:83dfae7e3793edf6fb9f63d5d14102df6f7273d94674683d6fbbd4fb36e5a835",
    "math": "sha256:4d4f74382a69f73139af6c13d368cdb81ac6d951ddc87730d2ec59fe3448c49e",
    "hawp": "sha256:acb1597f46c30a0b6d73b8593c2f0646b468efd3db4b2616076e9e8af75ba2d0",
    "indimathqa_en": "sha256:e195626330bb4b541b9feaff25e55963a82027b9c6db6460a936dfc756b7e65b",
    "indimathqa_hi": "sha256:73b334ce9cd4660c198f05924e771c4c3c2151d25ea4dd9276bac4d513cfa9e6",
}

_FIXTURE_READERS = {
    "gsm8k": ingest_gsm8k,
    "math": ingest_math,
    "hawp": ingest_hawp,
    "indimathqa_en": lambda path: ingest_indimathqa(path, Language.ENGLISH),
    "indimathqa_hi": lambda path: ingest_indimathqa(path, Language.HINDI),
}


@pytest.mark.parametrize("name", sorted(_FIXTURE_CHECKSUMS))
def test_demo_fixture_checksum(name):
    manifest = _FIXTURE_READERS[name](DEMO_PLAN.parent / f"{name}.jsonl")
    assert manifest.checksum == _FIXTURE_CHECKSUMS[name]


class TestProblemInvariants:
    def test_empty_id_rejected(self):
        with pytest.raises(PipelineError, match="^problem id must be nonempty$"):
            make_problem("")

    def test_math_requires_level(self):
        with pytest.raises(PipelineError, match="math_level"):
            Problem(id="x", language=Language.ENGLISH, source=Source.MATH, question="q")

    def test_level_only_for_math(self):
        with pytest.raises(PipelineError, match="only valid for MATH"):
            make_problem("x", source=Source.GSM8K, math_level=2)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            make_manifest([make_problem("a"), make_problem("a")])

    def test_pair_same_language_rejected(self):
        problems = [make_problem("a", pair_id="p"), make_problem("b", pair_id="p")]
        with pytest.raises(PipelineError, match="distinct languages"):
            make_manifest(problems)

    def test_pair_difficulty_mismatch_rejected(self):
        problems = [
            make_problem("a", pair_id="p", difficulty=Difficulty.EASY),
            make_problem("b", pair_id="p", language=Language.HINDI,
                         difficulty=Difficulty.MEDIUM),
        ]
        with pytest.raises(PipelineError, match="share one difficulty"):
            make_manifest(problems)


class TestPersistence:
    def _sample_manifest(self):
        solution = StructuredSolution(
            data_identification="two and two",
            problem_analysis="add them",
            theoretical_framework="addition",
            methodology_development="sum the values",
            computation="2 + 2 = 4",
            answer="4",
            final_answer=AnswerValue.from_rational(4),
        )
        problems = [
            make_problem("a", question="क्या है?", language=Language.HINDI,
                         source=Source.HAWP, operation=Operation.ADD,
                         raw_solution="2 + 2 = 4"),
            make_problem("b", structured_solution=solution,
                         difficulty=Difficulty.EASY, extras={"k": "v"}),
            make_problem("c", source=Source.MATH, math_level=3, topic="Geometry"),
        ]
        return make_manifest(problems)

    def test_round_trip_identity(self, tmp_path):
        manifest = self._sample_manifest()
        path = tmp_path / "m.jsonl"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        manifest = self._sample_manifest()
        path = tmp_path / "m.jsonl"
        save_manifest(manifest, path)
        data = path.read_bytes()
        # flip one byte inside a record's string value; the file stays valid
        # JSONL so only the checksum can catch it
        index = data.index(b"two and two")
        corrupted = data[:index] + b"twX" + data[index + 3:]
        (tmp_path / "bad.jsonl").write_bytes(corrupted)
        with pytest.raises(PipelineError, match="checksum"):
            load_manifest(tmp_path / "bad.jsonl")

    def test_stale_checksum_rejected(self, tmp_path):
        manifest = self._sample_manifest()
        path = tmp_path / "m.jsonl"
        save_manifest(manifest, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["checksum"] = "sha256:" + "0" * 64
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="checksum mismatch"):
            load_manifest(path)

    def test_load_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nope.jsonl")

    def test_byte_identical_rewrites(self, tmp_path):
        manifest = self._sample_manifest()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_manifest(manifest, a)
        save_manifest(manifest, b)
        assert a.read_bytes() == b.read_bytes()

    def test_reordered_keys_rejected(self, tmp_path):
        # The record still parses to the same problem, but load verifies the
        # line as written, not a re-serialisation of it.
        path = tmp_path / "m.jsonl"
        save_manifest(self._sample_manifest(), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        record = json.loads(lines[1])
        lines[1] = json.dumps(dict(reversed(list(record.items()))),
                              ensure_ascii=False, separators=(",", ":"))
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(PipelineError, match="checksum mismatch"):
            load_manifest(path)

    def test_load_does_not_reserialise(self, tmp_path, monkeypatch):
        manifest = self._sample_manifest()
        path = tmp_path / "m.jsonl"
        save_manifest(manifest, path)
        calls = []
        original = corpus.records_checksum
        monkeypatch.setattr(corpus, "records_checksum",
                            lambda records: calls.append(1) or original(records))
        loaded = load_manifest(path)
        assert calls == []
        assert loaded.checksum == _header_checksum(path)  # derived on first access
        assert loaded.checksum == manifest.checksum  # then cached
        assert len(calls) == 1

    def test_direct_construction_saves_loadable_file(self, tmp_path):
        manifest = CorpusManifest(records=self._sample_manifest().records,
                                  source_format=SourceFormat.MIXED,
                                  created_at="2024-01-01T00:00:00+00:00")
        save_manifest(manifest, tmp_path / "m.jsonl")
        loaded = load_manifest(tmp_path / "m.jsonl")
        assert loaded == manifest
        assert loaded.checksum == manifest.checksum

    @pytest.mark.parametrize("records,message", [
        ([make_problem("a"), make_problem("a")], "duplicate problem id: a"),
        ([make_problem("x-1", pair_id="x"), make_problem("x-2", pair_id="x")],
         "pair x: members must have distinct languages"),
    ], ids=["duplicate-id", "bad-pair"])
    def test_direct_construction_validates(self, records, message):
        with pytest.raises(PipelineError, match=message):
            CorpusManifest(records=tuple(records), source_format=SourceFormat.MIXED,
                           created_at="2024-01-01T00:00:00+00:00")


def _header_checksum(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.readline())["checksum"]


_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N", "P", "Zs"),
        whitelist_characters="ऄअआइईउऊकखगघङचछजझञटठडढणतथदधनपफबभमयरलवशषसह०१२३४५६७८९",
    ),
    min_size=1,
    max_size=40,
)


@st.composite
def _problems(draw):
    count = draw(st.integers(min_value=0, max_value=8))
    problems = []
    for i in range(count):
        language = draw(st.sampled_from(list(Language)))
        source = draw(st.sampled_from([Source.GSM8K, Source.HAWP, Source.INDIMATHQA]))
        problems.append(Problem(
            id=f"p{i:03d}",
            language=language,
            source=source,
            question=draw(_text),
            raw_solution=draw(st.one_of(st.none(), _text)),
            difficulty=draw(st.sampled_from(list(Difficulty))),
            topic=draw(st.one_of(st.none(), _text)),
            operation=draw(st.sampled_from(list(Operation))),
            extras=draw(st.dictionaries(st.sampled_from(["k1", "k2"]), _text, max_size=2)),
        ))
    return problems


@settings(max_examples=50, deadline=None)
@given(_problems())
def test_round_trip_property(tmp_path_factory, problems):
    manifest = make_manifest(problems)
    path = tmp_path_factory.mktemp("rt") / "m.jsonl"
    save_manifest(manifest, path)
    loaded = load_manifest(path)
    assert loaded == manifest
    assert loaded.checksum == manifest.checksum == _header_checksum(path)


@settings(max_examples=100, deadline=None)
@given(question=st.text(), solution=st.one_of(st.none(), st.text()),
       extras=st.dictionaries(st.text(), st.text(), max_size=3))
def test_round_trip_arbitrary_text(tmp_path_factory, question, solution, extras):
    # Raw U+2028/U+2029/U+0085 survive json.dumps(ensure_ascii=False);
    # loading must not split records on them.
    manifest = make_manifest([make_problem("p", question=question,
                                           raw_solution=solution, extras=extras)])
    path = tmp_path_factory.mktemp("rt") / "m.jsonl"
    save_manifest(manifest, path)
    loaded = load_manifest(path)
    assert loaded == manifest
    assert loaded.checksum == manifest.checksum == _header_checksum(path)


@settings(max_examples=50, deadline=None)
@given(_problems())
def test_save_hashes_the_lines_it_writes(tmp_path_factory, problems):
    manifest = make_manifest(problems)
    assert "checksum" not in manifest.__dict__  # not yet derived
    path = tmp_path_factory.mktemp("save") / "m.jsonl"
    save_manifest(manifest, path)
    assert _header_checksum(path) == records_checksum(problems)
    assert manifest.__dict__["checksum"] == _header_checksum(path)  # cached by the save
    assert manifest.checksum == _header_checksum(path)


def test_save_serialises_each_record_once(tmp_path, monkeypatch):
    manifest = make_manifest([make_problem(f"p{i}") for i in range(5)])
    calls = []
    original = Problem.to_dict
    monkeypatch.setattr(Problem, "to_dict",
                        lambda self: calls.append(self.id) or original(self))
    save_manifest(manifest, tmp_path / "m.jsonl")
    assert calls == [p.id for p in manifest]
    monkeypatch.undo()
    assert load_manifest(tmp_path / "m.jsonl") == manifest


_SECTIONS = dict.fromkeys(SECTION_FIELDS, "x")


class TestRecordDecoding:
    def _record(self, **changes) -> dict:
        record = make_problem("p", raw_solution="#### 1").to_dict()
        record.update(changes)
        return record

    @pytest.mark.parametrize("key,value,enum", [
        ("language", "French", "Language"),
        ("source", "Khan", "Source"),
        ("difficulty", "Trivial", "Difficulty"),
        ("operation", "Pow", "Operation"),
        ("operation", None, "Operation"),
        ("language", ["English"], "Language"),
    ])
    def test_unknown_enum_value_names_path_and_line(self, tmp_path, key, value, enum):
        path = tmp_path / "m.jsonl"
        good = json.dumps(self._record(), ensure_ascii=False)
        bad = json.dumps(self._record(id="q", **{key: value}), ensure_ascii=False)
        write_record_lines(path, [good, bad])
        message = f"{path}:3: unreadable record: {value!r} is not a valid {enum}"
        with pytest.raises(PipelineError, match=re.escape(message)):
            load_manifest(path)

    def test_absent_difficulty_and_operation_take_defaults(self, tmp_path):
        record = self._record()
        del record["difficulty"], record["operation"]
        path = tmp_path / "m.jsonl"
        write_record_lines(path, [json.dumps(record, ensure_ascii=False)])
        (problem,) = load_manifest(path)
        assert problem.difficulty is Difficulty.UNCLASSIFIED
        assert problem.operation is Operation.NONE
        assert problem == make_problem("p", raw_solution="#### 1")

    @pytest.mark.parametrize("structured", [
        "text",
        [1],
        {**_SECTIONS, "data_identification": 1},
        {**_SECTIONS, "final_answer": "7"},
        {**_SECTIONS, "final_answer": {"kind": "Rational", "rational": "1/0"}},
        *(pytest.param({**_SECTIONS, "final_answer": value}, id=f"final_answer-{value!r}")
          for value in ([], "", 0, False)),
    ])
    def test_wrong_typed_field_names_path_and_line(self, tmp_path, structured):
        path = tmp_path / "m.jsonl"
        bad = self._record(id="q", structured_solution=structured)
        write_record_lines(path, [json.dumps(self._record()), json.dumps(bad)])
        with pytest.raises(PipelineError,
                           match=re.escape(f"{path}:3: unreadable record: ")):
            load_manifest(path)

    @pytest.mark.parametrize("key,value,expected", [
        ("id", 7, "str, not int"),
        ("question", 5, "str, not int"),
        ("pair_id", None, "str, not NoneType"),
        ("raw_solution", 3, "str or null, not int"),
        ("topic", ["x"], "str or null, not list"),
        ("math_level", "3", "int or null, not str"),
        ("math_level", True, "int or null, not bool"),
        ("extras", [1], "dict, not list"),
        ("extras", None, "dict, not NoneType"),
        ("structured_solution", [], "dict or null, not list"),
        ("structured_solution", "", "dict or null, not str"),
        ("structured_solution", 0, "dict or null, not int"),
        ("structured_solution", False, "dict or null, not bool"),
    ])
    def test_wrong_typed_scalar_names_field_path_and_line(self, tmp_path, key, value,
                                                          expected):
        path = tmp_path / "m.jsonl"
        bad = self._record(**{"id": "q", key: value})
        write_record_lines(path, [json.dumps(self._record()), json.dumps(bad)])
        message = f"{path}:3: unreadable record: field {key!r} must be {expected}"
        with pytest.raises(PipelineError, match=re.escape(message)):
            load_manifest(path)

    @pytest.mark.parametrize("line", ["[]", "1", '"text"', "null"])
    def test_non_object_record_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "m.jsonl"
        write_record_lines(path, [json.dumps(self._record()), line])
        with pytest.raises(PipelineError,
                           match=re.escape(f"{path}:3: record is not an object")):
            load_manifest(path)


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
def test_round_trip_line_separators(tmp_path, char):
    manifest = make_manifest([make_problem("p", question=f"a{char}b",
                                           raw_solution=f"c{char}d",
                                           extras={"k": f"e{char}f"})])
    save_manifest(manifest, tmp_path / "m.jsonl")
    assert load_manifest(tmp_path / "m.jsonl") == manifest


def _small_curriculum():
    problems = [
        make_problem(f"{band.value[0]}{i}", difficulty=band, raw_solution="#### 1")
        for band in (Difficulty.EASY, Difficulty.MEDIUM) for i in range(6)
    ]
    manifest = make_manifest(problems)
    assignment = split(manifest, seed=1)
    return manifest, assignment, build_curriculum(manifest, assignment)


_WRITERS = ["manifest", "export", "split", "curriculum", "grades", "training_config",
            "lines"]


def _write_each(kind, path):
    manifest, assignment, built = _small_curriculum()
    if kind == "manifest":
        save_manifest(manifest, path)
    elif kind == "export":
        export_stage(built, STAGE_EASY, manifest, path)
    elif kind == "split":
        save_split(assignment, path)
    elif kind == "curriculum":
        save_curriculum(built, path)
    elif kind == "training_config":
        emit_training_config(path)
    elif kind == "lines":
        write_lines_atomic(path, iter(["a", "ब\u2028c", ""]))
    else:
        one = AnswerValue.from_rational(1)
        save_grades([GradeRecord("e0", "m", one, one, Verdict.CORRECT)], path)


class TestAtomicWrite:
    def test_unencodable_text_keeps_previous_file(self, tmp_path):
        path = tmp_path / "grades.jsonl"
        one = AnswerValue.from_rational(1)
        save_grades([GradeRecord("a", "m", one, one, Verdict.CORRECT)], path)
        before = path.read_bytes()
        # A lone surrogate passes json.dumps but cannot be encoded as UTF-8,
        # so the write itself raises once the file is open.
        with pytest.raises(UnicodeEncodeError):
            save_grades([GradeRecord("a", "m\ud800", one, one, Verdict.CORRECT)], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["grades.jsonl"]

    @pytest.mark.parametrize("kind,error", [("grades", UnicodeEncodeError),
                                            ("lines", RuntimeError)])
    def test_iterator_raising_on_its_third_line_keeps_previous_file(self, tmp_path, kind,
                                                                     error):
        path = tmp_path / "out.jsonl"
        path.write_text("previous\n", encoding="utf-8")
        one = AnswerValue.from_rational(1)

        def lines():
            yield from ("a", "b")
            raise RuntimeError("third line")

        with pytest.raises(error):
            if kind == "grades":  # the third model name cannot be encoded as UTF-8
                save_grades([GradeRecord(pid, name, one, one, Verdict.CORRECT)
                             for pid, name in [("a", "m"), ("b", "m"), ("c", "m\ud800")]], path)
            else:
                write_lines_atomic(path, lines())
        assert path.read_text(encoding="utf-8") == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    @pytest.mark.parametrize("kind", _WRITERS)
    def test_failed_rename_keeps_previous_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "out"
        path.write_text("previous\n", encoding="utf-8")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            _write_each(kind, path)
        assert path.read_text(encoding="utf-8") == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("kind", _WRITERS)
    def test_replaces_existing_file(self, tmp_path, kind):
        path, fresh = tmp_path / "out", tmp_path / "fresh"
        path.write_text("previous\n", encoding="utf-8")
        _write_each(kind, path)
        _write_each(kind, fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]


# Any text but lone surrogates, which UTF-8 cannot encode, with line separators
# and Devanagari drawn often.
_line_text = st.text(st.characters(blacklist_categories=("Cs",))
                     | st.sampled_from("\u2028\u2029\u0085\r\nकखग१२"), max_size=12)


@settings(max_examples=50, deadline=None)
@example(texts=[])
@given(texts=st.lists(_line_text, max_size=4))
def test_streamed_files_equal_the_joined_lines(tmp_path_factory, texts):
    # The bytes a whole-file "\n".join wrote before the writers streamed.
    out = tmp_path_factory.mktemp("stream")
    problems = [make_problem(f"p{i}", question=text, raw_solution=text, extras={"k": text})
                for i, text in enumerate(texts)]
    header = {"format": corpus.MANIFEST_FORMAT, "version": corpus.MANIFEST_VERSION,
              "source_format": "mixed", "created_at": "2024-01-01T00:00:00+00:00",
              "count": len(problems), "checksum": records_checksum(problems)}
    lines = [canonical_json(header), *(canonical_json(p.to_dict()) for p in problems)]
    save_manifest(make_manifest(problems), out / "m.jsonl")
    assert (out / "m.jsonl").read_bytes() == ("\n".join(lines) + "\n").encode()

    grades = [GradeRecord(p.id, text, None, AnswerValue.from_expression(f"x{text}"),
                          Verdict.UNPARSEABLE) for p, text in zip(problems, texts)]
    lines = [canonical_json(g.to_dict()) for g in grades]
    save_grades(grades, out / "g.jsonl")
    assert (out / "g.jsonl").read_bytes() == (
        ("\n".join(lines) + "\n").encode() if lines else b"")  # no grades: an empty file

    write_lines_atomic(out / "t.txt", iter(texts))
    assert (out / "t.txt").read_bytes() == "".join(f"{text}\n" for text in texts).encode()


def _large_manifest(count: int = 2000):
    """Half English, half Hindi problems with multi-line solutions."""
    problems = []
    for i in range(count):
        hindi = i % 2 == 1
        question = (f"राम के पास {i} सेब हैं। वह {i + 3} और खरीदता है। अब कितने सेब हैं?" if hindi
                    else f"Ram has {i} apples. He buys {i + 3} more. How many apples now?")
        step = f"{'चरण' if hindi else 'Step'} 1: {i} + {i + 3} = {2 * i + 3}\n"
        problems.append(make_problem(
            f"p{i:05d}", language=Language.HINDI if hindi else Language.ENGLISH,
            source=Source.HAWP if hindi else Source.GSM8K, question=question,
            raw_solution=step * 4 + f"#### {2 * i + 3}",
            difficulty=(Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD)[i % 3]))
    return make_manifest(problems)


def _traced(call):
    """(result, peak, retained): bytes the call allocated at its peak and kept."""
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, retained


class TestStreamingMemory:
    """No line-delimited artifact is copied whole in memory on its way to or
    from its file: a whole-file string, and its UTF-8 encoding, would cost
    several times the file size."""

    @pytest.fixture(scope="class")
    def manifest(self):
        return _large_manifest()

    def test_save_manifest_peak(self, manifest, tmp_path):
        # One record line at a time is held; the header's checksum is written
        # over a placeholder once the last line is hashed.
        _, peak, _ = _traced(lambda: save_manifest(manifest, tmp_path / "m.jsonl"))
        assert peak <= 2 * (tmp_path / "m.jsonl").stat().st_size

    def test_load_manifest_transient(self, manifest, tmp_path):
        save_manifest(manifest, tmp_path / "m.jsonl")
        loaded, peak, retained = _traced(lambda: load_manifest(tmp_path / "m.jsonl"))
        assert loaded == manifest
        assert peak - retained <= 0.5 * (tmp_path / "m.jsonl").stat().st_size

    def test_save_grades_peak(self, manifest, tmp_path):
        one = AnswerValue.from_rational(1)
        grades = [GradeRecord(p.id, "मॉडल", one, AnswerValue.from_rational(i),
                              Verdict.CORRECT if i == 1 else Verdict.INCORRECT)
                  for i, p in enumerate(manifest)]
        _, peak, _ = _traced(lambda: save_grades(grades, tmp_path / "g.jsonl"))
        assert peak <= 0.5 * (tmp_path / "g.jsonl").stat().st_size

    def test_export_stage_peak(self, manifest, tmp_path):
        # The stage's records by id and one encoded row at a time are held:
        # which records are exported, and so the header's count, is known
        # before any row is rendered. Every row built first held 1.6 times
        # the file; streamed, 0.22 times.
        stage = Stage(STAGE_EASY, tuple(p.id for p in manifest), "", STAGE_EASY)
        built = CurriculumManifest((stage,), TrainingMode.BILINGUAL_COMBINED, cumulative=True)
        outcome, peak, _ = _traced(
            lambda: export_stage(built, STAGE_EASY, manifest, tmp_path / "e.jsonl"))
        assert outcome.exported == len(manifest)
        assert peak <= 0.4 * (tmp_path / "e.jsonl").stat().st_size


class TestStagesKeepOnlyWhatTheyRead:
    """A stage that only reads a manifest streams it and keeps a small part of
    each record. Each stage runs as its command does, on files, so its peak
    counts every record it reads; loading the manifest whole peaked at 1.7 to
    2.1 times the file."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        manifest = _large_manifest()
        root = tmp_path_factory.mktemp("stages")
        save_manifest(manifest, root / "m.jsonl")
        half = len(manifest) // 2
        for name, records in (("a", manifest.records[:half]), ("b", manifest.records[half:])):
            save_manifest(make_manifest(records), root / f"{name}.jsonl")
        save_split(split(manifest, seed=0), root / "split.json")
        (root / "pred.tsv").write_text("".join(f"{p.id}\tFinal Answer: {i % 7}\n"
                                               for i, p in enumerate(manifest)),
                                       encoding="utf-8")
        _run_cli("evaluate", "grade", "--pred", root / "pred.tsv", "--manifest",
                 root / "m.jsonl", "--model", "m", "--out", root / "grades.jsonl")
        return root

    def _peak_share(self, files, *argv) -> float:
        """The command's peak allocation, as a share of the manifest file."""
        _, peak, _ = _traced(lambda: _run_cli(*argv))
        return peak / (files / "m.jsonl").stat().st_size

    # Each share as measured with 2000 records, then its bound.
    def test_merge_keeps_one_record_at_a_time(self, files, tmp_path):
        # 0.47: the ids, for each input's id checks and for those across inputs.
        assert self._peak_share(files, "curriculum", "merge", "--in", files / "a.jsonl",
                                files / "b.jsonl", "--out", tmp_path / "m.jsonl") < 0.6

    def test_split_keeps_ids_and_strata(self, files, tmp_path):
        # 0.65: the ids with their strata, groups and sides, and the id check's.
        assert self._peak_share(files, "curriculum", "split", "--in", files / "m.jsonl",
                                "--out", tmp_path / "s.json") < 0.8

    def test_build_keeps_ids(self, files, tmp_path):
        # 0.69: the ids, those of the admitted problems, and the split read back.
        assert self._peak_share(files, "curriculum", "build", "--in", files / "m.jsonl",
                                "--split", files / "split.json",
                                "--out", tmp_path / "c.json") < 0.8

    def test_grade_keeps_reference_answers(self, files, tmp_path):
        # 0.82: each problem's reference answer by id, the id check's ids, and
        # the prediction ids.
        assert self._peak_share(files, "evaluate", "grade", "--pred", files / "pred.tsv",
                                "--manifest", files / "m.jsonl", "--model", "m",
                                "--out", tmp_path / "g.jsonl") < 0.95

    def test_report_keeps_each_problems_cell(self, files, tmp_path):
        # 0.58: each problem's (language, source, difficulty) by id, and the id
        # check's ids.
        assert self._peak_share(files, "evaluate", "report", "--grades",
                                files / "grades.jsonl", "--manifest", files / "m.jsonl",
                                "--out", tmp_path / "r.txt") < 0.7


# Writers whose target name is fixed or that read inputs of their own.
_TEXT_WRITERS = ["write_or_print", "report", "demo_report", "mock_fixture"]


def _run_cli(*argv):
    # The handler itself, without main()'s error line, so its exception shows.
    args = build_parser().parse_args([str(a) for a in argv])
    return args.func(args)


def _text_writer(kind, in_dir, out_dir):
    """(files the writer replaces, a call that writes them), inputs made in ``in_dir``."""
    if kind == "write_or_print":
        bindings = in_dir / "bindings.json"
        bindings.write_text(json.dumps(dict.fromkeys(get_template("augment").placeholders, "1")),
                            encoding="utf-8")
        out = out_dir / "prompt.txt"
        return [out], lambda: _run_cli("structure", "prompt", "--template", "augment",
                                       "--bindings", bindings, "--out", out)
    if kind == "report":
        manifest = _small_curriculum()[0]
        save_manifest(manifest, in_dir / "m.jsonl")
        one = AnswerValue.from_rational(1)
        save_grades([GradeRecord(manifest.records[0].id, "m", one, one, Verdict.CORRECT)],
                    in_dir / "grades.jsonl")
        out = out_dir / "report.txt"
        return [out, out_dir / "report.csv"], lambda: _run_cli(
            "evaluate", "report", "--grades", in_dir / "grades.jsonl",
            "--manifest", in_dir / "m.jsonl", "--out", out)
    if kind == "demo_report":
        return [out_dir / "report.txt", out_dir / "report.csv"], lambda: _run_cli(
            "run", "--out", out_dir)
    return [out_dir / f"{prompt_digest('p')}.txt"], lambda: write_mock_fixture(
        out_dir, "p", "reply")


class TestAtomicTextWriters:
    @pytest.mark.parametrize("kind", _TEXT_WRITERS)
    def test_failed_rename_keeps_previous_file(self, tmp_path, monkeypatch, kind):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        out_dir.mkdir()
        targets, write = _text_writer(kind, in_dir, out_dir)
        for target in targets:
            target.write_text("previous\n", encoding="utf-8")
        real_replace = os.replace

        def refuse(src, dst):
            # Only the files under test; the demo's other artifacts still land.
            if Path(dst) in targets:
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse)
        # `run` raises a stage's failure with the stage's plan line in front.
        failure = PipelineError if kind == "demo_report" else OSError
        with pytest.raises(failure, match="rename refused"):
            write()
        assert [t.read_text(encoding="utf-8") for t in targets] == ["previous\n"] * len(targets)
        assert not [p.name for p in out_dir.iterdir() if p.name.endswith(".tmp")]

        monkeypatch.undo()
        write()
        assert all(t.read_text(encoding="utf-8") != "previous\n" for t in targets)
