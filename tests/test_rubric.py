import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bayeseval.bayes import evaluate_performance
from bayeseval.errors import (
    EmptyInputError,
    IncompleteGridError,
    InputError,
    NoCorrectItemsError,
    NoWrongItemsError,
    ParseError,
    RangeViolationError,
    UncoveredCaseError,
)
from bayeseval.io import load_signals_jsonl
from bayeseval.model import UNIFORM, WeightVector
from bayeseval import rubric
from bayeseval.rubric import (
    SCHEMATA,
    SIGNAL_FIELDS,
    Schema,
    SignalTable,
    ThresholdSet,
    build_matrix,
    categorize,
    compute_thresholds,
    derive_variables,
    schema_by_name,
    schema_names,
)


def sig(**kw):
    """One attempt's signals, as a signal name -> value mapping."""
    base = dict(
        has_box=1.0,
        is_correct=1.0,
        token_ratio=0.1,
        repeated_pattern=0,
        prompt_bpt=1.0,
        completion_bpt=2.0,
        verifier_correct=0.9,
        verifier_wrong=0.05,
        verifier_offtask=0.05,
    )
    base.update(kw)
    return base


def table_of(*points):
    """The signal mappings ``points`` as one table, a row per point."""
    return SignalTable.from_records({("", i): s for i, s in enumerate(points, start=1)})


def one(**kw):
    """A one-row table of ``sig(**kw)``."""
    return table_of(sig(**kw))


THRESH = ThresholdSet(
    tau_high=2.0,
    tau_low_wrong=3.0,
    tau_prompt=5.0,
    len_p33=0.2,
    len_p66=0.5,
    corr_p33=1.5,
    corr_p66=2.5,
)

# tau_low_wrong below tau_high is possible (they come from different
# populations) and exercises the totality of the wrong-confidence split
THRESH_FLIPPED = ThresholdSet(
    tau_high=3.0,
    tau_low_wrong=2.0,
    tau_prompt=5.0,
    len_p33=0.2,
    len_p66=0.5,
    corr_p33=1.5,
    corr_p66=2.5,
)


class TestThresholds:
    def test_constant_distribution(self):
        sigs = [sig(completion_bpt=3.0, is_correct=float(i % 2)) for i in range(6)]
        t = compute_thresholds(table_of(*sigs))
        assert t.tau_high == 3.0
        assert t.tau_low_wrong == 3.0

    def test_linear_interpolation_definition(self):
        sigs = [
            sig(completion_bpt=float(v), is_correct=float(v % 2)) for v in (1, 2, 3, 4, 5)
        ]
        assert compute_thresholds(table_of(*sigs)).tau_high == pytest.approx(2.6, abs=1e-12)

    def test_conditional_percentile_errors(self):
        with pytest.raises(NoWrongItemsError):
            compute_thresholds(table_of(*[sig(is_correct=1.0)] * 3))
        with pytest.raises(NoCorrectItemsError):
            compute_thresholds(table_of(*[sig(is_correct=0.0)] * 3))
        with pytest.raises(EmptyInputError):
            compute_thresholds(table_of())

    @pytest.mark.parametrize("q", [33, 40, 60, 66, 90])
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1 / 3, 2.6, 1e-300, 7e12])
                    | st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_percentile_equals_numpy_linear_bit_for_bit(self, q, values):
        # a few repeated values make ties; signed zeros show which side lerps
        a = np.array(values)
        want = np.percentile(a, q, method="linear")
        assert np.float64(rubric._percentile(a.copy(), q)).tobytes() == want.tobytes()

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        sigs = [
            sig(
                completion_bpt=float(rng.uniform(0, 5)),
                prompt_bpt=float(rng.uniform(0, 8)),
                token_ratio=float(rng.uniform(0, 1)),
                is_correct=float(rng.integers(0, 2)),
            )
            for _ in range(40)
        ]
        shuffled = list(sigs)
        rng.shuffle(shuffled)
        assert compute_thresholds(table_of(*sigs)) == compute_thresholds(table_of(*shuffled))


class TestDeriveVariables:
    def test_repeated_pattern_forces_invalid(self):
        v = derive_variables(one(repeated_pattern=1), THRESH)
        assert v.invalid.tolist() == [True]

    def test_offtask_boundary_inclusive(self):
        v = derive_variables(one(verifier_offtask=0.50, verifier_correct=0.5), THRESH)
        assert v.invalid.tolist() == [True]
        v = derive_variables(one(verifier_offtask=0.49), THRESH)
        assert v.invalid.tolist() == [False]

    def test_token_ratio_boundary_is_economical(self):
        v = derive_variables(one(token_ratio=THRESH.len_p33), THRESH)
        assert (v.economical.tolist(), v.moderate.tolist()) == ([True], [False])

    def test_correct_threshold_at_half(self):
        assert derive_variables(one(is_correct=0.5), THRESH).correct.tolist() == [True]
        assert derive_variables(one(is_correct=0.49), THRESH).wrong.tolist() == [True]

    def test_confidence_boundaries(self):
        v = derive_variables(one(completion_bpt=THRESH.tau_high), THRESH)
        assert (v.high_conf.tolist(), v.low_conf.tolist()) == ([True], [False])
        v = derive_variables(
            one(is_correct=0.0, completion_bpt=THRESH.tau_low_wrong), THRESH
        )
        assert v.wrong_high_conf.tolist() == [True]

    def test_verifier_argmax_tie_prefers_offtask(self):
        v = derive_variables(
            one(verifier_correct=0.4, verifier_wrong=0.4, verifier_offtask=0.4,
                repeated_pattern=0),
            THRESH,
        )
        assert [v.top_offtask[0], v.top_wrong[0], v.top_correct[0]] == [True, False, False]

    def test_one_boolean_array_per_variable(self):
        v = derive_variables(table_of(*signal_lattice()), THRESH)
        for name, mask in vars(v).items():
            assert mask.dtype == bool and mask.shape == (len(signal_lattice()),), name


def signal_lattice():
    """Signal points hitting every distinguishable threshold region."""
    points = []
    for is_correct, has_box, repeated, bpt, ratio, prompt, verif in itertools.product(
        (0.0, 1.0),
        (0.0, 1.0),
        (0, 1),
        (0.5, 1.7, 2.2, 2.7, 3.5),          # straddles corr/tau cutoffs both ways
        (0.1, 0.35, 0.8),                   # economical / moderate / verbose
        (1.0, 6.0),                         # in-distribution / OOD
        (
            (0.9, 0.05, 0.05),              # confident correct
            (0.55, 0.4, 0.05),              # A top but below a_high? (0.55 < 0.6)
            (0.1, 0.8, 0.1),                # wrong-dominant
            (0.2, 0.2, 0.6),                # off-task dominant -> invalid
            (0.3, 0.3, 0.3),                # three-way tie
            (0.6, 0.3, 0.1),                # a_high boundary
        ),
    ):
        a, b, c = verif
        points.append(
            sig(
                is_correct=is_correct,
                has_box=has_box,
                repeated_pattern=repeated,
                completion_bpt=bpt,
                token_ratio=ratio,
                prompt_bpt=prompt,
                verifier_correct=a,
                verifier_wrong=b,
                verifier_offtask=c,
            )
        )
    return points


class TestSchemataTotality:
    @pytest.mark.parametrize("thresholds", [THRESH, THRESH_FLIPPED])
    def test_every_point_gets_exactly_one_category(self, thresholds):
        # categorize raises UncoveredCaseError on a point that no rule or
        # more than one rule covers
        table = table_of(*signal_lattice())
        for schema in SCHEMATA:
            cats = categorize(table, schema, thresholds)
            assert cats.dtype == np.int64 and cats.shape == (len(table),)
            assert ((0 <= cats) & (cats <= schema.num_categories - 1)).all()

    def test_invalid_dominates_all_schemata(self):
        bad = sig(repeated_pattern=1, is_correct=1.0)
        off = sig(verifier_offtask=0.9, verifier_correct=0.05, verifier_wrong=0.05)
        for schema in SCHEMATA:
            assert categorize(table_of(bad, off), schema, THRESH).tolist() == [0, 0]

    def test_twelve_schemata_ship(self):
        assert len(SCHEMATA) == 12
        assert len(set(schema_names())) == 12


class TestCategorize:
    def test_format_aware_cells(self):
        schema = schema_by_name("format-aware")
        assert categorize(one(is_correct=1.0, has_box=1.0), schema, THRESH).tolist() == [4]
        assert categorize(one(is_correct=1.0, has_box=0.0), schema, THRESH).tolist() == [3]
        assert categorize(one(is_correct=0.0, has_box=1.0), schema, THRESH).tolist() == [2]
        assert categorize(one(is_correct=0.0, has_box=0.0), schema, THRESH).tolist() == [1]

    def test_format_aware_default_weights(self):
        assert tuple(schema_by_name("format-aware").default_weights) == (0, 0, 1, 2, 3)

    def test_conf_calibrated_mid_band(self):
        schema = schema_by_name("conf-calibrated")
        mid = one(is_correct=1.0, completion_bpt=2.0)     # corr_p33 < 2.0 <= corr_p66
        top = one(is_correct=1.0, completion_bpt=1.0)
        low = one(is_correct=1.0, completion_bpt=3.0)
        assert categorize(mid, schema, THRESH).tolist() == [4]
        assert categorize(top, schema, THRESH).tolist() == [5]
        assert categorize(low, schema, THRESH).tolist() == [3]

    def test_conf_wrong_penalty(self):
        schema = schema_by_name("conf-wrong-penalty")
        confident_wrong = one(is_correct=0.0, completion_bpt=2.5)  # <= tau_low_wrong
        hesitant_wrong = one(is_correct=0.0, completion_bpt=3.5)
        assert categorize(confident_wrong, schema, THRESH).tolist() == [1]
        assert categorize(hesitant_wrong, schema, THRESH).tolist() == [2]
        assert categorize(one(is_correct=1.0), schema, THRESH).tolist() == [3]

    def test_verifier_only_paths(self):
        schema = schema_by_name("verifier-only")
        assert categorize(one(verifier_correct=0.9, verifier_wrong=0.05,
                              verifier_offtask=0.05), schema, THRESH).tolist() == [3]
        assert categorize(one(verifier_correct=0.55, verifier_wrong=0.05,
                              verifier_offtask=0.4), schema, THRESH).tolist() == [3]
        assert categorize(one(verifier_correct=0.2, verifier_wrong=0.7,
                              verifier_offtask=0.1), schema, THRESH).tolist() == [2]
        assert categorize(one(verifier_correct=0.3, verifier_wrong=0.25,
                              verifier_offtask=0.45), schema, THRESH).tolist() == [1]

    def test_strict_compliance_disjunction(self):
        schema = schema_by_name("strict-compliance")
        assert categorize(one(is_correct=1.0, has_box=0.0), schema, THRESH).tolist() == [1]
        assert categorize(one(is_correct=0.0, has_box=1.0), schema, THRESH).tolist() == [1]
        assert categorize(one(is_correct=1.0, has_box=1.0), schema, THRESH).tolist() == [2]

    def test_concise_high_conf_specificity(self):
        schema = schema_by_name("concise-high-conf")
        short_confident = one(is_correct=1.0, token_ratio=0.1, completion_bpt=1.0)
        short_hesitant = one(is_correct=1.0, token_ratio=0.1, completion_bpt=3.0)
        assert categorize(short_confident, schema, THRESH).tolist() == [5]
        assert categorize(short_hesitant, schema, THRESH).tolist() == [4]

    def test_uncovered_case_reported(self):
        broken = Schema("broken", 3, ((1, ("wrong",)),))
        with pytest.raises(UncoveredCaseError):
            categorize(one(is_correct=1.0), broken, THRESH)
        overlapping = Schema("overlap", 3, ((1, ("correct",)), (2, ("boxed",))))
        with pytest.raises(UncoveredCaseError):
            categorize(one(is_correct=1.0, has_box=1.0), overlapping, THRESH)

    def test_unknown_schema_lists_names(self):
        with pytest.raises(InputError) as err:
            schema_by_name("nope")
        for name in schema_names():
            assert name in str(err.value)


def clean_grid(pattern, questions=3):
    """Binary-clean signal grid: no invalids, fixed bpt spread so the
    conditional percentiles exist."""
    records = {}
    for qi in range(questions):
        for ti, correct in enumerate(pattern[qi]):
            records[(f"q{qi}", ti + 1)] = sig(
                is_correct=float(correct),
                completion_bpt=1.0 + 0.5 * ti + 0.1 * qi,
                verifier_correct=0.9,
                verifier_offtask=0.0,
                verifier_wrong=0.1,
            )
    return records


class TestBuildMatrix:
    def test_exact_match_reproduces_binary_pattern(self):
        pattern = [[1, 0, 1], [0, 0, 1], [1, 1, 1]]
        mx = build_matrix(SignalTable.from_records(clean_grid(pattern)),
                          schema_by_name("exact-match"))
        assert mx.num_categories == 3
        assert mx.cells.tolist() == [[c + 1 for c in row] for row in pattern]
        assert mx.question_ids == ("q0", "q1", "q2")

    def test_incomplete_grid(self):
        records = clean_grid([[1, 0], [0, 1]], questions=2)
        del records[("q1", 2)]
        with pytest.raises(IncompleteGridError):
            build_matrix(SignalTable.from_records(records), schema_by_name("exact-match"))

    def test_wrong_to_correct_flip_never_decreases_mu(self):
        weights = WeightVector((0.0, 1.0, 2.0))
        schema = schema_by_name("exact-match")
        rng = np.random.default_rng(12)
        for _ in range(20):
            pattern = rng.integers(0, 2, size=(3, 4)).tolist()
            records = SignalTable.from_records(clean_grid(pattern))
            base = evaluate_performance(build_matrix(records, schema), UNIFORM, weights)
            flip_q = int(rng.integers(0, 3))
            flip_t = int(rng.integers(0, 4))
            if pattern[flip_q][flip_t] == 1:
                continue
            pattern[flip_q][flip_t] = 1
            flipped = evaluate_performance(
                build_matrix(SignalTable.from_records(clean_grid(pattern)), schema),
                UNIFORM, weights
            )
            assert flipped.mu >= base.mu - 1e-12

    def test_explicit_thresholds_respected(self):
        records = SignalTable.from_records(clean_grid([[1, 0], [0, 1]], questions=2))
        mx1 = build_matrix(records, schema_by_name("exact-match"), THRESH)
        mx2 = build_matrix(records, schema_by_name("exact-match"))
        assert mx1.cells.tolist() == mx2.cells.tolist()


class TestFromRecords:
    def test_rows_in_mapping_order_with_questions_by_first_appearance(self):
        table = SignalTable.from_records({
            ("b", 2): sig(has_box=0.0), ("a", 1): sig(has_box=1.0), ("b", 1): sig(has_box=0.5),
        })
        assert table.question_ids == ("b", "a")
        assert table.question.tolist() == [0, 1, 0]
        assert table.trial.tolist() == [2, 1, 1]
        assert table.has_box.tolist() == [0.0, 1.0, 0.5]
        assert table.lines.tolist() == [1, 2, 3]
        assert table.source == ""

    def test_verifier_signals_default_to_zero(self):
        bare = {k: v for k, v in sig().items() if not k.startswith("verifier_")}
        table = table_of(bare, sig(verifier_wrong=0.25))
        assert table.verifier_correct.tolist() == [0.0, 0.9]
        assert table.verifier_wrong.tolist() == [0.0, 0.25]
        assert table.verifier_offtask.tolist() == [0.0, 0.05]
        for name in ("verifier_correct", "verifier_wrong", "verifier_offtask"):
            assert getattr(table, name).dtype == np.float64

    def test_missing_signal_named(self):
        bare = {k: v for k, v in sig().items() if k != "token_ratio"}
        with pytest.raises(InputError, match=r"record \('', 2\): missing signal 'token_ratio'"):
            table_of(sig(), bare)

    def test_unknown_signal_named(self):
        with pytest.raises(InputError, match=r"record \('', 1\): unknown signal 'sparkly'"):
            table_of(sig(sparkly=1.0))

    def test_missing_named_before_unknown(self):
        bare = {k: v for k, v in sig(sparkly=1.0).items() if k != "has_box"}
        with pytest.raises(InputError, match="missing signal 'has_box'"):
            table_of(bare)

    def test_range_violation_at_its_row(self):
        with pytest.raises(RangeViolationError) as err:
            table_of(sig(), sig(), sig(is_correct=1.5))
        assert err.value.line == 3
        assert str(err.value) == "is_correct=1.5 outside [0, 1] (line 3)"

    @pytest.mark.parametrize("value", ["0.5", "yes", None, [1]])
    def test_non_number_value_is_a_parse_error_at_its_row(self, value):
        with pytest.raises(ParseError) as err:
            table_of(sig(), sig(token_ratio=value), sig(is_correct=1.5))
        assert type(err.value) is ParseError and err.value.line == 2
        assert str(err.value) == f"token_ratio must be a number, got {value!r} (line 2)"

    def test_range_violation_above_a_non_number_comes_first(self):
        with pytest.raises(RangeViolationError) as err:
            table_of(sig(), sig(prompt_bpt=-1.0), sig(has_box="yes"))
        assert err.value.line == 2

    def test_numpy_numbers_read_as_numbers(self):
        table = table_of(sig(has_box=np.float64(0.5), repeated_pattern=np.int64(1)))
        assert table.has_box.tolist() == [0.5] and table.repeated_pattern.tolist() == [1.0]

    @pytest.mark.parametrize("trial", ["x", 1.5, 2**70, True, None])
    def test_non_int64_trial_named(self, trial):
        with pytest.raises(InputError) as err:
            SignalTable.from_records({("q1", 1): sig(), ("q2", trial): sig()})
        assert type(err.value) is InputError
        assert str(err.value) == (
            f"record ('q2', {trial!r}): trial must be an int64 integer, got {trial!r}"
        )


GOOD_VALUES = {
    "probability": [0, 1, 1.0, 0.25, 0.5, True, False],
    "non-negative": [0, 0.5, 2, 3.75],
    "binary": [0, 1, 1.0, False],
}
BAD_VALUES = ["0.5", "yes", None, [1], {}, 1.2, -0.1, -1, 2, 0.7, float("nan"), float("inf"),
              10**400]


@st.composite
def signal_records(draw):
    """(question, trial) -> {signal column: value} records, some values bad and
    some optional signals left out."""
    keys = st.tuples(st.sampled_from(["q1", "q2", "7"]), st.integers(-2, 4))
    records = {}
    for key in draw(st.lists(keys, max_size=8, unique=True)):
        records[key] = {}
        for f in SIGNAL_FIELDS:
            if f.optional and draw(st.integers(0, 3)) == 0:
                continue
            bad = draw(st.integers(0, 19)) == 0
            records[key][f.column] = draw(st.sampled_from(BAD_VALUES if bad else GOOD_VALUES[f.rule]))
    return records


class TestFromRecordsMatchesLoader:
    """In memory and through a JSONL file, records take one checked row path."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(signal_records())
    def test_same_table_or_same_error_at_the_same_row(self, tmp_path, records):
        key_of = {f.column: f.key for f in SIGNAL_FIELDS}
        path = tmp_path / "s.jsonl"
        path.write_text("".join(
            json.dumps({"question_id": q, "trial": t, **{key_of[c]: v for c, v in rec.items()}})
            + "\n" for (q, t), rec in records.items()
        ))
        outcomes = []
        for build in (lambda: SignalTable.from_records(records),
                      lambda: load_signals_jsonl(path).table):
            try:
                table = build()
            except InputError as exc:
                outcomes.append((type(exc), exc.line))
                continue
            columns = [getattr(table, f.column).tolist() for f in SIGNAL_FIELDS]
            outcomes.append((table.question_ids, table.trial.tolist(), columns))
        assert outcomes[0] == outcomes[1]


class TestSchemaConfig:
    def test_from_config_round_trip(self):
        schema = Schema.from_config(
            {
                "name": "box-only",
                "num_categories": 3,
                "rules": {1: "unboxed", 2: ["boxed"]},
                "weights": [0, 0, 1],
            }
        )
        assert categorize(one(has_box=1.0), schema, THRESH).tolist() == [2]
        assert categorize(one(has_box=0.0), schema, THRESH).tolist() == [1]
        assert tuple(schema.default_weights) == (0.0, 0.0, 1.0)

    def test_conjunction_with_negation(self):
        schema = Schema.from_config(
            {
                "name": "calm-correct",
                "num_categories": 3,
                "rules": {1: ["wrong", "correct & ~high_conf"], 2: "correct & high_conf"},
            }
        )
        assert categorize(one(completion_bpt=1.0), schema, THRESH).tolist() == [2]
        assert categorize(one(completion_bpt=4.0), schema, THRESH).tolist() == [1]

    def test_unknown_variable_rejected(self):
        with pytest.raises(InputError):
            Schema("bad", 2, ((1, ("sparkly",)),))

    def test_double_negation_rejected(self):
        with pytest.raises(InputError, match="unknown variable '~~wrong'"):
            Schema("bad", 3, ((1, ("~~wrong",)), (2, ("correct",))))

    @pytest.mark.parametrize("config, message", [
        ([1, 2], "must be a JSON object"),
        ({"name": "x", "rules": {}}, "lacks 'num_categories'"),
        ({"name": "x", "num_categories": 3, "rules": ["wrong"]}, "must map categories"),
        ({"name": "x", "num_categories": 3, "rules": {"one": "wrong"}},
         "rule category must be an integer, got 'one'"),
        ({"name": "x", "num_categories": 3, "rules": {"1": 7}}, "rule '1' must be"),
        ({"name": "x", "num_categories": "three", "rules": {}}, "num_categories must be"),
        ({"name": "x", "num_categories": 3, "rules": {}, "weights": [0, "a", 1]},
         "weights must be a list of numbers"),
    ])
    def test_malformed_config_is_input_error(self, config, message):
        with pytest.raises(InputError, match=message):
            Schema.from_config(config)
