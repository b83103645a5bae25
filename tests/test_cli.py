import json
import math

import numpy as np
import pytest

from bayeseval import bootstrap
from bayeseval.cli import main
from bayeseval.io import save_results_csv
from bayeseval.model import validate_matrix
from bayeseval.simulate import REFERENCE_MEANS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, rows, num_categories=2):
    save_results_csv(validate_matrix(rows, num_categories), path)
    return str(path)


@pytest.fixture
def binary_csv(tmp_path):
    return write_csv(tmp_path / "r.csv", [[1, 0], [1, 1]])


class TestEval:
    def test_bayes_report(self, capsys, binary_csv):
        code, out, _ = run(capsys, "eval", "--results", binary_csv, "--weights", "0,1")
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "bayes"
        # two questions: Beta(2,2) and Beta(3,1) posteriors
        assert data["score"] == pytest.approx(0.625, abs=1e-12)
        assert data["ci_half_widths"]["1.645"] == pytest.approx(1.645 * data["sigma"])
        assert (data["M"], data["N"], data["C"], data["D"]) == (2, 2, 1, 0)

    def test_single_json_document_on_stdout(self, capsys, binary_csv):
        _, out, _ = run(capsys, "eval", "--results", binary_csv)
        assert json.loads(out) is not None

    def test_pass_method(self, capsys, binary_csv):
        code, out, _ = run(capsys, "eval", "--results", binary_csv, "--method", "pass@2")
        assert code == 0
        assert json.loads(out)["score"] == pytest.approx((1.0 + 1.0) / 2)

    def test_method_undefined_exit_code(self, capsys, binary_csv):
        code, _, err = run(capsys, "eval", "--results", binary_csv, "--method", "pass@5")
        assert code == 3
        assert json.loads(err)["error"] == "KExceedsNError" or "pass@5" in err

    def test_weight_mismatch_exit_code(self, capsys, binary_csv):
        code, _, err = run(
            capsys, "eval", "--results", binary_csv, "--weights", "0,1,2"
        )
        assert code == 2
        assert "error" in json.loads(err)

    def test_bad_method_spec(self, capsys, binary_csv):
        code, _, err = run(capsys, "eval", "--results", binary_csv, "--method", "zap@3")
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--results", str(tmp_path / "nope.csv"))
        assert code == 2

    def test_prior_file(self, capsys, tmp_path, binary_csv):
        prior = write_csv(tmp_path / "p.csv", [[1, 1], [0, 0]])
        code, out, _ = run(
            capsys, "eval", "--results", binary_csv, "--weights", "0,1", "--prior", prior
        )
        assert code == 0
        assert json.loads(out)["D"] == 2

    def test_non_integer_prior_cell_exits_2_with_location(self, capsys, tmp_path, binary_csv):
        prior = tmp_path / "p.csv"
        prior.write_text("question_id,t1,t2\nq1,1,1\nq2,0,half\n")
        code, out, err = run(capsys, "eval", "--results", binary_csv, "--prior", str(prior))
        assert code == 2 and out == ""
        data = json.loads(err)
        assert data["error"] == "ParseError"
        assert "'half'" in data["message"] and "(line 3, column 3)" in data["message"]

    def test_fractional_label_index_exits_2(self, capsys, tmp_path):
        results = tmp_path / "r.csv"
        results.write_text("question_id,t1,t2\nq1,ok,bad\n")
        labels = tmp_path / "labels.json"
        labels.write_text('{"ok": 1, "bad": 0.5}')
        code, out, err = run(capsys, "eval", "--results", str(results), "--labels", str(labels))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ParseError"
        assert "'bad'" in json.loads(err)["message"]

    def test_gpass_fraction_tau(self, capsys, binary_csv):
        code, out, _ = run(
            capsys, "eval", "--results", binary_csv, "--method", "gpass@2:1/2"
        )
        assert code == 0
        assert 0 <= json.loads(out)["score"] <= 1


@pytest.fixture
def model_dir(tmp_path):
    d = tmp_path / "models"
    d.mkdir()
    write_csv(d / "alpha.csv", [[1, 1, 1], [1, 1, 0]])
    write_csv(d / "beta.csv", [[1, 0, 0], [0, 1, 0]])
    write_csv(d / "gamma.csv", [[0, 0, 0], [0, 0, 1]])
    return str(d)


class TestRank:
    def test_both_tables_by_default(self, capsys, model_dir):
        code, out, _ = run(capsys, "rank", "--results-dir", model_dir)
        assert code == 0
        data = json.loads(out)
        assert data["models"] == ["alpha", "beta", "gamma"]
        without = [e["model"] for e in data["without_ci"]["entries"]]
        assert without == ["alpha", "beta", "gamma"]
        assert "with_ci" in data and data["z_threshold"] == 1.645

    def test_ci_off(self, capsys, model_dir):
        code, out, _ = run(capsys, "rank", "--results-dir", model_dir, "--ci", "off")
        data = json.loads(out)
        assert "with_ci" not in data

    def test_identical_files_share_rank(self, capsys, tmp_path):
        d = tmp_path / "dup"
        d.mkdir()
        write_csv(d / "a.csv", [[1, 0], [0, 1]])
        write_csv(d / "b.csv", [[1, 0], [0, 1]])
        code, out, _ = run(capsys, "rank", "--results-dir", str(d), "--ci", "off")
        data = json.loads(out)
        ranks = {e["model"]: e["rank"] for e in data["without_ci"]["entries"]}
        assert ranks == {"a": 1, "b": 1}

    def test_avg_ties_where_bayes_ties(self, capsys, tmp_path):
        # avg carries bayes' sigma scaled by (1 + C + N) / N, so the CI rule
        # ties the same pair under both methods
        d = tmp_path / "pair"
        d.mkdir()
        for name, solved in (("a", 11), ("b", 10)):
            cells = np.zeros((20, 8), dtype=int)
            cells[:solved] = 1
            write_csv(d / f"{name}.csv", cells)
        tables = {}
        for method in ("bayes", "avg"):
            code, out, _ = run(capsys, "rank", "--results-dir", str(d), "--method", method)
            assert code == 0
            data = json.loads(out)
            assert [e["rank"] for e in data["without_ci"]["entries"]] == [1, 2]
            assert all(e["sigma"] > 0 for e in data["with_ci"]["entries"])
            tables[method] = {e["model"]: e["rank"] for e in data["with_ci"]["entries"]}
        assert tables["bayes"] == {"a": 1, "b": 1}
        assert tables["avg"] == tables["bayes"]

    def test_files_share_the_largest_inferred_category_count(self, capsys, tmp_path):
        d = tmp_path / "mixed"
        d.mkdir()
        write_csv(d / "a.csv", [[1, 0], [0, 1]])
        write_csv(d / "b.csv", [[2, 0], [0, 1]], num_categories=3)
        code, out, _ = run(capsys, "rank", "--results-dir", str(d), "--ci", "off")
        assert code == 0
        entries = json.loads(out)["without_ci"]["entries"]
        assert [e["model"] for e in entries] == ["b", "a"]
        # a scored over C = 2: each row has nu = (2, 2, 1) and T = 5, so
        # mu = (4 + 4) / (2 * 5); scored as binary it would be 0.5
        assert entries[1]["mu"] == pytest.approx(0.8, abs=1e-12)

    def test_cell_above_pinned_categories_rejected(self, capsys, tmp_path):
        d = tmp_path / "pinned"
        d.mkdir()
        write_csv(d / "a.csv", [[1, 0]])
        write_csv(d / "b.csv", [[2, 0]], num_categories=3)
        code, out, err = run(capsys, "rank", "--results-dir", str(d), "--categories", "2")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "CategoryOutOfRangeError"

    def test_nan_threshold_rejected(self, capsys, model_dir):
        code, out, _ = run(capsys, "rank", "--results-dir", model_dir, "--ci", "nan")
        assert code == 2 and out == ""

    def test_shape_mismatch_rejected(self, capsys, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        write_csv(d / "a.csv", [[1, 0]])
        write_csv(d / "b.csv", [[1, 0, 1]])
        code, _, err = run(capsys, "converge", "--results-dir", str(d))
        assert code == 2


class TestConverge:
    def test_question_order_mismatch_rejected(self, capsys, tmp_path):
        d = tmp_path / "order"
        d.mkdir()
        (d / "a.csv").write_text("question_id,t1,t2\nq1,1,0\nq2,0,0\n")
        (d / "b.csv").write_text("question_id,t1,t2\nq2,1,1\nq1,0,1\n")
        code, out, err = run(
            capsys, "converge", "--results-dir", str(d), "--replicates", "4",
            "--methods", "bayes",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InputError"

    def test_deterministic_json(self, capsys, model_dir):
        args = (
            "converge", "--results-dir", model_dir, "--methods", "bayes,pass@2",
            "--replicates", "50", "--seed", "9", "--scheme", "row",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert set(data["methods"]) == {"bayes", "pass@2"}
        conv = data["methods"]["bayes"]["convergence"]
        pmf_total = sum(p["pmf"] for p in conv["pmf"]) + conv["censored_mass"]
        assert pmf_total == pytest.approx(1.0, abs=1e-9)

    def test_threads_do_not_change_output(self, capsys, model_dir):
        base = (
            "converge", "--results-dir", model_dir, "--methods", "bayes",
            "--replicates", "64", "--seed", "3",
        )
        _, out1, _ = run(capsys, *base, "--threads", "1")
        _, out2, _ = run(capsys, *base, "--threads", "4")
        assert out1 == out2

    def test_tsv_single_method(self, capsys, model_dir):
        code, out, _ = run(
            capsys, "converge", "--results-dir", model_dir, "--methods", "bayes",
            "--replicates", "20", "--format", "tsv",
        )
        assert code == 0
        assert out.splitlines()[0] == "N\tvalue\tstderr"

    def test_tsv_requires_one_method(self, capsys, model_dir):
        code, _, _ = run(
            capsys, "converge", "--results-dir", model_dir,
            "--methods", "bayes,pass@2", "--replicates", "10", "--format", "tsv",
        )
        assert code == 2

    def test_tsv_options_checked_before_any_draw(self, capsys, model_dir, monkeypatch):
        monkeypatch.setattr(bootstrap, "stream_rng", lambda *a: pytest.fail("drew a replicate"))
        code, _, err = run(
            capsys, "converge", "--results-dir", model_dir,
            "--methods", "bayes,pass@2", "--format", "tsv",
        )
        assert code == 2
        assert json.loads(err)["error"] == "InputError"

    @staticmethod
    def count_resamples(monkeypatch) -> list:
        calls = []
        real = bootstrap.resample
        monkeypatch.setattr(bootstrap, "resample",
                            lambda *a, **k: calls.append(a[2]) or real(*a, **k))
        return calls

    def test_one_draw_per_replicate_and_model(self, capsys, model_dir, monkeypatch):
        calls = self.count_resamples(monkeypatch)
        code, out, _ = run(
            capsys, "converge", "--results-dir", model_dir, "--methods", "bayes,pass@2",
            "--replicates", "7",
        )
        assert code == 0
        assert sorted(calls) == sorted(list(range(7)) * 3)   # 3 models
        assert json.loads(out)["replicates_tau"] == json.loads(out)["replicates_convergence"] == 7

    @pytest.mark.parametrize("artifact, skipped", [
        ("tau", "convergence_distributions"), ("convergence", "tau_curves"),
    ])
    def test_tsv_computes_only_its_artifact(self, capsys, model_dir, monkeypatch,
                                            artifact, skipped):
        calls = self.count_resamples(monkeypatch)
        monkeypatch.setattr(bootstrap, skipped, lambda *a, **k: pytest.fail(f"ran {skipped}"))
        code, out, _ = run(
            capsys, "converge", "--results-dir", model_dir, "--methods", "bayes",
            "--replicates", "5", "--format", "tsv", "--artifact", artifact,
        )
        assert code == 0 and out
        assert len(calls) == 5 * 3

    def test_replicate_one_degenerate_pmf(self, capsys, model_dir):
        code, out, _ = run(
            capsys, "converge", "--results-dir", model_dir, "--methods", "bayes",
            "--replicates", "1",
        )
        data = json.loads(out)
        conv = data["methods"]["bayes"]["convergence"]
        atoms = [p for p in conv["pmf"] if p["pmf"] > 0]
        assert len(atoms) <= 1


class TestSimulate:
    def test_reference_preset_means(self, capsys):
        code, out, _ = run(capsys, "simulate", "--preset", "reference")
        assert code == 0
        data = json.loads(out)
        means = [m["true_mean"] for m in data["models"]]
        assert means == pytest.approx(list(REFERENCE_MEANS), abs=1e-12)
        gold = {e["model"]: e["rank"] for e in data["gold"]["entries"]}
        assert gold["LLM11"] == 1 and gold["LLM4"] == gold["LLM5"]

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run(capsys, "simulate", "--preset", "reference", "--trials", "0")
        assert code == 2

    def test_matrices_written_to_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "mats"
        code, out, _ = run(
            capsys, "simulate", "--preset", "reference", "--trials", "5",
            "--seed", "4", "--out-dir", str(out_dir),
        )
        assert code == 0
        assert len(list(out_dir.glob("*.csv"))) == 11

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "simulate", "--preset", "mystery")
        assert code == 2

    def test_separation_subcommand(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "separation", "--a", "LLM11", "--b", "LLM1",
            "--ngrid", "5,10", "--replicates", "200", "--seed", "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["model_a"] == "LLM11"
        assert data["points"][-1]["p_correct"] > 0.95

    @pytest.mark.parametrize("before", [True, False])
    def test_separation_cohort_options_either_side(self, capsys, tmp_path, before):
        spec = tmp_path / "cohort.json"
        spec.write_text(json.dumps({"questions": 12, "seed": 3}))
        cohort = ["--spec", str(spec), "--seed", "2"]
        sep = ["separation", "--a", "LLM1", "--b", "LLM2", "--ngrid", "5",
               "--replicates", "20"]
        argv = ["simulate"] + (cohort + sep if before else sep + cohort)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        # spec {"questions": 12, "seed": 3}, separation seed 2
        code_ref, out_ref, _ = run(
            capsys, "simulate", "separation", "--spec", str(spec), "--a", "LLM1",
            "--b", "LLM2", "--ngrid", "5", "--replicates", "20", "--seed", "2",
        )
        assert json.loads(out) == json.loads(out_ref)
        assert json.loads(out)["true_gap"] != pytest.approx(
            REFERENCE_MEANS[0] - REFERENCE_MEANS[1]
        )

    @pytest.mark.parametrize("before", [True, False])
    def test_separation_unknown_preset(self, capsys, before):
        preset = ["--preset", "bogus"]
        sep = ["separation", "--a", "LLM1", "--b", "LLM2", "--ngrid", "5",
               "--replicates", "10"]
        argv = ["simulate"] + (preset + sep if before else sep + preset)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "bogus" in err

    def test_separation_unknown_model(self, capsys):
        code, _, err = run(
            capsys, "simulate", "separation", "--a", "LLM99", "--b", "LLM1",
            "--ngrid", "5", "--replicates", "10",
        )
        assert code == 2


def signals_jsonl(tmp_path, questions=2, trials=3):
    lines = []
    rng = np.random.default_rng(0)
    for q in range(questions):
        for t in range(1, trials + 1):
            correct = (q + t) % 2  # both classes always present
            lines.append(json.dumps({
                "question_id": f"q{q}",
                "trial": t,
                "has_box": 1,
                "is_correct": correct,
                "token_ratio": float(rng.uniform(0, 1)),
                "repeated_pattern": 0,
                "prompt_bpt": float(rng.uniform(0.5, 3)),
                "completion_bpt": float(rng.uniform(0.5, 3)),
                "compass_context_A": 0.9,
                "compass_context_B": 0.05,
                "compass_context_C": 0.05,
            }))
    p = tmp_path / "signals.jsonl"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


class TestRubric:
    def test_exact_match_emits_three_category_matrix(self, capsys, tmp_path):
        signals = signals_jsonl(tmp_path)
        out_csv = tmp_path / "cat.csv"
        code, out, _ = run(
            capsys, "rubric", "--signals", signals, "--schema", "exact-match",
            "--emit-matrix", str(out_csv),
        )
        assert code == 0
        data = json.loads(out)
        assert data["num_categories"] == 3
        assert set(data["thresholds"]) == {
            "tau_high", "tau_low_wrong", "tau_prompt",
            "len_p33", "len_p66", "corr_p33", "corr_p66",
        }
        from bayeseval.io import load_results_csv

        mx = load_results_csv(out_csv, num_categories=3)
        assert (mx.questions, mx.trials) == (2, 3)

    def test_format_aware_defaults(self, capsys, tmp_path):
        signals = signals_jsonl(tmp_path)
        code, out, _ = run(
            capsys, "rubric", "--signals", signals, "--schema", "format-aware"
        )
        data = json.loads(out)
        assert data["num_categories"] == 5
        assert data["default_weights"] == [0, 0, 1, 2, 3]

    def test_unknown_schema_lists_names(self, capsys, tmp_path):
        signals = signals_jsonl(tmp_path)
        code, _, err = run(capsys, "rubric", "--signals", signals, "--schema", "bogus")
        assert code == 2
        assert "exact-match" in err and "concise-high-conf" in err

    def test_bad_signal_value_exits_2_with_field_and_line(self, capsys, tmp_path):
        signals = signals_jsonl(tmp_path)
        with open(signals) as fh:
            lines = fh.read().splitlines()
        record = json.loads(lines[3])
        record["has_box"] = "yes"
        lines[3] = json.dumps(record)
        with open(signals, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, out, err = run(capsys, "rubric", "--signals", signals, "--schema", "format-aware")
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "ParseError"
        assert "has_box must be a number, got 'yes' (line 4)" in error["message"]

    def test_custom_schema_file(self, capsys, tmp_path):
        signals = signals_jsonl(tmp_path)
        schema_file = tmp_path / "box.json"
        schema_file.write_text(json.dumps({
            "name": "box-only",
            "num_categories": 3,
            "rules": {"1": "unboxed", "2": "boxed"},
            "weights": [0, 0, 1],
        }))
        code, out, _ = run(
            capsys, "rubric", "--signals", signals, "--schema", str(schema_file)
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "box-only"
        assert data["default_weights"] == [0, 0, 1]
