import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bayeseval
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


def bom_copy(path, dest):
    """``path`` copied to ``dest`` behind a UTF-8 byte-order mark."""
    Path(dest).write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    return str(dest)


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

    def test_pass_method_on_three_categories_exits_3(self, capsys, tmp_path):
        three = write_csv(tmp_path / "c3.csv", [[0, 1, 2], [2, 2, 1]], num_categories=3)
        code, out, err = run(capsys, "eval", "--results", three, "--method", "pass@2")
        assert (code, out) == (3, "")
        error = json.loads(err)
        assert error["error"] == "MethodUndefinedError"
        assert "pass@2 requires binary outcomes" in error["message"]

    def test_prior_with_pass_method_exits_2(self, capsys, tmp_path, binary_csv):
        prior = write_csv(tmp_path / "p.csv", [[1, 1], [0, 0]])
        code, out, err = run(capsys, "eval", "--results", binary_csv, "--method", "pass@2",
                             "--prior", prior)
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == "--prior only applies to the bayes method"

    @pytest.mark.parametrize("method", ["pass@2", "pass^2", "gpass@2:1/2"])
    def test_weights_with_pass_method_exit_2(self, capsys, binary_csv, method):
        code, out, err = run(capsys, "eval", "--results", binary_csv, "--method", method,
                             "--weights", "0,5")
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError"
        assert error["message"].startswith("--weights applies only to the bayes and avg methods")

    def test_weights_with_avg_method(self, capsys, binary_csv):
        code, out, _ = run(capsys, "eval", "--results", binary_csv, "--method", "avg",
                           "--weights", "0,5")
        assert code == 0 and json.loads(out)["score"] == 3.75

    def test_weight_mismatch_exit_code(self, capsys, binary_csv):
        code, _, err = run(
            capsys, "eval", "--results", binary_csv, "--weights", "0,1,2"
        )
        assert code == 2
        assert "error" in json.loads(err)

    def test_bad_method_spec(self, capsys, binary_csv):
        code, _, err = run(capsys, "eval", "--results", binary_csv, "--method", "zap@3")
        assert code == 2

    def test_zero_k_exits_2_with_json_error(self, capsys, binary_csv):
        code, out, err = run(capsys, "eval", "--results", binary_csv, "--method", "pass@0")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "InputError"

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

    def test_prior_rows_must_name_the_results_questions_in_order(self, capsys, tmp_path,
                                                                  binary_csv):
        # rows pair by position: a swapped or foreign prior would be misapplied
        for ids in (("q2", "q1"), ("zz9", "zz8")):
            prior = tmp_path / "p.csv"
            prior.write_text(f"question_id,t1,t2\n{ids[0]},0,0\n{ids[1]},1,1\n")
            code, out, err = run(capsys, "eval", "--results", binary_csv, "--prior", str(prior))
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == "PriorShapeMismatchError"

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

    def test_malformed_label_map_exits_2(self, capsys, tmp_path, binary_csv):
        labels = tmp_path / "labels.json"
        labels.write_text('{"ok": 1,')
        code, out, err = run(capsys, "eval", "--results", binary_csv, "--labels", str(labels))
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ParseError" and str(labels) in error["message"]

    def test_results_csv_not_utf8_exits_2(self, capsys, tmp_path):
        results = tmp_path / "r.csv"
        results.write_bytes(b"question_id,t1\nq\xff,1\n")
        code, out, err = run(capsys, "eval", "--results", str(results))
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ParseError" and str(results) in error["message"]

    def test_results_field_past_csv_limit_exits_2(self, capsys, tmp_path):
        results = tmp_path / "big.csv"
        results.write_text("question_id,t1,t2\nq1,0," + "1" * 140_000 + "\n")
        code, out, err = run(capsys, "eval", "--results", str(results))
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ParseError" and str(results) in error["message"]
        assert "field larger than field limit" in error["message"] and "(line 2)" in error["message"]

    def test_label_map_not_utf8_exits_2(self, capsys, tmp_path, binary_csv):
        labels = tmp_path / "labels.json"
        labels.write_bytes(b'{"ok\xff": 1}')
        code, out, err = run(capsys, "eval", "--results", binary_csv, "--labels", str(labels))
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ParseError" and str(labels) in error["message"]

    def test_bom_results_csv_reads_as_without(self, capsys, tmp_path, binary_csv):
        plain = run(capsys, "eval", "--results", binary_csv)
        bom = run(capsys, "eval", "--results", bom_copy(binary_csv, tmp_path / "bom.csv"))
        assert plain[0] == 0 and bom == plain

    def test_bom_label_map_reads_as_without(self, capsys, tmp_path):
        results = tmp_path / "r.csv"
        results.write_text("question_id,t1,t2\nq1,ok,bad\nq2,ok,ok\n")
        labels = tmp_path / "labels.json"
        labels.write_text('{"ok": 1, "bad": 0}')
        argv = ["eval", "--results", str(results), "--labels"]
        plain = run(capsys, *argv, str(labels))
        bom = run(capsys, *argv, bom_copy(labels, tmp_path / "bom.json"))
        assert plain[0] == 0 and bom == plain

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

    def test_bom_results_csv_reads_as_without(self, capsys, tmp_path, model_dir):
        plain = run(capsys, "rank", "--results-dir", model_dir)
        bom_dir = tmp_path / "bom"
        bom_dir.mkdir()
        for csv_path in Path(model_dir).iterdir():
            bom_copy(csv_path, bom_dir / csv_path.name)
        assert plain[0] == 0 and run(capsys, "rank", "--results-dir", str(bom_dir)) == plain

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

    def test_non_numeric_threshold_exits_2_naming_it(self, capsys, model_dir):
        code, out, err = run(capsys, "rank", "--results-dir", model_dir, "--ci", "abc")
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError" and "'abc'" in error["message"]

    def test_weights_with_pass_method_exit_2(self, capsys, model_dir):
        code, out, err = run(capsys, "rank", "--results-dir", model_dir, "--method", "pass@2",
                             "--weights", "0,5")
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError" and "--weights applies only" in error["message"]

    @pytest.mark.parametrize("other, message", [
        ("question_id,t1,t2\nq1,1,0\nq2,0,0\n", "disagree on shape/categories"),
        ("question_id,t1,t2,t3,t4\nx1,1,0,1,1\nx2,0,0,1,0\n", "disagree on question ids"),
    ], ids=["trials", "question-ids"])
    def test_files_on_different_grids_exit_2(self, capsys, tmp_path, other, message):
        d = tmp_path / "mixed"
        d.mkdir()
        (d / "a.csv").write_text("question_id,t1,t2,t3,t4\nq1,1,0,1,1\nq2,0,0,1,0\n")
        (d / "b.csv").write_text(other)
        for argv in (["rank"], ["converge", "--replicates", "2"]):
            code, out, err = run(capsys, *argv, "--results-dir", str(d))
            assert (code, out) == (2, "")
            error = json.loads(err)
            assert error["error"] == "InputError" and message in error["message"]


class TestConverge:
    def test_shape_mismatch_rejected(self, capsys, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        write_csv(d / "a.csv", [[1, 0]])
        write_csv(d / "b.csv", [[1, 0, 1]])
        code, out, err = run(capsys, "converge", "--results-dir", str(d))
        assert (code, out) == (2, "") and json.loads(err)["error"] == "InputError"

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

    @pytest.mark.parametrize("replicates", ["0", "-2"])
    def test_bad_replicate_count_exits_2_before_any_draw(self, capsys, model_dir, monkeypatch,
                                                        replicates):
        monkeypatch.setattr(bootstrap, "stream_rng", lambda *a: pytest.fail("drew a replicate"))
        code, out, err = run(
            capsys, "converge", "--results-dir", model_dir, "--methods", "bayes",
            "--replicates", replicates,
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "InputError", "message": "replicates must be >= 1"}

    def test_replicates_past_stream_indices_exit_2_before_any_draw(self, capsys, model_dir,
                                                                   monkeypatch):
        # 2^40 + 1 replicates: one more than the stream key has indices
        monkeypatch.setattr(bootstrap, "stream_rng", lambda *a: pytest.fail("drew a replicate"))
        code, out, err = run(
            capsys, "converge", "--results-dir", model_dir, "--methods", "bayes",
            "--replicates", "1099511627777",
        )
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError" and "2^40" in error["message"]

    def test_negative_seed_exits_2(self, capsys, model_dir):
        # -1 would wrap onto seed 2^64 - 1's streams
        code, out, err = run(
            capsys, "converge", "--results-dir", model_dir, "--methods", "bayes",
            "--replicates", "8", "--seed", "-1",
        )
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError" and "2^64" in error["message"]

    def test_no_methods_exits_2_before_any_draw(self, capsys, model_dir, monkeypatch):
        monkeypatch.setattr(bootstrap, "stream_rng", lambda *a: pytest.fail("drew a replicate"))
        code, out, err = run(
            capsys, "converge", "--results-dir", model_dir, "--methods", ",", "--replicates", "2",
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "InputError", "message": "need at least one method"}

    def test_one_model_exits_2(self, capsys, tmp_path):
        d = tmp_path / "one"
        d.mkdir()
        write_csv(d / "alpha.csv", [[1, 1, 1], [1, 1, 0]])
        code, out, err = run(capsys, "converge", "--results-dir", str(d), "--replicates", "2")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "InputError", "message": "need at least two models to rank",
        }

    def test_memory_error_exits_2_with_json_line(self, capsys, model_dir, monkeypatch):
        def scan(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(bootstrap, "tau_curves", scan)
        code, out, err = run(
            capsys, "converge", "--results-dir", model_dir, "--methods", "bayes",
            "--replicates", "2",
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "MemoryError", "message": "Unable to allocate 8.00 TiB",
        }

    def test_threads_option_is_rejected(self, capsys, model_dir):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--results-dir", model_dir, "--threads", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_threads_variable_is_not_read(self, capsys, model_dir, monkeypatch):
        args = (
            "converge", "--results-dir", model_dir, "--methods", "bayes",
            "--replicates", "16", "--seed", "3",
        )
        monkeypatch.delenv("BAYESEVAL_THREADS", raising=False)
        _, plain, _ = run(capsys, *args)
        monkeypatch.setenv("BAYESEVAL_THREADS", "abc")
        code, out, _ = run(capsys, *args)
        assert code == 0 and out == plain

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

    def test_one_draw_per_replicate(self, capsys, model_dir, monkeypatch):
        # one tau scan draws every replicate and decides its convergence
        # point; at equal counts its downward scan draws none
        calls = self.count_resamples(monkeypatch)
        for name in ("tau_curves", "convergence_distributions"):
            real = getattr(bootstrap, name)
            monkeypatch.setattr(bootstrap, name,
                                lambda *a, real=real, name=name, **k: calls.append(name) or
                                real(*a, **k))
        code, out, _ = run(
            capsys, "converge", "--results-dir", model_dir, "--methods", "bayes,pass@2",
            "--replicates", "7",
        )
        assert code == 0
        # one draw per replicate, every model in it, all in the tau scan
        assert calls == ["tau_curves", *range(7)]
        assert json.loads(out)["replicates_tau"] == json.loads(out)["replicates_convergence"] == 7

    def test_inexact_tau_sums_exit_2_before_any_draw(self, capsys, tmp_path, monkeypatch):
        # 2^40 replicates of 20 models: 2^40 x 190^2 >= 2^53; of 11: 2^40 x 55^2 < 2^53
        class Drew(Exception):
            pass

        def drew(*args):
            raise Drew

        monkeypatch.setattr(bootstrap, "stream_rng", drew)
        for models in (20, 11):
            d = tmp_path / str(models)
            d.mkdir()
            for i in range(models):
                write_csv(d / f"m{i:02d}.csv", [[i % 2]])
            args = ("converge", "--results-dir", str(d), "--methods", "bayes",
                    "--replicates", str(2**40))
            if models == 11:
                with pytest.raises(Drew):
                    main(list(args))
                continue
            code, out, err = run(capsys, *args)
            assert (code, out) == (2, "")
            error = json.loads(err)
            assert error["error"] == "InputError" and "2^53" in error["message"]

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
        assert len(calls) == 5

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

    def test_out_dir_without_trials_exits_2(self, capsys, tmp_path):
        # nothing would be sampled, so the directory would silently stay unwritten
        out_dir = tmp_path / "mats"
        code, out, err = run(capsys, "simulate", "--preset", "reference", "--out-dir", str(out_dir))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError" and "--trials" in error["message"]
        assert not out_dir.exists()

    def test_non_integer_ngrid_exits_2(self, capsys):
        code, out, err = run(
            capsys, "simulate", "separation", "--a", "LLM1", "--b", "LLM2", "--ngrid", "40,x",
        )
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError" and "'40,x'" in error["message"]

    def test_spec_not_json_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "cohort.json"
        spec.write_text('{"questions": 12,\n oops}')
        code, out, err = run(capsys, "simulate", "--spec", str(spec))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "ParseError"
        assert str(spec) in error["message"] and "(line 2" in error["message"]

    @pytest.mark.parametrize("field, value", [
        ("questions", "abc"), ("questions", 2.5), ("questions", None),
        ("seed", "7"), ("seed", True),
    ])
    def test_spec_non_integer_field_exits_2(self, capsys, tmp_path, field, value):
        spec = tmp_path / "cohort.json"
        spec.write_text(json.dumps({"questions": 12, "seed": 3, field: value}))
        code, out, err = run(capsys, "simulate", "--spec", str(spec))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError"
        assert f"{field} must be an integer, got {value!r}" in error["message"]

    def test_spec_integral_float_accepted(self, capsys, tmp_path):
        spec = tmp_path / "cohort.json"
        spec.write_text(json.dumps({"questions": 12.0, "seed": 3}))
        code, out, _ = run(capsys, "simulate", "--spec", str(spec))
        assert code == 0 and json.loads(out)["questions"] == 12

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

    def test_separation_replicates_past_stream_indices_exit_2(self, capsys):
        code, out, err = run(
            capsys, "simulate", "separation", "--a", "LLM11", "--b", "LLM1",
            "--ngrid", "5", "--replicates", "10000000000000",
        )
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError" and "2^40" in error["message"]

    def test_separation_seed_past_64_bits_exits_2(self, capsys):
        # 2^64 would wrap onto seed 0's streams and print its report
        code, out, err = run(
            capsys, "simulate", "separation", "--a", "LLM10", "--b", "LLM9",
            "--ngrid", "10", "--replicates", "8", "--seed", str(2**64),
        )
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError" and "2^64" in error["message"]

    def test_last_model_seed_past_64_bits_exits_2_before_any_csv(self, capsys, tmp_path):
        # model i is keyed by seed + i: at 2^64 - 11 the eleventh model's seed
        # is 2^64 - 1 and every CSV is written; at 2^64 - 10 it would wrap
        argv = ["simulate", "--preset", "reference", "--trials", "4", "--out-dir"]
        code, _, _ = run(capsys, *argv, str(tmp_path / "last"), "--seed", str(2**64 - 11))
        assert code == 0 and len(list((tmp_path / "last").glob("*.csv"))) == 11
        code, out, err = run(capsys, *argv, str(tmp_path / "past"), "--seed", str(2**64 - 10))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError"
        # the message names the --seed given, not the seed + i that passed 2^64
        assert f"--seed {2**64 - 10}:" in error["message"] and str(2**64) not in error["message"]
        assert "model i is keyed by seed + i" in error["message"]
        assert not list((tmp_path / "past").glob("*.csv"))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("spec", [False, True])
    def test_unkeyed_cohort_seed_outside_64_bits_exits_2(self, capsys, tmp_path, seed, spec):
        # without --trials no stream is keyed by --seed, yet the report echoes it;
        # a spec with its own seed keys its cohort by that one
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps({"questions": 12, "seed": 3}))
        cohort = ["--spec", str(path)] if spec else ["--preset", "reference"]
        code, out, err = run(capsys, "simulate", *cohort, "--seed", str(seed))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "InputError" and "2^64" in error["message"]

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

    def test_signals_not_utf8_exits_2(self, capsys, tmp_path):
        signals = Path(signals_jsonl(tmp_path))
        # an invalid byte in the question id of every q1 record
        signals.write_bytes(signals.read_bytes().replace(b'"q1"', b'"q\xff"'))
        code, out, err = run(capsys, "rubric", "--signals", str(signals), "--schema", "format-aware")
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "ParseError" and str(signals) in error["message"]

    def test_bom_signals_read_as_without(self, capsys, tmp_path):
        signals = signals_jsonl(tmp_path)
        argv = ["rubric", "--schema", "format-aware", "--signals"]
        plain = run(capsys, *argv, signals)
        bom = run(capsys, *argv, bom_copy(signals, tmp_path / "bom.jsonl"))
        assert plain[0] == 0 and bom == plain

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

    @pytest.mark.parametrize("text, message", [
        ("{oops", "invalid JSON"),
        (json.dumps({"name": "x", "num_categories": 3, "rules": {"one": "wrong", "2": "correct"}}),
         "rule category must be an integer, got 'one'"),
        (json.dumps({"name": "x", "num_categories": 3, "rules": {"1": "~~wrong", "2": "correct"}}),
         "unknown variable '~~wrong'"),
    ], ids=["not-json", "non-integer-category", "double-negation"])
    def test_malformed_schema_file_exits_2_naming_it(self, capsys, tmp_path, text, message):
        signals = signals_jsonl(tmp_path)
        schema_file = tmp_path / "bad.json"
        schema_file.write_text(text)
        code, out, err = run(
            capsys, "rubric", "--signals", signals, "--schema", str(schema_file)
        )
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] in ("InputError", "ParseError")
        assert error["message"].startswith(f"{schema_file}: ") and message in error["message"]

    def test_help_lists_every_shipped_schema(self, capsys, monkeypatch):
        from bayeseval.rubric import SCHEMATA

        monkeypatch.setenv("COLUMNS", "1000")      # no wrapping inside a name
        with pytest.raises(SystemExit) as exc:
            main(["rubric", "--help"])
        assert exc.value.code == 0
        listed = capsys.readouterr().out.split("or one of: ")[1].splitlines()[0]
        assert listed == ", ".join(s.name for s in SCHEMATA)
        assert len(SCHEMATA) == 12


# -- import footprint -------------------------------------------------------------

_SRC = str(Path(bayeseval.__file__).resolve().parents[1])
_RUN_AS_MAIN = """
import gc, json, os, runpy, sys
sys.argv = ["bayeseval", *sys.argv[1:]]
try:
    runpy.run_module("bayeseval.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
status = "/proc/self/status"   # Linux: the process's thread count
threads = ([int(line.split()[1]) for line in open(status) if line.startswith("Threads:")]
           if os.path.exists(status) else [None])[0]
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("bayeseval.")),
                  gc.isenabled(), gc.get_freeze_count(), "numpy.ma" in sys.modules, threads,
                  os.environ.get("OPENBLAS_NUM_THREADS")]), file=sys.stderr)
"""


def _numpy_openblas() -> bool:
    """Whether numpy was built against (its bundled) OpenBLAS."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


_PUBLIC = set("""
    bayes bootstrap errors methods model passk ranking rubric simulate
    affine_bridge avg_sigma_from_bayes evaluate_performance naive_weighted_average
    ConvergenceDistribution ResamplePlan ResampleScheme TauCurve
    convergence_distributions resample tau_curves
    Method parse_method parse_methods
    UNIFORM PosteriorSummary PriorData ResultsMatrix TallyTable WeightVector tally
    validate_matrix
    BinaryTally g_pass_at_k_tau mg_pass_at_k naive_pass_hat_k pass_at_k pass_hat_k
    RankTable ScoredModel kendall_tau_b rank_with_ci rank_without_ci ranking_confidence
    z_score
    SCHEMATA Schema SignalTable ThresholdSet build_matrix categorize
    compute_thresholds derive_variables schema_by_name
    REFERENCE_MEANS CohortSpec CoinModel fresh_tau_curves generate_cohort gold_ranking
    reference_cohort sample_trials separation_experiment
""".split())


def _python(code: str, *argv: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter, with ``env`` in place of any
    OPENBLAS_NUM_THREADS of this one."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True,
        env={**base, "PYTHONPATH": _SRC, **env},
    )


class TestImportFootprint:
    """Each subcommand, run as ``python -m bayeseval.cli``, loads only its modules."""

    @pytest.mark.parametrize("command, absent", [
        ("eval", {"bootstrap", "ranking", "simulate", "rubric"}),
        ("rank", {"bootstrap", "simulate", "rubric"}),
        ("converge", {"simulate", "rubric"}),
        ("simulate", {"bootstrap", "rubric", "methods", "passk"}),
        ("separation", {"bootstrap", "rubric", "methods", "passk"}),
        ("rubric", {"bootstrap", "simulate", "ranking", "methods", "passk", "bayes"}),
    ])
    def test_subcommand_loads_only_its_modules(self, tmp_path, model_dir, binary_csv,
                                                command, absent):
        argv = {
            "eval": ["eval", "--results", binary_csv],
            "rank": ["rank", "--results-dir", model_dir],
            "converge": ["converge", "--results-dir", model_dir, "--replicates", "2",
                         "--methods", "bayes,pass@2"],
            "simulate": ["simulate", "--trials", "2"],
            "separation": ["simulate", "separation", "--a", "LLM1", "--b", "LLM2",
                           "--ngrid", "2", "--replicates", "2"],
            "rubric": ["rubric", "--signals", signals_jsonl(tmp_path), "--schema", "exact-match"],
        }[command]
        proc = _python(_RUN_AS_MAIN, *argv)
        code, modules, gc_enabled, frozen, masked, threads, blas = json.loads(
            proc.stderr.splitlines()[-1])
        assert code == 0
        assert json.loads(proc.stdout)
        loaded = {m.removeprefix("bayeseval.") for m in modules}
        assert "io" in loaded and not loaded & absent
        # the process ran without cyclic collection and exits past its objects
        assert not gc_enabled and frozen > 0
        # rubric percentiles skip np.percentile, which imports numpy.ma
        assert not (command == "rubric" and masked)
        # numpy's OpenBLAS started no worker thread
        assert blas == "1"
        if threads is not None and _numpy_openblas():
            assert threads == 1

    def test_callers_openblas_threads_kept(self, binary_csv):
        proc = _python(_RUN_AS_MAIN, "eval", "--results", binary_csv, OPENBLAS_NUM_THREADS="2")
        code, *_, blas = json.loads(proc.stderr.splitlines()[-1])
        assert (code, blas) == (0, "2")

    def test_bare_import_loads_no_submodule_and_not_numpy(self):
        proc = _python(
            "import sys, bayeseval; "
            "print(sorted(m for m in sys.modules if m.startswith(('bayeseval.', 'numpy'))))"
        )
        assert proc.stdout.strip() == "[]"

    def test_every_public_name_resolves(self):
        namespace = {}
        exec("from bayeseval import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(bayeseval.__all__) == _PUBLIC
        assert _PUBLIC <= set(dir(bayeseval))
        assert bayeseval.bootstrap is sys.modules["bayeseval.bootstrap"]
        assert bayeseval.tau_curves is bayeseval.bootstrap.tau_curves
        assert bayeseval.SCHEMATA is bayeseval.rubric.SCHEMATA

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'tau_curvez'"):
            bayeseval.tau_curvez
        with pytest.raises(ImportError):
            from bayeseval import tau_curvez  # noqa: F401


# -- process entry ----------------------------------------------------------------

_GC_STATE = """
import gc, io, json, sys
from contextlib import redirect_stderr, redirect_stdout

state = lambda: [gc.isenabled(), gc.get_freeze_count()]
seen = [state()]
from bayeseval.cli import main
seen.append(state())
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.TextIOWrapper(io.BytesIO())), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    seen.append([code, *state()])
print(json.dumps(seen))
"""


class TestProcessEntry:
    """Only the process entry ``run()`` changes the collector's state."""

    def test_import_and_main_keep_the_gc_state(self, tmp_path, binary_csv):
        calls = [
            ["eval", "--results", binary_csv],
            ["eval", "--results", str(tmp_path / "missing.csv")],
            ["eval", "--results", binary_csv, "--method", "pass@5"],
            ["--help"],
        ]
        before, imported, *after = json.loads(
            _python(_GC_STATE, json.dumps(calls)).stdout
        )
        assert before == imported == [True, 0]
        assert after == [[0, True, 0], [2, True, 0], [3, True, 0], [0, True, 0]]

    @pytest.mark.parametrize("command, small, large", [
        ("converge-row", 4, 64),
        ("converge-col", 4, 64),
        ("separation", 20, 200),
        ("rubric", 10, 40),
    ])
    def test_cyclic_garbage_does_not_grow_with_the_work(self, capsys, tmp_path, model_dir,
                                                         command, small, large):
        """A CLI process never collects before exit, so a command may leave only
        a fixed amount of cyclic garbage, whatever its replicates or records."""
        def argv(size):
            if command.startswith("converge"):
                return ["converge", "--results-dir", model_dir, "--replicates", str(size),
                        "--methods", "bayes,pass@2",
                        "--scheme", command.removeprefix("converge-")]
            if command == "separation":
                return ["simulate", "separation", "--a", "LLM1", "--b", "LLM2",
                        "--ngrid", "2,4", "--replicates", str(size)]
            size_dir = tmp_path / str(size)
            size_dir.mkdir(exist_ok=True)
            return ["rubric", "--signals", signals_jsonl(size_dir, questions=size),
                    "--schema", "exact-match"]

        def garbage(size):
            assert main(argv(size)) == 0
            capsys.readouterr()
            return gc.collect()

        gc.disable()
        try:
            garbage(small)  # first calls import modules and fill caches
            counts = garbage(small), garbage(large)
        finally:
            gc.enable()
        assert counts[1] <= counts[0]

    def test_closed_stdout_exits_2_with_one_json_error(self):
        """The report (200 kB) outgrows the pipe, so the rest of it meets a
        closed pipe; exit flushes nothing more and prints no traceback."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "bayeseval.cli", "simulate", "--preset", "reference",
             "--trials", "300"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": _SRC},
        )
        assert proc.stdout.read(10) == b'{"seed":0,'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert "Exception ignored" not in err
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "BrokenPipeError"
