import numpy as np
import pytest
from hypothesis import given, strategies as st

from bayeseval.errors import (
    CategoryOutOfRangeError,
    EmptyMatrixError,
    InputError,
    NonIntegerCellError,
    NotAGridError,
    PriorShapeMismatchError,
    RaggedRowsError,
)
from bayeseval.model import PriorData, UNIFORM, tally, validate_matrix


class TestValidateMatrix:
    def test_well_formed_binary_grid(self):
        m = validate_matrix([[0, 1], [1, 1]], 2)
        assert (m.questions, m.trials, m.max_category) == (2, 2, 1)

    def test_ragged_rows_rejected(self):
        with pytest.raises(RaggedRowsError):
            validate_matrix([[0, 2], [1]], 3)

    def test_category_out_of_range(self):
        with pytest.raises(CategoryOutOfRangeError):
            validate_matrix([[0, 3]], 3)
        with pytest.raises(CategoryOutOfRangeError):
            validate_matrix([[0, -1]], 3)

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrixError):
            validate_matrix([], 2)

    def test_zero_trials_allowed(self):
        m = validate_matrix([[], []], 2)
        assert m.trials == 0 and m.questions == 2

    def test_cells_immutable(self):
        m = validate_matrix([[0, 1]], 2)
        with pytest.raises(ValueError):
            m.cells[0, 0] = 1

    def test_question_id_length_checked(self):
        with pytest.raises(RaggedRowsError):
            validate_matrix([[0, 1]], 2, question_ids=["a", "b"])

    @pytest.mark.parametrize(
        "raw",
        [
            [[0.5, 1]],
            np.array([[0.7, 1.0]]),
            [[0, float("nan")]],
            [[0, float("inf")]],
            [[0, None]],
            [["1", "0"]],
        ],
    )
    def test_non_integer_cells_rejected_not_truncated(self, raw):
        with pytest.raises(NonIntegerCellError):
            validate_matrix(raw, 2)

    @pytest.mark.parametrize(
        "raw", [np.array([0, 1]), [0, 1], np.zeros((1, 2, 1), dtype=int), 1, [[0, 1], 1]]
    )
    def test_non_grid_input_rejected(self, raw):
        with pytest.raises(NotAGridError):
            validate_matrix(raw, 2)

    def test_new_rejections_are_input_errors(self):
        # InputError maps to CLI exit code 2
        assert issubclass(NonIntegerCellError, InputError)
        assert issubclass(NotAGridError, InputError)

    def test_integral_floats_and_bools_accepted(self):
        assert validate_matrix([[1.0, 0.0]], 2).cells.tolist() == [[1, 0]]
        assert validate_matrix(np.array([[True, False]]), 2).cells.tolist() == [[1, 0]]

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8, np.float64])
    def test_copies_to_int64_and_leaves_caller_writable(self, dtype):
        raw = np.array([[0, 1], [1, 1]], dtype=dtype)
        m = validate_matrix(raw, 2)
        assert m.cells.dtype == np.int64 and not m.cells.flags.writeable
        raw[0, 0] = 1
        assert raw.flags.writeable and m.cells[0, 0] == 0

    def test_prior_rejects_non_integer_cells(self):
        with pytest.raises(NonIntegerCellError):
            PriorData.from_matrix([[0.5]], 2)


class TestTally:
    def test_binary_uniform_hand_count(self):
        t = tally(validate_matrix([[1, 1, 0]], 2), UNIFORM)
        assert t.counts.tolist() == [[1, 2]]
        assert t.prior_counts.tolist() == [[1, 1]]
        assert t.nu.tolist() == [[2, 3]]
        assert t.total == 5

    def test_single_zero_cell(self):
        t = tally(validate_matrix([[0]], 2), UNIFORM)
        assert t.nu.tolist() == [[2, 1]]
        assert t.total == 3

    def test_prior_matrix_hand_count(self):
        prior = PriorData.from_matrix([[1, 1]], 2)
        t = tally(validate_matrix([[1]], 2), prior)
        assert t.prior_counts.tolist() == [[1, 3]]
        assert t.nu.tolist() == [[1, 4]]
        assert t.total == 5

    def test_prior_shape_mismatch(self):
        prior = PriorData.from_matrix([[1], [0]], 2)
        with pytest.raises(PriorShapeMismatchError):
            tally(validate_matrix([[1, 0]], 2), prior)

    def test_prior_category_out_of_bounds(self):
        prior = PriorData.from_matrix([[2]], 3)
        with pytest.raises(PriorShapeMismatchError):
            tally(validate_matrix([[1]], 2), prior)

    def test_row_sums_equal_total(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m_rows = rng.integers(1, 8)
            n = int(rng.integers(0, 10))
            c = int(rng.integers(1, 5))
            cells = rng.integers(0, c + 1, size=(m_rows, n))
            d = int(rng.integers(0, 6))
            prior = (
                PriorData.from_matrix(rng.integers(0, c + 1, size=(m_rows, d)), c + 1)
                if d
                else UNIFORM
            )
            t = tally(validate_matrix(cells, c + 1), prior)
            assert (t.nu.sum(axis=1) == t.total).all()
            assert (t.counts.sum(axis=1) == n).all()
            assert (t.prior_counts.sum(axis=1) == 1 + c + d).all()

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance_within_row(self, row, rnd):
        shuffled = list(row)
        rnd.shuffle(shuffled)
        t1 = tally(validate_matrix([row], 3), UNIFORM)
        t2 = tally(validate_matrix([shuffled], 3), UNIFORM)
        assert t1.nu.tolist() == t2.nu.tolist()
        assert t1.total == t2.total

    def test_uniform_no_data(self):
        t = tally(validate_matrix([[], [], []], 4), UNIFORM)
        assert (t.nu == 1).all()
        assert t.total == 4
