import numpy as np
import pytest

from dibmix import (
    CATEGORICAL,
    CONTINUOUS,
    MixedDataset,
    ParseError,
    SchemaError,
    VariableSchema,
    ZeroVarianceError,
    load_labels,
    read_csv,
    read_schema_file,
    standardize,
    write_csv,
)


def test_schema_requires_levels_for_categorical():
    with pytest.raises(SchemaError):
        VariableSchema("c", CATEGORICAL)
    with pytest.raises(SchemaError):
        VariableSchema("c", CATEGORICAL, ("only",))
    with pytest.raises(SchemaError):
        VariableSchema("c", CATEGORICAL, ("a", "a"))
    with pytest.raises(SchemaError):
        VariableSchema("x", CONTINUOUS, ("a", "b"))
    with pytest.raises(SchemaError):
        VariableSchema("x", "ordinal")
    assert VariableSchema("c", CATEGORICAL, ("a", "b")).n_levels == 2


def _small_ds(weights=None):
    schema = (
        VariableSchema("age", CONTINUOUS),
        VariableSchema("sex", CATEGORICAL, ("F", "M")),
    )
    return MixedDataset(
        schema=schema,
        continuous=np.array([[1.0], [2.0], [3.0], [4.0]]),
        categorical=np.array([[0], [1], [0], [1]]),
        weights=weights,
    )


def test_dataset_defaults_and_invariants():
    ds = _small_ds()
    assert ds.n == 4 and ds.p_cont == 1 and ds.p_cat == 1
    assert ds.n_levels == (2,)
    np.testing.assert_allclose(ds.weights, 0.25)
    assert not ds.continuous.flags.writeable
    assert not ds.categorical.flags.writeable


def test_dataset_rejects_bad_weights_and_levels():
    with pytest.raises(SchemaError):
        _small_ds(weights=np.array([0.5, 0.5, 0.25, 0.25]))  # sums to 1.5
    with pytest.raises(SchemaError):
        _small_ds(weights=np.array([0.5, 0.5, 0.0, 0.0]))  # zero weight
    with pytest.raises(SchemaError):
        MixedDataset(
            schema=(VariableSchema("c", CATEGORICAL, ("a", "b")),),
            continuous=np.empty((2, 0)),
            categorical=np.array([[0], [2]]),  # index 2 out of range
        )
    with pytest.raises(SchemaError):
        MixedDataset(
            schema=(
                VariableSchema("x", CONTINUOUS),
                VariableSchema("x", CONTINUOUS),
            ),
            continuous=np.zeros((2, 2)),
            categorical=np.empty((2, 0)),
        )


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_continuous(value):
    with pytest.raises(SchemaError, match="finite"):
        MixedDataset(
            schema=(VariableSchema("x", CONTINUOUS),),
            continuous=np.array([[1.0], [value], [3.0]]),
            categorical=np.empty((3, 0)),
        )


def test_subsample_renormalizes_weights():
    ds = _small_ds(weights=np.array([0.1, 0.2, 0.3, 0.4]))
    sub = ds.subsample([1, 3])
    assert sub.n == 2
    np.testing.assert_allclose(sub.weights.sum(), 1.0, atol=1e-15)
    np.testing.assert_allclose(sub.weights, [0.2 / 0.6, 0.4 / 0.6])


def test_read_csv_infers_schema(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("age,sex\n31,M\n45,F\n27,F\n52,M\n")
    ds = read_csv(path, categorical=["sex"])
    assert ds.n == 4 and ds.p_cont == 1 and ds.p_cat == 1
    assert ds.categorical_vars[0].levels == ("F", "M")
    np.testing.assert_array_equal(ds.categorical[:, 0], [1, 0, 0, 1])
    np.testing.assert_allclose(ds.continuous[:, 0], [31, 45, 27, 52])


def test_read_csv_blank_cell_names_row_and_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("age,sex\n31,M\n,F\n27,F\n")
    with pytest.raises(ParseError) as info:
        read_csv(path, categorical=["sex"])
    assert "line 3" in str(info.value)
    assert "age" in str(info.value)
    assert (3, "age", "missing value") in info.value.cells


def test_read_csv_collects_all_bad_cells(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\nx,3\n4,y\n")
    with pytest.raises(ParseError) as info:
        read_csv(path)
    cells = {(ln, col) for ln, col, _ in info.value.cells}
    assert cells == {(3, "a"), (4, "b")}


def test_read_csv_rejects_non_finite_cells(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\nnan,3\n4,-inf\n1e999,5\n")
    with pytest.raises(ParseError) as info:
        read_csv(path)
    assert info.value.cells == [
        (3, "a", "not finite: 'nan'"),
        (5, "a", "not finite: '1e999'"),
        (4, "b", "not finite: '-inf'"),
    ]


def test_read_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_csv(tmp_path / "nope.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError):
        read_csv(empty)
    headers_only = tmp_path / "h.csv"
    headers_only.write_text("a,b\n")
    with pytest.raises(SchemaError):
        read_csv(headers_only)
    data = tmp_path / "d.csv"
    data.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaError):
        read_csv(data, categorical=["missing"])


def test_read_csv_skips_blank_lines_and_strips_cells(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("\n \n a , b \n1, x\n\n 2 ,y\n")
    ds = read_csv(path, categorical=["b"])
    assert [v.name for v in ds.schema] == ["a", "b"]
    assert ds.categorical_vars[0].levels == ("x", "y")
    np.testing.assert_array_equal(ds.continuous[:, 0], [1.0, 2.0])


def test_read_csv_rejects_a_row_off_the_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ParseError) as info:
        read_csv(path)
    assert info.value.cells == [(3, "", "field count")]


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    schema = (
        VariableSchema("x", CONTINUOUS),
        VariableSchema("y", CONTINUOUS),
        VariableSchema("c", CATEGORICAL, ("lo", "mid", "hi")),
    )
    ds = MixedDataset(
        schema=schema,
        continuous=np.column_stack([
            rng.standard_normal(20) * 1e6,
            np.concatenate([[0.1, 1e-17, -1e300, np.pi], rng.standard_normal(16)]),
        ]),
        categorical=rng.integers(0, 3, size=(20, 1)),
    )
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    back = read_csv(path, categorical=["c"])
    np.testing.assert_array_equal(back.continuous, ds.continuous)
    # read_csv infers levels in sorted order, so compare decoded labels, not codes.
    assert back.categorical_vars[0].levels == ("hi", "lo", "mid")
    orig_labels = [schema[2].levels[c] for c in ds.categorical[:, 0]]
    back_labels = [back.categorical_vars[0].levels[c] for c in back.categorical[:, 0]]
    assert back_labels == orig_labels


def test_standardize_hand_case_and_idempotence():
    schema = (VariableSchema("x", CONTINUOUS),)
    ds = MixedDataset(schema=schema, continuous=np.array([[1.0], [3.0]]),
                      categorical=np.empty((2, 0)))
    out = standardize(ds)
    np.testing.assert_allclose(out.continuous[:, 0], [-0.7071067811865475, 0.7071067811865475])
    assert abs(out.continuous[:, 0].mean()) < 1e-10
    assert abs(out.continuous[:, 0].std(ddof=1) - 1.0) < 1e-10
    again = standardize(out)
    np.testing.assert_allclose(again.continuous, out.continuous, atol=1e-10)


def test_standardize_rejects_constant_column():
    schema = (VariableSchema("x", CONTINUOUS), VariableSchema("y", CONTINUOUS))
    ds = MixedDataset(
        schema=schema,
        continuous=np.column_stack([np.array([5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0])]),
        categorical=np.empty((3, 0)),
    )
    with pytest.raises(ZeroVarianceError) as info:
        standardize(ds)
    assert "x" in str(info.value)


def test_standardize_passes_through_categorical():
    ds = _small_ds()
    out = standardize(ds)
    np.testing.assert_array_equal(out.categorical, ds.categorical)
    np.testing.assert_array_equal(out.weights, ds.weights)


def test_schema_file_and_labels(tmp_path):
    sf = tmp_path / "schema.csv"
    sf.write_text("age,continuous\nsex,categorical\n\ncp,categorical\n")
    assert read_schema_file(sf) == ["sex", "cp"]
    bad = tmp_path / "bad.csv"
    bad.write_text("age,ordinal\n")
    with pytest.raises(SchemaError):
        read_schema_file(bad)

    labels = tmp_path / "labels.csv"
    labels.write_text("truth\na\nb\na\n")
    np.testing.assert_array_equal(load_labels(labels), ["a", "b", "a"])
    multi = tmp_path / "multi.csv"
    multi.write_text("id,cls\n1,x\n2,y\n")
    np.testing.assert_array_equal(load_labels(multi, column="cls"), ["x", "y"])
    with pytest.raises(SchemaError):
        load_labels(multi)
    with pytest.raises(SchemaError):
        load_labels(multi, column="nope")
    with pytest.raises(FileNotFoundError, match="label file"):
        load_labels(tmp_path / "absent.csv")


@pytest.mark.parametrize("text, column, line", [
    ("id,cls\n1,x\n\n2\n", "cls", 4),  # short; the blank line still counts
    ("truth\na\nb,c\n", None, 3),  # long
    ('id,cls\n"1\n2",x\n3\n', "cls", 4),  # after a quoted cell that spans two lines
], ids=["short_row", "long_row", "after_multiline_cell"])
def test_load_labels_rejects_a_row_off_the_header(tmp_path, text, column, line):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_labels(path, column=column)
    assert info.value.cells == [(line, "", "field count")]
