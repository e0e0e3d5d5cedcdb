import dataclasses
import json
import pickle

import numpy as np
import pytest

from sparselp import (
    DimensionMismatch,
    GenSpec,
    NonFinite,
    ParseError,
    ProblemInstance,
    TrivialInstance,
    gen_matched_pair,
    least_squares_min_norm,
    read_instance,
    replace_p,
    validate_instance,
    write_instance,
)


def make_inst(**kw):
    base = dict(
        a=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]]),
        b=np.array([1.0, 2.0]),
        sigma=0.5,
        p=0.5,
    )
    base.update(kw)
    return ProblemInstance(**base)


def test_instance_arrays_are_read_only():
    inst = make_inst()
    with pytest.raises(ValueError):
        inst.a[0, 0] = 9.0
    with pytest.raises(ValueError):
        inst.b[0] = 9.0


def test_read_accepts_flat_and_nested_matrix(tmp_path):
    # the file states m and n; its a is flat (row-major) or nested
    path = tmp_path / "inst.json"
    doc = {"format": 1, "m": 2, "n": 2, "b": [1.0, 1.0], "sigma": 0.1, "p": 0.5}
    for a in ([1.0, 2.0, 3.0, 4.0], [[1.0, 2.0], [3.0, 4.0]]):
        path.write_text(json.dumps(dict(doc, a=a)))
        inst = read_instance(path)
        assert (inst.m, inst.n) == inst.a.shape == (2, 2)
        assert inst.a[1, 0] == 3.0


def test_read_rejects_a_that_does_not_fit_the_sizes(tmp_path):
    path = tmp_path / "inst.json"
    doc = {"format": 1, "m": 2, "n": 3, "b": [1.0, 2.0], "sigma": 0.5, "p": 0.5}
    for sizes, a in (
        ({}, [1, 0, 1, 0, 1]),  # flat, one entry short
        ({}, [[1, 0], [0, 1], [1, -1]]),  # nested, transposed
        ({"m": -2, "n": -3}, [1, 0, 1, 0, 1, -1]),  # m * n = 6 entries
        ({"m": 0, "b": []}, []),
    ):
        path.write_text(json.dumps(dict(doc, a=a, **sizes)))
        with pytest.raises(DimensionMismatch):
            read_instance(path)


def test_residual():
    inst = make_inst()
    x = np.array([1.0, 1.0, 0.0])
    np.testing.assert_allclose(inst.residual(x), np.array([0.0, -1.0]))


def test_constructor_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        make_inst(b=np.ones(3))
    with pytest.raises(DimensionMismatch):
        make_inst(a=np.ones(6))  # flat: only a file states m and n
    with pytest.raises(DimensionMismatch):
        make_inst(a=np.ones((0, 3)), b=np.ones(0))
    with pytest.raises(TypeError):
        make_inst(m=2, n=3)  # the sizes are a's shape, not parameters


def test_sizes_are_the_shape_of_a():
    inst = make_inst()
    assert [f.name for f in dataclasses.fields(inst) if f.init] == ["a", "b", "sigma", "p"]
    for other in (
        inst,
        replace_p(inst, 0.3),
        dataclasses.replace(inst, sigma=0.25),
        pickle.loads(pickle.dumps(inst)),
    ):
        assert (other.m, other.n) == other.a.shape == (2, 3)


def test_validate_rejects_empty_dims():
    # an empty instance cannot be built, so there is none to validate
    with pytest.raises(DimensionMismatch):
        validate_instance(ProblemInstance(a=np.ones((0, 3)), b=np.ones(0), sigma=1.0))
    with pytest.raises(DimensionMismatch):
        ProblemInstance(a=np.ones((2, 0)), b=np.ones(2), sigma=1.0)


def test_constructor_rejects_nonfinite_data():
    for bad in (np.nan, np.inf, -np.inf):
        a = np.array([[1.0, bad, 0.0], [0.0, 1.0, 1.0]])
        with pytest.raises(NonFinite):
            make_inst(a=a)
        with pytest.raises(NonFinite):
            make_inst(b=np.array([1.0, bad]))


def test_constructor_rejects_bad_sigma():
    for sigma in (np.inf, -np.inf, np.nan, -1.0, -1e-300):
        with pytest.raises(NonFinite):
            make_inst(sigma=sigma)
    assert make_inst(sigma=0.0).sigma == 0.0
    # the blanket assumption depends on the norm, so a trivial ball still builds
    assert make_inst(sigma=3.0).sigma == 3.0


def test_validate_rejects_nonfinite():
    bad = np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(NonFinite):
        validate_instance(make_inst(a=bad))
    with pytest.raises(NonFinite):
        validate_instance(make_inst(sigma=np.inf))
    with pytest.raises(NonFinite):
        validate_instance(make_inst(sigma=-1.0))


def test_validate_rejects_trivial_ball():
    # ||b||_1 = 3 <= sigma means x = 0 is already feasible
    with pytest.raises(TrivialInstance):
        validate_instance(make_inst(sigma=3.0))
    validate_instance(make_inst(sigma=2.9))  # boundary stays valid


def test_roundtrip(tmp_path):
    inst = make_inst()
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    back = read_instance(path)
    np.testing.assert_array_equal(back.a, inst.a)
    np.testing.assert_array_equal(back.b, inst.b)
    assert back.sigma == inst.sigma
    assert back.p == inst.p
    assert back.m == inst.m and back.n == inst.n


def test_roundtrip_text_is_stable(tmp_path):
    inst = make_inst()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_instance(inst, p1)
    write_instance(read_instance(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_read_rejects_missing_field(tmp_path):
    path = tmp_path / "broken.json"
    doc = {"format": 1, "m": 2, "n": 3, "a": [1, 0, 1, 0, 1, -1], "b": [1, 2]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="sigma"):
        read_instance(path)


def test_read_rejects_wrong_format_version(tmp_path):
    path = tmp_path / "vers.json"
    doc = {
        "format": 99,
        "m": 2,
        "n": 3,
        "a": [1, 0, 1, 0, 1, -1],
        "b": [1, 2],
        "sigma": 0.5,
        "p": 0.5,
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        read_instance(path)


def test_read_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_instance(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("m", 2.9),  # was read as m = 2
        ("m", True),  # was read as m = 1
        ("m", "2"),
        ("sigma", "1.0"),
        ("p", False),
        ("a", ["1", "0", "1", "0", "1", "-1"]),
        ("b", [1, True]),
        ("b", 3.0),
    ],
    ids=["m-float", "m-bool", "m-str", "sigma-str", "p-bool", "a-strs", "b-bool-entry", "b-scalar"],
)
def test_read_rejects_malformed_field(tmp_path, field, value):
    path = tmp_path / "bad.json"
    doc = {"format": 1, "m": 2, "n": 3, "a": [1, 0, 1, 0, 1, -1], "b": [1, 2],
           "sigma": 0.5, "p": 0.5}
    path.write_text(json.dumps(doc))
    assert read_instance(path).m == 2
    path.write_text(json.dumps(dict(doc, **{field: value})))
    with pytest.raises(ParseError, match=f"field '{field}'"):
        read_instance(path)


def test_replace_p():
    inst = make_inst()
    other = replace_p(inst, 0.3)
    assert other.p == 0.3
    assert inst.p == 0.5
    assert other.sigma == inst.sigma
    # shared, not copied: A, b and what is derived from them
    assert other.a is inst.a and other.b is inst.b
    assert other.col_norms is inst.col_norms
    assert other.anchor is inst.anchor


def test_instance_copies_the_callers_arrays():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
    b = np.array([1.0, 2.0])
    inst = make_inst(a=a, b=b)
    a[0, 0], b[0] = 9.0, 9.0
    assert inst.a[0, 0] == 1.0 and inst.b[0] == 1.0


def test_anchor_is_the_read_only_least_squares_point():
    inst = make_inst()
    np.testing.assert_array_equal(inst.anchor, least_squares_min_norm(inst.a, inst.b))
    assert not inst.anchor.flags.writeable
    assert not inst.col_norms.flags.writeable
    with pytest.raises(ValueError):
        inst.anchor[0] = 9.0


def test_equality_and_hash_are_by_identity():
    inst1, inst2, _, _ = gen_matched_pair(GenSpec(m=4, n=6, s=2, delta=1e-2, seed=0))
    assert inst1 == inst1 and not inst1 == inst2 and inst1 != inst2
    assert hash(inst1) == hash(inst1)
    table = {inst1: "l1", inst2: "l2"}
    assert table[inst1] == "l1" and table[inst2] == "l2"
    assert replace_p(inst1, 0.5) not in table


def test_pickle_keeps_arrays_read_only():
    inst = make_inst()
    for cached in (False, True):
        if cached:
            _ = inst.anchor, inst.col_norms  # computed before pickling
        back = pickle.loads(pickle.dumps(inst))
        assert (back.m, back.n, back.sigma, back.p) == (inst.m, inst.n, inst.sigma, inst.p)
        for name in ("a", "b", "anchor", "col_norms"):
            arr = getattr(back, name)
            np.testing.assert_array_equal(arr, getattr(inst, name))
            assert not arr.flags.writeable, name
        # the round trip keeps one record under the instance
        assert replace_p(back, 0.3).a is back.a


def test_dataclasses_replace_builds_a_checked_record():
    inst = make_inst()
    with pytest.raises(NonFinite):
        dataclasses.replace(inst, sigma=-1.0)
    with pytest.raises(NonFinite):
        dataclasses.replace(inst, sigma=np.nan)
    other = dataclasses.replace(inst, sigma=0.25)
    assert other.sigma == 0.25 and other.a is not inst.a
    np.testing.assert_array_equal(other.a, inst.a)
    assert not other.a.flags.writeable


def test_read_rejects_nonfinite(tmp_path):
    path = tmp_path / "nan.json"
    doc = {"format": 1, "m": 2, "n": 3, "a": [1, 0, 1, 0, 1, -1], "b": [1, float("nan")],
           "sigma": 0.5, "p": 0.5}
    path.write_text(json.dumps(doc))
    with pytest.raises(NonFinite):
        read_instance(path)
