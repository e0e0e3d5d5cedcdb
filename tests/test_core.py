import json

import numpy as np
import pytest

from sparselp import (
    DimensionMismatch,
    NonFinite,
    ParseError,
    ProblemInstance,
    TrivialInstance,
    read_instance,
    replace_p,
    support_indices,
    validate_instance,
    write_instance,
)


def make_inst(**kw):
    base = dict(
        m=2,
        n=3,
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


def test_instance_accepts_flat_matrix():
    inst = ProblemInstance(
        m=2, n=2, a=np.array([1.0, 2.0, 3.0, 4.0]), b=np.array([1.0, 1.0]), sigma=0.1
    )
    assert inst.a.shape == (2, 2)
    assert inst.a[1, 0] == 3.0


def test_residual():
    inst = make_inst()
    x = np.array([1.0, 1.0, 0.0])
    np.testing.assert_allclose(inst.residual(x), np.array([0.0, -1.0]))


def test_constructor_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        make_inst(a=np.ones((3, 3)))
    with pytest.raises(DimensionMismatch):
        make_inst(b=np.ones(3))
    with pytest.raises(DimensionMismatch):
        make_inst(a=np.ones(5))  # flat with wrong length


def test_validate_rejects_empty_dims():
    # an empty instance cannot be built, so there is none to validate
    with pytest.raises(DimensionMismatch):
        validate_instance(ProblemInstance(m=0, n=3, a=np.ones((0, 3)), b=np.ones(0), sigma=1.0))
    with pytest.raises(DimensionMismatch):
        ProblemInstance(m=2, n=0, a=np.ones((2, 0)), b=np.ones(2), sigma=1.0)


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


def test_support_set():
    s = support_indices(np.array([0.0, -2.0, 0.0, 1e-300]))
    assert s.tolist() == [1, 3]  # exact-zero test, no threshold
    assert tuple(support_indices(np.array([1.0, 0.0, -1.0]))) == (0, 2)


def test_replace_p():
    inst = make_inst()
    other = replace_p(inst, 0.3)
    assert other.p == 0.3
    assert inst.p == 0.5
    np.testing.assert_array_equal(other.a, inst.a)
    np.testing.assert_array_equal(other.b, inst.b)


def test_read_rejects_nonfinite(tmp_path):
    path = tmp_path / "nan.json"
    doc = {"format": 1, "m": 2, "n": 3, "a": [1, 0, 1, 0, 1, -1], "b": [1, float("nan")],
           "sigma": 0.5, "p": 0.5}
    path.write_text(json.dumps(doc))
    with pytest.raises(NonFinite):
        read_instance(path)
