import json
from pathlib import Path

import pytest
from fractions import Fraction

import brute

from conway_genera import conway
from conway_genera.conway import (DataError, FrameShape, LAMBENCIES,
                                  c_squared_oracle, d_squared_oracle, load_class_data)
from conway_genera.scalars import RadicalScalar


def fs(*pairs):
    return FrameShape.from_pairs(pairs)


def test_negate_identity_class():
    assert fs((1, 24)).negate() == fs((2, 24), (1, -24))


def test_negate_with_negative_exponents():
    assert fs((3, 9), (1, -3)).negate() \
        == fs((1, 3), (6, 9), (2, -3), (3, -9))


def test_negate_all_even_is_fixed():
    assert fs((2, 12)).negate() == fs((2, 12))


def test_negate_is_involution_on_every_row(data):
    for rec in data.classes.values():
        assert rec.fs_g.negate() == rec.fs_neg_g
        assert rec.fs_neg_g.negate() == rec.fs_g


def test_cyclo_multiplicities():
    assert fs((2, 16), (1, -8)).cyclo() == {1: 8, 2: 16}
    assert fs((1, 24)).cyclo() == {1: 24}
    assert fs((3, 9), (1, -3)).cyclo() == {1: 6, 3: 9}


def test_cyclo_rejects_negative_multiplicity():
    with pytest.raises(ValueError, match="not an eigenvalue multiset"):
        fs((1, 25), (5, -1), (4, 1)).cyclo()


def test_cyclo_degree_is_24_for_rows(data):
    for rec in data.classes.values():
        mult = rec.fs_g.cyclo()
        assert sum(a * brute.euler_phi(d) for d, a in mult.items()) == 24


def test_chi_values():
    assert fs((1, 24)).chi() == 24
    assert fs((2, 12)).chi() == 0
    assert fs((1, 8), (2, 8)).chi() == 8
    assert fs((3, 9), (1, -3)).chi() == -3


def test_chi_is_the_moebius_trace(data):
    for rec in data.classes.values():
        for shape in (rec.fs_g, rec.fs_neg_g):
            assert shape.chi() == brute.moebius_trace(shape), (rec.co0_name, str(shape))


def test_chi_negation(data):
    for rec in data.classes.values():
        assert rec.fs_neg_g.chi() == -rec.fs_g.chi()


def test_rank_equals_fixed_multiplicity(data):
    for rec in data.classes.values():
        assert rec.fs_g.rank == rec.fs_g.cyclo().get(1, 0)


def test_c_squared_oracle_values():
    assert c_squared_oracle(fs((1, 24))) == 4096 ** 2
    assert c_squared_oracle(fs((3, 9), (1, -3))) == 64
    assert c_squared_oracle(fs((1, 8), (2, 8))) == 0


def test_c_squared_odd_part_shortcut(data):
    # when every part is odd, the value is the characteristic polynomial
    # at -1, i.e. prod over parts of 2^k
    for rec in data.classes.values():
        if any(m % 2 == 0 for m, _ in rec.fs_g.factors):
            continue
        shortcut = Fraction(1)
        for _, k in rec.fs_g.factors:
            shortcut *= Fraction(2) ** k
        assert c_squared_oracle(rec.fs_g) == shortcut, rec.co0_name


def test_d_squared_oracle_values():
    assert d_squared_oracle(fs((4, 8), (2, -4)), 2) == 4096
    assert d_squared_oracle(fs((5, 5), (1, -1)), 2) == 3125
    assert d_squared_oracle(fs((2, 16), (1, -8)), 3) == 65536
    assert d_squared_oracle(fs((1, 24)), 7) == 1
    # extra fixed vectors force zero
    assert d_squared_oracle(fs((1, 24)), 2) == 0


def test_d_squared_oracle_too_small_space():
    with pytest.raises(ValueError, match="fixes too small a space"):
        d_squared_oracle(fs((4, 6)), 3)


def test_oracles_reproduce_every_table_constant(data):
    for rec in data.classes.values():
        assert rec.c_neg_g * rec.c_neg_g \
            == RadicalScalar.from_rational(c_squared_oracle(rec.fs_g))
        for ell, mag in rec.d_magnitude.items():
            assert mag * mag \
                == RadicalScalar.from_rational(d_squared_oracle(rec.fs_g, ell))


def test_d_signed_is_odd_in_the_sign(data):
    vanishing = rows = 0
    for rec in data.classes.values():
        for ell in rec.d_magnitude:
            key = (rec.co0_name, ell)
            plus = rec.d_signed(ell, 1)
            assert rec.d_signed(ell, -1) == -plus, key
            assert rec.d_signs(ell) == ((1,) if plus.is_zero else (1, -1)), key
            for sign in (0, 2):
                with pytest.raises(ValueError):
                    rec.d_signed(ell, sign)
            vanishing += plus.is_zero
            rows += 1
    assert 0 < vanishing < rows


def test_row_counts(data):
    assert len(data.classes) == 42
    per_ell = {ell: len(data.for_lambency(ell)) for ell in LAMBENCIES}
    assert per_ell[3] == 11
    assert per_ell[4] == 4
    assert per_ell[5] == 2
    assert per_ell[7] == 1
    only = data.for_lambency(7)[0]
    assert only.co0_name == "1A"
    assert only.d_magnitude[7] == RadicalScalar.from_rational(1)


def test_every_row_fixes_a_4_space(data):
    for rec in data.classes.values():
        assert rec.fs_g.cyclo().get(1, 0) >= 4


def test_corrupted_constant_fails_loading(data, tmp_path):
    raw = {"classes": []}
    for rec in data.classes.values():
        entry = {
            "co0": rec.co0_name, "co1": rec.co1_name,
            "pi_g": [list(p) for p in rec.fs_g.factors],
            "pi_neg_g": [list(p) for p in rec.fs_neg_g.factors],
            "c_neg_g": str(rec.c_neg_g),
            "d_mag": {str(k): str(v) for k, v in rec.d_magnitude.items()},
            "gamma_g": rec.gamma_g, "gamma_neg_g": rec.gamma_neg_g,
            "level": rec.level,
        }
        if rec.co0_name == "1A":
            entry["c_neg_g"] = "4095"
        raw["classes"].append(entry)
    (tmp_path / "classes.json").write_text(json.dumps(raw))
    (tmp_path / "coincidences.json").write_text(json.dumps({"relations": []}))
    with pytest.raises(DataError, match="row 1A.*c_neg_g"):
        load_class_data(str(tmp_path))


def test_corrupted_negation_fails_loading(data, tmp_path):
    raw = {"classes": [{
        "co0": "1A", "co1": "1A",
        "pi_g": [[1, 24]],
        "pi_neg_g": [[2, 24], [1, -24], [4, 24], [2, -48], [1, 24]],
        "c_neg_g": "4096", "d_mag": {"2": "0"},
        "gamma_g": "", "gamma_neg_g": "", "level": None,
    }]}
    (tmp_path / "classes.json").write_text(json.dumps(raw))
    (tmp_path / "coincidences.json").write_text(json.dumps({"relations": []}))
    with pytest.raises(DataError, match="pi_neg_g"):
        load_class_data(str(tmp_path))


@pytest.mark.parametrize("row, field, value, message", [
    ("2B", "pi_g", [[1, 8], [2, 7]],
     "row 2B, field pi_g: inconsistent frame shape: degree 22 != 24"),
    ("2B", "pi_g", [[1, 26], [2, -1]],
     "row 2B, field pi_g: not an eigenvalue multiset: multiplicity -1 at order 2"),
    ("2B", ("d_mag", "5"), "17",
     "row 2B, field d_mag[5]: 17 squared does not match the "
     "characteristic-polynomial value 256"),
    ("4D", ("d_mag", "3"), "0",
     "row 4D, field d_mag[3]: class fixes too small a space for lambency 3 (rank 4 < 8)"),
], ids=["pi_g-degree", "pi_g-negative-multiplicity", "d_mag-square", "d_mag-fixed-space"])
def test_row_failing_its_invariant_names_row_field_and_cause(tmp_path, row, field, value,
                                                             message):
    bundled = Path(conway.__file__).parent / "data" / "classes.json"
    entry = next(e for e in json.loads(bundled.read_text())["classes"] if e["co0"] == row)
    if isinstance(field, tuple):
        entry[field[0]][field[1]] = value
    else:
        entry[field] = value
    (tmp_path / "classes.json").write_text(json.dumps({"classes": [entry]}))
    (tmp_path / "coincidences.json").write_text(json.dumps({"relations": []}))
    with pytest.raises(DataError) as info:
        load_class_data(str(tmp_path))
    assert str(info.value) == message


def test_coincidence_counts(data):
    kinds = {}
    for rel in data.relations:
        kinds[rel.kind] = kinds.get(rel.kind, 0) + 1
    assert kinds["internal"] >= 16
    assert kinds["external"] >= 8
    internal_ell2 = [r for r in data.relations
                     if r.kind == "internal" and r.lambency == 2]
    assert len(internal_ell2) == 16
