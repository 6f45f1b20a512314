import importlib.util
import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from iwrank import cli
from iwrank.characters import DirichletCharacter
from iwrank.examples import EXAMPLES
from iwrank.newforms import (
    IngestionError,
    NewformData,
    bundled,
    _check_integrality,
    _parse_frac,
    bundled_labels,
    residual_eisenstein_partner,
)
from iwrank.numfield import NFElement, NumberField
from iwrank.qseries import check_congruence, mazur_eisenstein, sturm_bound


def test_bundled_labels():
    assert bundled_labels() == ["11.2.a.a", "19.2.a.a", "23.2.a", "52.2.a.a"]
    for _ in range(2):  # a failed load is not cached
        with pytest.raises(IngestionError, match="no bundled newform '37.2.a.a'"):
            bundled("37.2.a.a")


@pytest.mark.parametrize("label", bundled_labels())
def test_bundled_form_is_loaded_once_and_read_only(label):
    # one shared form per process, so no caller may change it
    f = bundled(label)
    assert bundled(label) is f
    with pytest.raises(TypeError):
        f.an[0] = 2
    with pytest.raises(TypeError):
        f.seed_root_mod_p[11] = 3


def test_bundled_rational_forms():
    f11 = bundled("11.2.a.a")
    assert (f11.level, f11.weight) == (11, 2)
    assert [f11.a(n) for n in (2, 3, 5, 7, 11, 13)] == [-2, -1, 1, -2, 1, 4]
    assert all(type(f11.a(n)) is Fraction for n in range(1, f11.n_max + 1))
    f19 = bundled("19.2.a.a")
    assert [f19.a(n) for n in (2, 3, 5, 7, 11)] == [0, -2, 3, -1, 3]
    f52 = bundled("52.2.a.a")
    assert [f52.a(n) for n in (2, 3, 5, 7, 11)] == [0, 0, 2, -2, -2]
    assert f11.is_rational and f52.is_rational


def test_bundled_quadratic_field_form():
    h = bundled("23.2.a")
    assert not h.is_rational
    assert h.field_poly == (-5, 0, 1)
    ideal = h.congruence_ideal(11)
    # Eisenstein at the degree-one prime: a_l = 1 + l
    for ell in (2, 3, 5, 7, 13):
        assert ideal.reduce(h.a(ell)) == (1 + ell) % 11, ell
    with pytest.raises(IngestionError):
        h.congruence_ideal(7)  # no seed stored above 7


def test_multiplicativity_guard():
    f = bundled("11.2.a.a")
    an = list(f.an)
    an[5] = an[5] + 1  # breaks a(2)a(3) = a(6)
    with pytest.raises(IngestionError):
        NewformData(f.label, f.level, f.weight, f.nebentypus,
                    f.field_poly, an)


def test_q_expansion_access():
    f = bundled("19.2.a.a")
    q = f.q_expansion(20)
    assert q.level == 19 and q.weight == 2
    assert q.a(0) == 0
    for n in range(1, 21):
        assert q.a(n) == f.a(n)
    with pytest.raises(IngestionError):
        f.q_expansion(10**6)
    with pytest.raises(IndexError):
        f.a(0)


OMEGA_AND_ONE = {p: (DirichletCharacter.teichmuller(p),
                     DirichletCharacter.trivial(1)) for p in (5, 11)}


def test_residual_pair_normalization():
    # xi2 ramified at p is refused
    omega = DirichletCharacter.teichmuller(5)
    with pytest.raises(ValueError, match="prime to p"):
        residual_eisenstein_partner(5, omega, omega, 11, 2, 30)


@pytest.mark.parametrize("label,p", [("11.2.a.a", 5), ("23.2.a", 11)])
def test_partner_congruence(label, p):
    h = bundled(label)
    g, m = residual_eisenstein_partner(p, *OMEGA_AND_ONE[p], h.level, 2, h.n_max)
    assert m == h.level
    # trivial theta route lands on the weight-2 combination of level p
    mz = mazur_eisenstein(p, h.n_max)
    for n in range(1, 30):
        assert g.a(n) == mz.a(n), n
    rep = check_congruence(h.q_expansion().deplete(p), g.deplete(p),
                           h.congruence_ideal(p), sturm_bound(2, h.level))
    assert rep.ok and rep.skipped == 0


@pytest.mark.parametrize("number", sorted(EXAMPLES))
def test_sturm_bounded_series_are_prefixes(number):
    # the bundled runs build the partner and the Mazur series only through
    # the Sturm bound: the same coefficients as the full-length series
    cfg = EXAMPLES[number]
    h, p, t = bundled(cfg["h"]), cfg["p"], cfg["mazur_t"]
    bound = sturm_bound(2, h.level)
    short = residual_eisenstein_partner(p, *OMEGA_AND_ONE[p], h.level, 2, bound)[0]
    full = residual_eisenstein_partner(p, *OMEGA_AND_ONE[p], h.level, 2, h.n_max)[0]
    assert short.coeffs == full.coeffs[:bound + 1]
    assert mazur_eisenstein(t, bound).coeffs == \
        mazur_eisenstein(t, h.n_max).coeffs[:bound + 1]
    assert h.q_expansion(bound).coeffs == h.q_expansion().coeffs[:bound + 1]


@pytest.mark.parametrize("entry", [
    "3", "-3", "0", "-0", "00012", "+3", " 3", "3 ", "\t-4", "3\n", "1_0",
    "1/2", "-5/2", "4/2", "3.0", "2.5", "1e3", "\u0661\u0662",
    3, -7, 0, True, 2.5, 3.0, 1e20, -0.125,
    "", "-", "--3", "1__0", "_1", "0x10", "1/0", " 1 / 2", "abc", "\u00b2",
    float("nan"),
])
def test_parse_frac_agrees_with_fraction(entry):
    try:
        want = Fraction(entry)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(IngestionError):
            _parse_frac(entry)
        return
    got = _parse_frac(entry)
    assert got == want and type(got) in (int, Fraction)
    if isinstance(entry, float):
        assert type(got) is Fraction  # never int(), which truncates


@pytest.mark.parametrize("entry", [None, [1], float("inf")])
def test_parse_frac_rejects_what_fraction_cannot_read(entry):
    with pytest.raises(IngestionError):
        _parse_frac(entry)


def _bundled_payload(label):
    root = Path(__file__).resolve().parent.parent
    return json.loads((root / "src" / "iwrank" / "data" / f"{label}.json").read_text())


def _last_entry_bad(payload, bad):
    """The payload with its last coefficient entry (or, for "short" and
    "scalar", its last vector) replaced."""
    an = payload["an"]
    if bad == "short":
        an[-1] = an[-1][:-1] or ["1", "0"]
    elif bad == "scalar":
        an[-1] = 5
    else:
        an[-1][-1] = bad
    return payload


_RATIONAL = ["11.2.a.a", "19.2.a.a", "52.2.a.a"]
_BAD_ENTRIES = [
    ("1/0", "bad coefficient entry '1/0'"), ("abc", "bad coefficient entry 'abc'"),
    ("short", "coefficient 600 has . entries"), ("scalar", "coefficient 600 is not a list"),
]


# a rational form's coefficients are integers, so 2.5 is bad for the
# rational ones.  Over Q(sqrt 5), (u + v sqrt 5)/2 with u = v mod 2 is an
# algebraic integer (23.2.a holds a(2) = (-1 - sqrt 5)/2), but its last
# a(600) = 5 + 10 sqrt 5 is none with the 10 made 1/3 or 2.5
@pytest.mark.parametrize("bad,message,label", [
    (bad, message, label) for label in _RATIONAL + ["23.2.a"]
    for bad, message in _BAD_ENTRIES] + [
    (bad, "coefficient 600 is not an integer: 5/2", label)
    for label in _RATIONAL for bad in (2.5, "5/2")] + [
    (bad, f"coefficient 600 is not an algebraic integer: entries 5, {value}", "23.2.a")
    for bad, value in (("1/3", "1/3"), (2.5, "5/2"))])
def test_bad_last_entry_fails_at_load(label, bad, message, tmp_path, capsys):
    payload = _last_entry_bad(_bundled_payload(label), bad)
    with pytest.raises(IngestionError, match=message):
        NewformData.from_dict(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["congruence", "--newform", str(path), "--prime", "5"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot ingest newform file {path}: ")


def _charpoly(nums, den, field):
    # det(t - M), M the matrix of multiplication by nums/den on the power
    # basis, by Faddeev-LeVerrier over the rationals
    value, d = NFElement(field, nums, den), field.degree
    cols = [(value * NFElement(field, [0] * j + [1], 1)).coeffs for j in range(d)]
    m = [[cols[j][i] for j in range(d)] for i in range(d)]
    coeffs, acc = [Fraction(1)], [[Fraction(0)] * d for _ in range(d)]
    for k in range(1, d + 1):
        acc = [[sum(m[i][t] * acc[t][j] for t in range(d)) + (coeffs[-1] if i == j else 0)
                for j in range(d)] for i in range(d)]
        coeffs.append(-sum(m[i][t] * acc[t][i] for i in range(d) for t in range(d)) / k)
    return coeffs


# x^2 - 5, and x^3 - 4x - 8 and x^4 - 8x - 16, whose root x is twice one
# of x^3 - x - 1 and x^4 - x - 1, so that x/2 is an algebraic integer
def test_huge_nebentypus_modulus_fails_at_load(tmp_path, capsys):
    payload = _bundled_payload("11.2.a.a")
    payload["nebentypus"] = "triv1000000000000000003"
    with pytest.raises(IngestionError, match="modulus 1000000000000000003 is above the bound"):
        NewformData.from_dict(payload)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["congruence", "--newform", str(path), "--prime", "5"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot ingest newform file {path}: ")


@pytest.mark.parametrize("poly", [(-5, 0, 1), (-8, -4, 0, 1), (-16, -8, 0, 0, 1)])
def test_integrality_is_that_of_the_characteristic_polynomial(poly):
    field, d = NumberField(poly), len(poly) - 1
    rng = random.Random(str(poly))
    fractional_integers = 0
    for _ in range(200):
        if rng.random() < 0.5:
            nums = tuple(rng.randrange(-20, 21) for _ in range(d))
            den = rng.choice([1, 2, 3, 4, 6, 9])
        else:
            # sum c_j (x/2)^j
            nums = tuple(rng.randrange(-9, 10) << (d - 1 - j) for j in range(d))
            den = 1 << (d - 1)
        integral = all(c.denominator == 1 for c in _charpoly(nums, den, field))
        if integral:
            _check_integrality([(nums, den)], field)
        else:
            with pytest.raises(IngestionError, match="coefficient 1 is not an algebraic"):
                _check_integrality([(nums, den)], field)
        fractional_integers += integral and gcd(den, *nums) < den
    # not only the plain integer vectors pass
    assert fractional_integers > 0


@pytest.mark.parametrize("label", ["11.2.a.a", "23.2.a"])
def test_float_entry_is_read_exactly(label):
    # a JSON float is a value Fraction reads exactly, never truncated; the
    # 23.2.a copy ends in a(600) = (5 + 5 sqrt 5)/2, an algebraic integer
    entry = 7.0 if label == "11.2.a.a" else 2.5
    payload = _last_entry_bad(_bundled_payload(label), entry)
    if label == "23.2.a":
        payload["an"][-1][0] = "5/2"
    f = NewformData.from_dict(payload)
    last = f.a(f.n_max)
    assert (last if f.is_rational else last.coeffs[-1]) == Fraction(entry)


@pytest.mark.parametrize("label", ["11.2.a.a", "19.2.a.a", "23.2.a", "52.2.a.a"])
def test_newform_file_matches_bundled(label, tmp_path):
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(_bundled_payload(label)))
    f, g = cli._load_newform(str(path)), bundled(label)
    assert all(f.a(n) == g.a(n) for n in range(1, g.n_max + 1))
    assert f.q_expansion().coeffs == g.q_expansion().coeffs


def test_partner_parity_guard():
    # an even pair at odd weight has no Eisenstein partner
    with pytest.raises(ValueError, match="parity"):
        residual_eisenstein_partner(5, DirichletCharacter.trivial(5),
                                    DirichletCharacter.trivial(1), 11, 3, 30)


def test_generator_reproduces_bundled_data(tmp_path, monkeypatch, capsys):
    # tools/generate_newform_data.py rebuilds src/iwrank/data byte for byte
    root = Path(__file__).resolve().parent.parent
    data = root / "src" / "iwrank" / "data"
    spec = importlib.util.spec_from_file_location(
        "generate_newform_data", root / "tools" / "generate_newform_data.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "OUT_DIR", str(tmp_path))
    gen.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in data.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes(), name
