import json
import random
import re
import sys
from fractions import Fraction

import pytest

from credal.core import ProblemSpace, joint, posterior_y
from credal.corpus import corpus_ids, corpus_text
from credal.problemfile import (
    ProblemFile,
    ProblemFileError,
    load_problem_file,
    parse_problem_file,
    problem_file_from,
    render_problem_file,
)

from credal.rationals import pair_text, rat_matrix

from problems import monty_problem, prediction_problem, seven_by_five_text

F = Fraction


def doc(**overrides):
    base = {
        "x_labels": ["0", "1"],
        "y_labels": ["0", "1"],
        "actions": ["0", "1"],
        "convex": True,
        "generators": [[["1/3", "2/3"], ["0", "0"]]],
        "loss": [["0", "1"], ["1", "0"]],
    }
    base.update(overrides)
    return json.dumps(base)


def test_parse_basic():
    pf = parse_problem_file(doc())
    assert tuple(g.mass for g in pf.generators) == (((F(1, 3), F(2, 3)), (F(0), F(0))),)
    assert pf.loss == ((F(0), F(1)), (F(1), F(0)))
    dp = pf.problem()
    assert dp.space.actions == ("0", "1")


def test_each_credal_set_is_new_over_the_parsed_joints():
    # the joints are checked once, when parsed; the sets share no conditioning
    pf = parse_problem_file(doc(generators=[[["1/3", "1/6"], ["1/6", "1/3"]], [["1/2", "0"], ["0", "1/2"]]]))
    first, second = pf.credal(), pf.credal()
    assert first is not second
    assert all(a is b for a, b in zip(first.generators, pf.generators))
    assert pf.space() is first.space is pf.generators[0].space
    posterior_y(first, ("0",))
    assert first._events.posteriors and not second._events.posteriors
    assert not pf.credal()._events.posteriors


def test_one_action_is_rejected():
    with pytest.raises(ProblemFileError, match="'actions': .*at least two actions"):
        parse_problem_file(doc(actions=["go"], loss=[["0"], ["1"]]))
    with pytest.raises(ProblemFileError, match="'actions'"):
        parse_problem_file(doc(actions=["go"], loss=None))


def test_loss_is_optional():
    pf = parse_problem_file(doc(loss=None))
    assert pf.loss is None
    with pytest.raises(ProblemFileError, match="loss"):
        pf.problem()
    pf.credal()


def test_aux_keys_are_tolerated():
    text = json.loads(doc())
    text["id"] = "something"
    text["note"] = "free text"
    text["expectations"] = []
    parse_problem_file(json.dumps(text))


def test_unknown_field_is_named():
    text = json.loads(doc())
    text["generatros"] = []
    with pytest.raises(ProblemFileError, match="generatros"):
        parse_problem_file(json.dumps(text))


def test_bad_rational_is_named():
    with pytest.raises(ProblemFileError, match="generators\\[0\\]"):
        parse_problem_file(doc(generators=[[["1/3", "x"], ["0", "0"]]]))
    with pytest.raises(ProblemFileError, match="loss"):
        parse_problem_file(doc(loss=[["0", "1.5"], ["1", "0"]]))


def test_float_rejected_even_as_json_number():
    text = json.loads(doc())
    text["generators"] = [[[0.3333, "2/3"], ["0", "0"]]]
    with pytest.raises(ProblemFileError):
        parse_problem_file(json.dumps(text))


def test_mass_must_sum_to_one():
    with pytest.raises(ProblemFileError, match=r"generators\[0\].*sum to exactly 1"):
        parse_problem_file(doc(generators=[[["1/3", "1/3"], ["0", "0"]]]))


def test_negative_mass_rejected():
    with pytest.raises(ProblemFileError, match="negative"):
        parse_problem_file(doc(generators=[[["4/3", "-1/3"], ["0", "0"]]]))


def test_shape_errors_are_named():
    with pytest.raises(ProblemFileError, match="row 0"):
        parse_problem_file(doc(generators=[[["1"], ["0", "0"]]]))
    with pytest.raises(ProblemFileError, match="x_labels"):
        parse_problem_file(doc(x_labels=[]))
    with pytest.raises(ProblemFileError, match="convex"):
        parse_problem_file(doc(convex="yes"))


def test_not_json():
    with pytest.raises(ProblemFileError, match="JSON"):
        parse_problem_file("{nope")


# Python 3.10 builds before 3.10.7 read integers of any length.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this Python reads integers of any length"
)


def test_too_deep_a_document_is_not_valid_json():
    with pytest.raises(ProblemFileError, match="^not valid JSON: .*recursion"):
        parse_problem_file("[" * 200_000)


@needs_digit_limit
def test_too_long_an_integer_literal_is_not_valid_json():
    for digits in ("1" * (DIGIT_LIMIT + 1), "-" + "9" * (DIGIT_LIMIT + 1)):
        text = doc().replace('"convex": true', '"convex": ' + digits)
        with pytest.raises(ProblemFileError) as err:
            parse_problem_file(text)
        assert str(err.value) == "not valid JSON: a number of %d digits is too long" % (
            DIGIT_LIMIT + 1
        )


@needs_digit_limit
def test_too_long_a_rational_string_names_the_field():
    big = "1" + "0" * DIGIT_LIMIT
    for text, field in (
        (doc(generators=[[[big, "0"], ["0", "0"]]]), "generators[0]"),
        (doc(loss=[["0", "1/" + big], ["1", "0"]]), "loss"),
    ):
        with pytest.raises(ProblemFileError) as err:
            parse_problem_file(text)
        message = str(err.value)
        assert message.startswith("field %r: " % field), message
        assert big not in message


def test_a_file_that_is_not_utf8_cannot_be_read(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe{}")
    start = "^cannot read %s: 'utf-8' codec" % re.escape(str(path))
    with pytest.raises(ProblemFileError, match=start):
        load_problem_file(path)


def test_rational_grammar():
    def loss_of(entry):
        return parse_problem_file(doc(loss=[[entry, "1"], ["1", "0"]])).loss[0][0]

    # "p" or "p/q" with q > 0 written without a sign or leading zero,
    # or a JSON integer; values are reduced on reading
    assert loss_of("2/4") == F(1, 2)
    assert loss_of("-0") == 0
    assert loss_of(-7) == -7 and loss_of(12) == 12
    for entry in ("1/0", "1.5", "+1", "1/-2"):
        with pytest.raises(ProblemFileError, match="'loss': not a rational"):
            loss_of(entry)


def _corpus_texts():
    texts = [corpus_text(cid) for cid in corpus_ids()]
    assert len(texts) == 12
    return texts


def test_reading_adds_no_fractions(monkeypatch):
    # the mass check is core's, in integers
    def no_sums(self, other):
        raise AssertionError("Fraction addition while reading")

    monkeypatch.setattr(Fraction, "__add__", no_sums)
    monkeypatch.setattr(Fraction, "__radd__", no_sums)
    for text in _corpus_texts():
        parse_problem_file(text)


def test_reading_parses_no_string_twice(monkeypatch):
    # _ratio reads the integers its own pattern captured
    new = Fraction.__new__

    def no_strings(cls, numerator=0, denominator=None, **kw):
        assert not isinstance(numerator, str), numerator
        return new(cls, numerator, denominator, **kw)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(no_strings))
    for text in _corpus_texts():
        parse_problem_file(text)


def test_reading_builds_no_fraction_without_a_loss(monkeypatch):
    # a generator's entries go straight to its joint's integer pair
    texts = [seven_by_five_text()]
    for text in _corpus_texts():
        d = json.loads(text)
        d.pop("loss", None)
        texts.append(json.dumps(d))
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kw):
        built.append(args)
        return new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for text in texts:
        parse_problem_file(text)
    assert built == []


def _written(rng, value):
    """``value`` (a Fraction) as a problem file may write it: reduced or
    not, as a JSON integer, and zero as ``"-0"`` or ``"0/q"``."""
    if value == 0:
        return rng.choice([0, "0", "-0", "0/%d" % rng.randint(1, 9)])
    if value.denominator == 1 and rng.random() < 0.5:
        return int(value)
    m = rng.choice([1, 1, 2, 3, 2**70 + 1])
    return "%d/%d" % (value.numerator * m, value.denominator * m)


def test_parsed_pairs_equal_the_joints_of_the_rationals():
    rng = random.Random(3601)
    for _ in range(300):
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        top = rng.choice([3, 50, 2**80])  # numerators past 64 bits
        weights = [[rng.randint(0, top) for _ in range(ny)] for _ in range(nx)]
        weights[rng.randrange(nx)] = [0] * ny  # an all-zero row
        if rng.random() < 0.2:  # all mass in one cell: 0s and a 1 as JSON integers
            weights = [[0] * ny for _ in range(nx)]
        weights[rng.randrange(nx)][rng.randrange(ny)] += 1
        total = sum(map(sum, weights))
        rows = [[_written(rng, Fraction(w, total)) for w in row] for row in weights]
        text = json.dumps({
            "x_labels": [str(i) for i in range(nx)],
            "y_labels": [str(j) for j in range(ny)],
            "actions": ["0", "1"],
            "convex": True,
            "generators": [rows],
        })
        (g,) = parse_problem_file(text).generators
        assert g.pair == joint(g.space, rat_matrix(rows)).pair, rows


def test_pair_text_is_the_text_of_each_fraction():
    rng = random.Random(3602)
    for _ in range(500):
        den = rng.choice([1, 2, 6, rng.randint(1, 10**6), 2**70 + rng.randint(0, 9)])
        nums = [rng.randint(-3 * den, 3 * den) for _ in range(4)] + [0, den, -den]
        assert pair_text(nums, den) == [str(Fraction(v, den)) for v in nums]


def test_a_byte_order_mark_is_reported_as_json_reports_it():
    with pytest.raises(ProblemFileError) as err:
        parse_problem_file("\ufeff" + doc())
    assert str(err.value) == (
        "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    )


def test_roundtrip_with_and_without_loss():
    for dp in (prediction_problem(), monty_problem(F(1, 10))):
        pf = problem_file_from(dp.credal, dp.loss)
        again = parse_problem_file(render_problem_file(pf))
        assert again == pf
    credal_only = problem_file_from(prediction_problem().credal)
    assert parse_problem_file(render_problem_file(credal_only)) == credal_only


def _hand_built(value):
    space = ProblemSpace(("0",), ("0", "1"), ("0", "1"))
    return ProblemFile(
        convex=True,
        generators=(joint(space, [[value, F(1, 2)]]),),
        loss=((F(0), 1), ("-3/6", F(2, 3))),
    )


def test_hand_built_values_render_reduced():
    doc = json.loads(render_problem_file(_hand_built("2/4")))
    assert doc["generators"] == [[["1/2", "1/2"]]]
    assert doc["loss"] == [["0", "1"], ["-1/2", "2/3"]]


def test_hand_built_float_is_refused():
    with pytest.raises(TypeError, match="refusing float 0.5"):
        render_problem_file(_hand_built(0.5))
