from fractions import Fraction

import pytest

from credal.calibration import (
    ConvexityError,
    NARROWER,
    NOT_NARROWER,
    STRICTLY_NARROWER,
    check_calibration,
    equivalence_classes,
    ignore_rule,
    is_sharply_calibrated,
    narrower,
    partition_conditioning,
    refine_partition,
    refinement_fixpoint,
    sharp_partition,
    standard_conditioning,
    table_rule,
)
from credal.core import Partition, ProblemSpace, condition, credal_set, marginal_y
from credal.corpus import load_case
from credal.linprog import InternalCheckError, SizeLimitError
from credal.partitions import all_partitions, bell_number
from credal.polytope import polytope, set_equal
from credal.problemfile import parse_problem_file

from problems import (
    binary_space,
    diagonal_set,
    fixed_outcome_set,
    quadruple_set,
    seven_by_five_text,
    sharp_limit_text,
)

F = Fraction


def blurred_parity_set():
    """Hull of a perfectly informative joint and pure noise.

    Conditioning on either signal value dilates the Y-opinion to a
    segment, while both members share the uniform Y-marginal, so the
    one-cell partition is strictly narrower than the singletons even
    though both are calibrated.
    """
    space = binary_space()
    match = [[F(1, 2), 0], [0, F(1, 2)]]
    noise = [[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]]
    return credal_set(space, [match, noise], convex=True)


def test_bell_numbers():
    assert [bell_number(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    with pytest.raises(ValueError):
        bell_number(-1)


def test_all_partitions_order():
    parts = list(all_partitions(("a", "b", "c")))
    assert len(parts) == 5
    assert parts[0] == Partition.whole(("a", "b", "c"))
    assert parts[-1] == Partition.singletons(("a", "b", "c"))
    cells = [p.cells for p in parts]
    assert cells == [
        (("a", "b", "c"),),
        (("a", "b"), ("c",)),
        (("a", "c"), ("b",)),
        (("a",), ("b", "c")),
        (("a",), ("b",), ("c",)),
    ]
    with pytest.raises(ValueError):
        list(all_partitions(()))


def test_classes_quadruple_collapse():
    # both signal values produce the same two-point opinion set, so the
    # standard rule cannot tell them apart
    p = quadruple_set()
    part = equivalence_classes(standard_conditioning(), p)
    assert part == Partition.whole(("0", "1"))


def test_classes_diagonal_separate():
    p = diagonal_set()
    part = equivalence_classes(standard_conditioning(), p)
    assert part == Partition.singletons(("0", "1"))


def test_classes_ignore_always_whole():
    for p in (quadruple_set(), diagonal_set(), fixed_outcome_set()):
        assert equivalence_classes(ignore_rule(), p) == Partition.whole(("0", "1"))


def test_quadruple_standard_not_calibrated():
    # the class is all of X, and the prior Y-marginal holds a third
    # point (3/8, 5/8) missing from the per-signal opinion sets
    p = quadruple_set()
    rep = check_calibration(standard_conditioning(), p)
    assert rep.classes == Partition.whole(("0", "1"))
    assert len(rep.per_class) == 1
    cl = rep.per_class[0]
    assert set(cl.image.generators) == {(F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))}
    assert set(cl.posterior.generators) == {
        (F(1, 2), F(1, 2)),
        (F(1, 4), F(3, 4)),
        (F(3, 8), F(5, 8)),
    }
    assert not cl.forward
    assert cl.backward
    assert not rep.calibrated
    assert not rep.semi_calibrated


def test_fixed_outcome_standard_semi_only():
    # conditioning on one signal value frees the outcome completely:
    # the opinion sets are the whole simplex, the class posterior the
    # single fixed marginal
    p = fixed_outcome_set(F(1, 2))
    rep = check_calibration(standard_conditioning(), p)
    assert rep.classes == Partition.whole(("0", "1"))
    cl = rep.per_class[0]
    assert set_equal(cl.image, polytope([(1, 0), (0, 1)], convex=True))
    assert cl.posterior.generators == ((F(1, 2), F(1, 2)),)
    assert cl.forward and not cl.backward
    assert not rep.calibrated
    assert rep.semi_calibrated


def test_ignore_always_calibrated():
    for p in (quadruple_set(), diagonal_set(), fixed_outcome_set()):
        rep = check_calibration(ignore_rule(), p)
        assert rep.calibrated
        assert rep.excluded == ()


def test_diagonal_standard_calibrated():
    p = diagonal_set()
    rep = check_calibration(standard_conditioning(), p)
    assert rep.calibrated
    assert [cl.cell for cl in rep.per_class] == [("0",), ("1",)]
    assert rep.per_class[0].image.generators == ((F(1), F(0)),)
    assert rep.per_class[1].image.generators == ((F(0), F(1)),)


def test_table_rule_excluded_cell():
    # a table defined on one signal only: the other signal lands in the
    # excluded cell, and sharpness refuses to judge the rule
    p = diagonal_set()
    rule = table_rule({"0": condition(p, ("0",))})
    rep = check_calibration(rule, p)
    assert rep.excluded == (("1",),)
    assert [cl.cell for cl in rep.per_class] == [("0",)]
    assert rep.calibrated
    with pytest.raises(ValueError):
        is_sharply_calibrated(rule, p)


def test_a_table_rule_refuses_an_unknown_signal():
    # a key naming no signal would leave every signal undefined, and the
    # rule would read as calibrated with all of them excluded
    p = load_case("example-2.1").file.credal()
    with pytest.raises(ValueError, match="^unknown signal label 'nosuch'$"):
        check_calibration(table_rule({"nosuch": p}), p)
    with pytest.raises(ValueError, match="^unknown signal label 'nosuch'$"):
        table_rule({"0": p, "nosuch": p}).image_y(p, "0")


def test_a_dead_first_signal_keeps_its_place_in_the_classes():
    # the undefined cell sits at its first label, as every partition's
    # cells do, not last
    space = ProblemSpace(("a", "b", "c"), ("0", "1"), ("x", "y"))
    p = credal_set(space, [[[0, 0], [F(1, 2), 0], [0, F(1, 2)]]], convex=True)
    assert str(equivalence_classes(standard_conditioning(), p)) == "a|b|c"
    rep = check_calibration(standard_conditioning(), p)
    assert rep.excluded == (("a",),)
    assert [cl.cell for cl in rep.per_class] == [("b",), ("c",)]


def test_narrower_ignore_vs_standard():
    p = fixed_outcome_set()
    assert narrower(ignore_rule(), standard_conditioning(), p) == STRICTLY_NARROWER
    assert narrower(standard_conditioning(), ignore_rule(), p) == NOT_NARROWER
    assert narrower(standard_conditioning(), standard_conditioning(), p) == NARROWER


def test_narrower_diagonal():
    p = diagonal_set()
    assert narrower(standard_conditioning(), ignore_rule(), p) == STRICTLY_NARROWER
    assert narrower(ignore_rule(), standard_conditioning(), p) == NOT_NARROWER


def test_refine_requires_convex():
    with pytest.raises(ConvexityError):
        refine_partition(Partition.whole(("0", "1")), quadruple_set())


def test_refinement_fixpoints():
    whole = Partition.whole(("0", "1"))
    singles = Partition.singletons(("0", "1"))
    # informative signal: singletons are already stable
    assert refinement_fixpoint(diagonal_set()) == singles
    assert refine_partition(singles, diagonal_set()) == singles
    # uninformative opinion sets: singletons collapse to one cell
    assert refinement_fixpoint(fixed_outcome_set()) == whole
    assert refine_partition(whole, fixed_outcome_set()) == whole
    # a fixpoint reproduces itself through one more conditioning round
    for p in (diagonal_set(), fixed_outcome_set(), blurred_parity_set()):
        fix = refinement_fixpoint(p)
        assert refine_partition(fix, p) == fix
        assert check_calibration(partition_conditioning(fix), p).calibrated


def test_sharp_partition_fixed_outcome():
    part, cert = sharp_partition(fixed_outcome_set())
    assert part == Partition.whole(("0", "1"))
    assert cert.minimal == (Partition.whole(("0", "1")),)
    assert cert.calibrated_count == 1
    assert cert.examined == 2


def test_sharp_partition_diagonal():
    part, cert = sharp_partition(diagonal_set())
    assert part == Partition.singletons(("0", "1"))
    # the one-cell partition is calibrated too, but dilated
    assert cert.calibrated_count == 2
    assert cert.minimal == (Partition.singletons(("0", "1")),)


def test_sharp_partition_descends_past_fixpoint():
    # the refinement fixpoint keeps the signals apart, yet pooling them
    # is calibrated and strictly narrower; the search must walk on
    p = blurred_parity_set()
    assert refinement_fixpoint(p) == Partition.singletons(("0", "1"))
    part, cert = sharp_partition(p)
    assert part == Partition.whole(("0", "1"))
    assert cert.minimal == (Partition.whole(("0", "1")),)


def test_sharp_partition_product_set_all_minimal():
    # a single independent joint: every partition yields the same
    # one-point opinions, so all partitions are minimal and the
    # one-cell partition is among them
    space = binary_space()
    p = credal_set(space, [[[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]]], convex=True)
    part, cert = sharp_partition(p)
    assert part == Partition.whole(("0", "1"))
    assert len(cert.minimal) == cert.calibrated_count == cert.examined == 2


def test_sharp_partition_refuses_an_uncalibrated_fixpoint(monkeypatch):
    # a fixpoint that reads as not calibrated is a bug, named as one
    monkeypatch.setattr(
        "credal.calibration._fixpoint",
        lambda p: tuple(1 << i for i in range(p.space.nx)),
    )
    with pytest.raises(InternalCheckError, match="^refinement fixpoint should be calibrated$"):
        sharp_partition(fixed_outcome_set())


def test_sharp_partition_guards():
    with pytest.raises(ConvexityError):
        sharp_partition(quadruple_set())
    space = ProblemSpace(tuple(str(i) for i in range(9)), ("0", "1"), ("a", "b"))
    mass = [[F(1, 18), F(1, 18)] for _ in range(9)]
    big = credal_set(space, [mass], convex=True)
    with pytest.raises(SizeLimitError):
        sharp_partition(big)


@pytest.mark.parametrize(
    "text, conditioned",
    [
        # a witness among the first partitions: 66 of the 255 events
        (sharp_limit_text, 66),
        # sharp, so every partition of the 7 signals: all 127 events
        (seven_by_five_text, 127),
    ],
)
def test_the_sharpness_check_conditions_only_the_events_it_reaches(text, conditioned):
    # as `calibrate --rule standard --sharp` asks: the report, then the search
    p = parse_problem_file(text()).credal()
    rule = standard_conditioning()
    assert check_calibration(rule, p).calibrated
    is_sharply_calibrated(rule, p)
    assert len(p._events.posteriors) == conditioned


def test_ignore_not_sharp_on_diagonal():
    p = diagonal_set()
    v = is_sharply_calibrated(ignore_rule(), p)
    assert not v.sharp
    assert v.witness == Partition.singletons(("0", "1"))


def test_standard_sharp_on_diagonal():
    v = is_sharply_calibrated(standard_conditioning(), diagonal_set())
    assert v.sharp
    assert v.witness is None


def test_ignore_sharp_on_fixed_outcome():
    v = is_sharply_calibrated(ignore_rule(), fixed_outcome_set())
    assert v.sharp


def test_sharpness_needs_calibrated_rule():
    with pytest.raises(ValueError):
        is_sharply_calibrated(standard_conditioning(), fixed_outcome_set())


def test_partition_rule_roundtrip():
    # conditioning on the class partition reproduces the standard
    # rule's opinion sets signal by signal
    p = diagonal_set()
    classes = equivalence_classes(standard_conditioning(), p)
    rule = partition_conditioning(classes)
    for x in ("0", "1"):
        assert set_equal(
            rule.image_y(p, x), standard_conditioning().image_y(p, x)
        )
    assert rule.label() == "partition:0|1"
    assert check_calibration(rule, p).calibrated


def test_image_y_matches_marginal():
    p = quadruple_set()
    img = ignore_rule().image_y(p, "0")
    assert set_equal(img, marginal_y(p))
