"""Domain model: conditioning, marginals, hulls, rectangularity, dilation."""

import itertools
import random
from fractions import Fraction

import pytest

import credal.core
import credal.polytope
from credal.core import (
    DILATION_EVENT_LIMIT,
    CredalSet,
    JointDistribution,
    Partition,
    ProblemSpace,
    UndefinedConditionalError,
    c_condition,
    condition,
    credal_set,
    deterministic_rule,
    dilation_report,
    hull,
    is_conservative,
    is_rectangular,
    joint,
    joint_polytope,
    marginal_y,
    posterior_y,
    prune_credal,
    support_x,
    uniform_action,
)
from credal.corpus import load_corpus
from credal.linprog import SizeLimitError
from credal.polytope import member, prune, set_equal
from credal.problemfile import parse_problem_file
from credal.sampling import random_rule

from problems import (
    MIRROR_PAIR_CROSS,
    coin_pair_set,
    dead_signal_problems,
    diagonal_set,
    fixed_outcome_set,
    half_dead_signal_problem,
    mirror_pair_set,
    monty_set,
    noise_pair_set,
    opposite_outcomes_problem,
    quadruple_set,
    random_games,
    random_set_with_dead_signals,
    seven_by_five_text,
)

F = Fraction


def test_joint_validation():
    space = ProblemSpace(("0", "1"), ("0", "1"), ("a", "b"))
    with pytest.raises(ValueError):
        joint(space, [[F(1, 2), F(1, 2)], [F(1, 4), 0]])  # sums to 5/4
    with pytest.raises(ValueError):
        joint(space, [[F(3, 2), F(-1, 2)], [0, 0]])  # negative mass


def test_joint_checks_its_pair():
    space = ProblemSpace(("0", "1"), ("0", "1"), ("a", "b"))
    g = JointDistribution(space, ((1, 0, 1, 2), 4))
    assert g.mass == ((F(1, 4), F(0)), (F(1, 4), F(1, 2)))
    assert g == joint(space, [["1/4", 0], ["2/8", "1/2"]])
    for pair, message in (
        (((1, 0, 3), 4), "mass length != number of x labels times y labels"),
        (((2, 0, 2, 4), 8), "mass not in lowest terms over a positive denominator"),
        (((1, 1, 1, 1), -4), "mass not in lowest terms over a positive denominator"),
        (((-1, 1, 2, 2), 4), "negative probability mass"),
        (((1, 1, 1, 2), 4), "mass must sum to exactly 1, got 5/4"),
    ):
        with pytest.raises(ValueError) as info:
            JointDistribution(space, pair)
        assert str(info.value) == message


def test_an_unknown_label_is_named():
    p = diagonal_set()
    for call, message in (
        (lambda: posterior_y(p, ("zz",)), "unknown signal label 'zz'"),
        (lambda: condition(p, ["zz"]), "unknown signal label 'zz'"),
        (lambda: deterministic_rule(p.space, {"0": "zz", "1": "zz"}), "unknown action label 'zz'"),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_marginals_and_conditionals():
    g = mirror_pair_set().generators[0]
    assert g.x_marginal() == (F(1, 2), F(1, 2))
    assert g.y_marginal() == (F(2, 3), F(1, 3))
    assert g.conditional_y(0) == (F(2, 3), F(1, 3))


def test_marginal_y_polytope_of_fixed_outcome_set():
    m = marginal_y(fixed_outcome_set())
    assert m.generators == ((F(1, 3), F(2, 3)),)


def test_condition_gives_full_simplex_for_fixed_outcome_set():
    p = fixed_outcome_set()
    for x in ("0", "1"):
        proj = marginal_y(condition(p, [x]))
        assert set(proj.generators) == {(F(1), F(0)), (F(0), F(1))}


def test_condition_drops_zero_probability_generators():
    dp = half_dead_signal_problem()
    cond = condition(dp.credal, ["1"])
    assert len(cond.generators) == 1
    assert cond.generators[0].conditional_y(1) == (F(1, 2), F(2, 5), F(1, 10))


def test_condition_undefined_when_no_generator_sees_event():
    space = ProblemSpace(("0", "1"), ("0", "1"), ("a", "b"))
    p = credal_set(space, [[[F(1, 2), F(1, 2)], [0, 0]]], convex=True)
    with pytest.raises(UndefinedConditionalError):
        condition(p, ["1"])


def test_condition_reads_a_repeated_label_once():
    # the event is a set of signals, as in posterior_y
    for case in load_corpus():
        p = case.credal()
        for x in p.space.x_labels:
            if x not in support_x(p):
                with pytest.raises(UndefinedConditionalError):
                    condition(p, (x, x))
                continue
            twice = condition(p, (x, x))
            assert twice == condition(p, (x,))
            assert set(marginal_y(twice).points) == set(posterior_y(p, (x, x)).points)


def test_c_condition_routes_through_cells():
    p = fixed_outcome_set()
    part = Partition.whole(p.space.x_labels)
    whole = c_condition(p, part, "0")
    assert set_equal(joint_polytope(whole), joint_polytope(p))
    singles = Partition.singletons(p.space.x_labels)
    narrow = c_condition(p, singles, "0")
    assert support_x(narrow) == ("0",)


def test_monty_conditioning_matches_known_projection():
    p = monty_set()
    proj = marginal_y(condition(p, ["G2"]))
    assert set(proj.generators) == {
        (F(0), F(0), F(1)),
        (F(1, 2), F(0), F(1, 2)),
    }


def test_posterior_y_matches_conditioning_then_projecting():
    # oracle: condition in joint space, then project to Y
    seen = {"dead": 0, "multi": 0, "convex": 0, "finite": 0}
    for seed in range(60):
        rng = random.Random(seed)
        convex = seed % 2 == 0
        p, _dead = random_set_with_dead_signals(rng, convex)
        seen["convex" if convex else "finite"] += 1
        labels = p.space.x_labels
        cells = [
            c for size in range(1, len(labels) + 1) for c in itertools.combinations(labels, size)
        ]
        for cell in cells:
            got = posterior_y(p, cell)
            try:
                want = marginal_y(condition(p, cell))
            except UndefinedConditionalError:
                assert got is None, (seed, cell)
                assert not set(cell) & set(support_x(p))
                seen["dead"] += 1
                continue
            assert got is not None, (seed, cell)
            assert got.convex == convex and got.dimension == p.space.ny
            assert set_equal(got, want), (seed, cell)
            assert set(got.generators) == set(want.generators), (seed, cell)
            seen["multi"] += len(cell) > 1
    assert min(seen.values()) >= 20, seen


def _segment_sets(rng, count):
    """Seeded sets whose generators are mixtures of two random joints
    over 4 signals and 3 outcomes, finite and convex in turn.  Every set
    built from them, joint or conditioned, lies on one segment, so its
    membership questions need no LP (whose certificate is in Fractions)."""
    space = ProblemSpace(tuple("x%d" % i for i in range(4)), ("y0", "y1", "y2"), ("a", "b"))
    sets = []
    for k in range(count):
        ends = []
        for _ in range(2):
            w = [[rng.randint(0, 3) for _ in range(3)] for _ in range(4)]
            w[0][0] += 1
            ends.append([[F(v, sum(map(sum, w))) for v in row] for row in w])
        ts = [F(rng.randint(0, 4), 4) for _ in range(rng.randint(3, 6))]
        masses = [
            [[t * u + (1 - t) * v for u, v in zip(ra, rb)] for ra, rb in zip(*ends)] for t in ts
        ]
        sets.append(credal_set(space, masses, k % 2 == 0))
    return sets


def _count_fractions_and_pairs(monkeypatch):
    """Counts of ``Fraction``s built and of ``common_denominator`` calls in
    core and polytope, until ``monkeypatch.undo()``."""
    calls = {"Fraction": 0, "common_denominator": 0}
    new, pair = Fraction.__new__, credal.core.common_denominator

    def counted_new(cls, *args, **kwargs):
        calls["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counted_pair(values):
        calls["common_denominator"] += 1
        return pair(values)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    for module in (credal.core, credal.polytope):
        monkeypatch.setattr(module, "common_denominator", counted_pair)
    return calls


def test_y_sets_and_joint_sets_build_no_fraction(monkeypatch):
    """A polytope stores lowest-terms pairs: conditioning every cell,
    joint_polytope, prune and prune_credal build no ``Fraction`` and turn
    no point into its pair again."""
    sets = _segment_sets(random.Random(3401), 30)
    calls = _count_fractions_and_pairs(monkeypatch)
    pruned = []
    for p in sets:
        for size in range(1, 5):
            for cell in itertools.combinations(p.space.x_labels, size):
                posterior_y(p, cell)
        joint_set = joint_polytope(p)
        pruned.append((joint_set, prune(joint_set), prune_credal(p)))
    monkeypatch.undo()
    assert calls == {"Fraction": 0, "common_denominator": 0}
    assert sum(len(kept.points) < len(whole.points) for whole, kept, _ in pruned) >= 10
    for _, kept, joints in pruned:
        assert tuple(g.flatten() for g in joints.generators) == kept.generators


def test_hull_and_a_file_s_credal_set_build_no_fraction(monkeypatch):
    """A joint stores its lowest-terms pair: a parsed file's credal set
    checks no mass again, and hull builds each product from the
    marginals' and conditionals' integers."""
    files = [case.file for case in load_corpus()] + [parse_problem_file(seven_by_five_text())]
    calls = _count_fractions_and_pairs(monkeypatch)
    hulls = [hull(pf.credal()) for pf in files]
    monkeypatch.undo()
    assert calls == {"Fraction": 0, "common_denominator": 0}
    # each 7x5 product, read in Fractions, is a marginal q times conditionals R_x
    p, products = files[-1].credal(), hulls[-1].generators
    marginals = {g.x_marginal() for g in p.generators}
    assert len(products) == 6561
    for g in products:
        q = g.x_marginal()
        assert q in marginals
        for i, row in enumerate(g.mass):
            assert tuple(v / q[i] for v in row) in p.conditionals[i].generators


def test_posterior_y_rejects_an_empty_cell():
    with pytest.raises(ValueError):
        posterior_y(coin_pair_set(), ())


def test_posterior_y_conditions_each_event_once_in_any_label_order(monkeypatch):
    # the event is the set of its signals: label order and repeats name the same event
    calls = []
    compute = credal.core._cell_points

    def counted(p, idx):
        calls.append(tuple(idx))
        return compute(p, idx)

    monkeypatch.setattr(credal.core, "_cell_points", counted)
    for seed in range(20):
        p, _dead = random_set_with_dead_signals(random.Random(seed), seed % 2 == 0)
        labels = p.space.x_labels
        for size in range(1, len(labels) + 1):
            for cell in itertools.combinations(labels, size):
                calls.clear()
                first = posterior_y(p, cell[::-1])
                assert posterior_y(p, cell) is first
                assert posterior_y(p, cell + cell[:1]) is first
                assert posterior_y(p, iter(cell)) is first
                assert len(calls) == 1, (seed, cell)
        assert marginal_y(p) is posterior_y(p, labels[::-1])


def test_hull_contains_cross_product_member():
    p = mirror_pair_set(convex=False)
    h = hull(p)
    probe = tuple(v for row in MIRROR_PAIR_CROSS for v in row)
    assert not member(probe, joint_polytope(p))
    assert member(probe, joint_polytope(h))


def test_hull_of_noise_pair_contains_swapped_conditional():
    eps = F(1, 10)
    p = noise_pair_set(eps)
    swapped = (
        (1 - eps) ** 2,
        eps * (1 - eps),
        eps**2,
        eps * (1 - eps),
    )
    assert not member(swapped, joint_polytope(p))
    assert member(swapped, joint_polytope(hull(p)))


def test_fixed_outcome_set_hull_is_everything():
    p = fixed_outcome_set()
    h = hull(p)
    for corner in range(4):
        point = tuple(F(1) if i == corner else F(0) for i in range(4))
        assert member(point, joint_polytope(h))
    assert not is_rectangular(p)


def test_rectangularity_of_known_sets():
    assert is_rectangular(half_dead_signal_problem().credal)
    assert is_rectangular(quadruple_set())
    assert is_rectangular(diagonal_set())
    assert not is_rectangular(mirror_pair_set())
    assert not is_rectangular(monty_set())
    assert not is_rectangular(opposite_outcomes_problem().credal)


def test_hull_is_idempotent_on_known_sets():
    for p in (
        mirror_pair_set(),
        fixed_outcome_set(),
        monty_set(),
        quadruple_set(),
        coin_pair_set(),
    ):
        h = hull(p)
        assert set_equal(joint_polytope(hull(h)), joint_polytope(h))


def test_conservativeness():
    assert is_conservative(opposite_outcomes_problem().credal)
    assert is_conservative(quadruple_set())
    assert not is_conservative(half_dead_signal_problem().credal)
    assert not is_conservative(diagonal_set())


def test_support_x():
    assert support_x(half_dead_signal_problem().credal) == ("0", "1")
    space = ProblemSpace(("0", "1"), ("0", "1"), ("a", "b"))
    p = credal_set(space, [[[F(1, 2), F(1, 2)], [0, 0]]], convex=True)
    assert support_x(p) == ("0",)


def test_credal_set_keeps_the_first_of_equal_joints_written_differently():
    space = ProblemSpace(("x0", "x1"), ("y0", "y1"), ("a0", "a1"))
    first = joint(space, ((1, 0), (0, 0)))
    again = joint(space, [["1", "0"], ["0/3", "0"]])
    half = joint(space, [["1/2", "0"], ["0", "1/2"]])
    halves = joint(space, ((Fraction(2, 4), 0), (Fraction(0), Fraction(3, 6))))
    p = CredalSet(space, (first, half, again, halves), True)
    assert len(p.generators) == 2
    assert p.generators[0] is first and p.generators[1] is half


def test_dilation_on_coin_pair():
    rep = dilation_report(coin_pair_set())
    row = rep.row_for(["H"])
    assert row.prior == (F(1, 2), F(1, 2))
    assert dict(row.posteriors) == {"H": (F(0), F(1)), "T": (F(0), F(1))}
    assert row.dilates
    assert rep.dilating_events() == (("H",), ("T",))


def test_row_for_refuses_a_bare_string():
    # iterated, "10" would name the event 0,1 over the outcomes 0-4
    rep = dilation_report(parse_problem_file(seven_by_five_text()).credal())
    with pytest.raises(ValueError, match="got the string '10'"):
        rep.row_for("10")
    assert rep.row_for(["1", "0"]).event == ("0", "1")


def test_dilation_on_fixed_outcome_set():
    rep = dilation_report(fixed_outcome_set())
    row = rep.row_for(["1"])
    assert row.prior == (F(2, 3), F(2, 3))
    assert dict(row.posteriors) == {"0": (F(0), F(1)), "1": (F(0), F(1))}
    assert row.dilates


def test_no_dilation_for_product_set():
    space = ProblemSpace(("0", "1"), ("0", "1"), ("a", "b"))
    prod = credal_set(
        space,
        [
            [[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]],
            [[F(1, 3), F(1, 6)], [F(1, 3), F(1, 6)]],
        ],
        convex=True,
    )
    rep = dilation_report(prod)
    assert rep.dilating_events() == ()


def _uniform_set(nx, ny, live):
    """One generator spreading its mass evenly over the first ``live`` signals."""
    space = ProblemSpace(tuple(map(str, range(nx))), tuple(map(str, range(ny))), ("a", "b"))
    mass = [[F(1, live * ny) if i < live else F(0)] * ny for i in range(nx)]
    return credal_set(space, [mass], True)


def test_dilation_report_counts_its_intervals_before_building_them():
    # (2^ny - 2) proper events, each with one prior and one interval per
    # live signal: 3 signals, one dead, over 15 outcomes is under the limit
    assert (2**15 - 2) * 3 <= DILATION_EVENT_LIMIT < (2**15 - 2) * 4
    rep = dilation_report(_uniform_set(3, 15, live=2))
    assert len(rep.rows) == 2**15 - 2 and rep.dilating_events() == ()
    count = (2**16 - 2) * 2
    with pytest.raises(
        SizeLimitError,
        match="^dilation intervals limited to %d, got %d$" % (DILATION_EVENT_LIMIT, count),
    ):
        dilation_report(_uniform_set(1, 16, live=1))


def test_dilation_reads_the_conditioned_points_without_pruning(monkeypatch):
    # each interval over a live signal's unpruned conditioned points equals
    # the one over its pruned conditional set: an extremum of a linear
    # function over a hull is reached at a generator
    sets = [c.credal() for c in load_corpus()] + [
        parse_problem_file(seven_by_five_text()).credal(),
        random_set_with_dead_signals(random.Random(3), True)[0],
        random_set_with_dead_signals(random.Random(4), False)[0],
    ]
    pruned = []
    monkeypatch.setattr(credal.core, "prune", lambda s: pruned.append(s) or prune(s))
    for p in sets:
        rep = dilation_report(p)
        assert pruned == []
        space = p.space
        for row in rep.rows:
            ev = [space.y_labels.index(y) for y in row.event]
            for x, interval in row.posteriors:
                vals = [sum(q[j] for j in ev) for q in posterior_y(p, [x]).generators]
                assert interval == (min(vals), max(vals))
        pruned.clear()


def test_the_prior_game_layout_is_one_action_block_per_live_signal():
    rng = random.Random(0)
    problems = list(random_games(200))
    problems += [dp for pair in dead_signal_problems(300) for dp in pair]
    for dp in problems:
        space, live = dp.space, dp.credal.live
        assert dp.widths == [space.na] * len(live)
        # the k blocks laid end to end are the rows
        assert len(dp.loss_blocks) == len(live)
        assert [
            (tuple(v for b, _ in row for v in b), row[0][1]) for row in zip(*dp.loss_blocks)
        ] == [(tuple(r), d) for r, d in dp.loss_rows]
        # columns -> rule keeps a rule at its live signals, uniform at the dead
        rule = random_rule(rng, space)
        back = dp.column_rule(dp.columns(rule))
        assert len(dp.columns(rule)) == sum(dp.widths)
        for xi in range(space.nx):
            want = rule.per_x[xi] if xi in live else uniform_action(space)
            assert back.per_x[xi] == want
        assert dp.columns(back) == dp.columns(rule)


def test_partition_canonical_form_and_parsing():
    labels = ("a", "b", "c")
    part = Partition(labels, (("c",), ("b", "a")))
    assert part.cells == (("a", "b"), ("c",))
    assert str(part) == "a,b|c"
    assert Partition.from_string(labels, "c|b,a") == part
    with pytest.raises(ValueError):
        Partition(labels, (("a", "b"),))  # misses c
    with pytest.raises(ValueError):
        Partition(labels, (("a", "b"), ("b", "c")))  # overlap


def test_credal_set_dedups_generators():
    p = credal_set(
        binary := ProblemSpace(("0", "1"), ("0", "1"), ("a", "b")),
        [
            [[F(1, 2), F(1, 2)], [0, 0]],
            [[F(1, 2), F(1, 2)], [0, 0]],
        ],
        convex=True,
    )
    assert binary is p.space
    assert len(p.generators) == 1
