"""Classes, calibration, narrowness and sharpness, read through each
credal set's own conditioning cache: against the paths they replaced,
under transforms of the set that must map every answer back, and on a
set every other question has used against a fresh one."""

import gc
import random
import time
import weakref
from collections import Counter
from fractions import Fraction

import credal.calibration as calibration
import credal.core
import credal.polytope
from credal.calibration import (
    check_calibration,
    ignore_rule,
    partition_conditioning,
    standard_conditioning,
    table_rule,
)
from credal.core import (
    CredalSet,
    Partition,
    ProblemSpace,
    UndefinedConditionalError,
    condition,
    credal_set,
    hull,
)
from credal.corpus import load_corpus
from credal.linprog import SizeLimitError
from credal.partitions import all_partitions, bell_number, cell_masks
from credal.sampling import simplex_point

import calibration_oracle
from problems import sharp_limit_set

F = Fraction


def _space(nx, ny):
    return ProblemSpace(
        tuple("x%d" % i for i in range(nx)),
        tuple("y%d" % i for i in range(ny)),
        ("a0", "a1"),
    )


def _random_set(rng, nx, convex=True, ny=None, k=None):
    """Random set over ``nx`` signals with ``k`` or 1-4 generators.  Some signals
    are dead; some take another signal's conditionals, from the same
    generator or rotated by one generator (so their posteriors coincide
    while the pooled one may not); in some every generator has the same
    conditionals; some generators repeat, and some sets are replaced by
    their hull when it is small."""
    ny = ny or rng.randint(2, 3)
    space = _space(nx, ny)
    dead = set(rng.sample(range(nx), rng.choice((0, 0, 1, nx - 1))))
    live = [i for i in range(nx) if i not in dead]
    masses = []
    for _ in range(k or rng.randint(1, 4)):
        flat = iter(simplex_point(rng, len(live) * ny))
        masses.append([[F(0)] * ny if i in dead else [next(flat) for _ in range(ny)] for i in range(nx)])
    if len(live) > 1 and rng.random() < 0.6:
        a, b = rng.sample(live, 2)
        shift = rng.randint(0, 1)
        for j, rows in enumerate(masses):
            source = masses[(j + shift) % len(masses)][a]
            if sum(source):
                rows[b] = [sum(rows[b]) / sum(source) * v for v in source]
    if rng.random() < 0.3:
        # every generator takes the first one's conditionals, and some
        # put all their mass on one signal, so conditioning narrows
        first = masses[0]
        for rows in masses[1:]:
            for i in live:
                if sum(first[i]):
                    rows[i] = [sum(rows[i]) / sum(first[i]) * v for v in first[i]]
        for i in live:
            if sum(first[i]) and rng.random() < 0.8:
                point = [v / sum(first[i]) for v in first[i]]
                masses.append([point if j == i else [F(0)] * ny for j in range(nx)])
    if rng.random() < 0.2:
        masses.append(rng.choice(masses))
    p = credal_set(space, masses, convex)
    if rng.random() < 0.3:
        # hulls of up to 16 generators keep the pruning LPs small
        try:
            h = hull(p)
        except SizeLimitError:
            return p
        if len(h.generators) <= 16:
            return h
    return p


def _fresh(p):
    """The same set as a new object, so with nothing conditioned yet."""
    return CredalSet(p.space, p.generators, p.convex)


def _rules(rng, p):
    """Standard, ignore, two partition conditionings and a table rule
    that copies conditioned sets at some signals and is undefined at
    the others."""
    labels = p.space.x_labels
    parts = list(all_partitions(labels))
    table = {}
    for x in labels:
        if rng.random() < 0.7:
            cell = rng.choice(parts).cell_of(x)
            try:
                table[x] = condition(p, cell)
            except UndefinedConditionalError:
                continue
    rules = [
        standard_conditioning(),
        ignore_rule(),
        partition_conditioning(rng.choice(parts)),
        partition_conditioning(rng.choice(parts)),
    ]
    if table:
        rules.append(table_rule(table))
    return rules


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:
        return type(e).__name__, str(e)


def _agree(name, *args):
    new = _outcome(getattr(calibration, name), *args)
    old = _outcome(getattr(calibration_oracle, name), *args)
    assert new == old, (name, args)
    return new


def test_random_reports_match_the_oracle():
    rng = random.Random(2014)
    calibrated = 0
    for trial in range(45):
        p = _random_set(rng, rng.randint(2, 5), convex=trial % 6 != 0)
        rules = _rules(rng, p)
        for rule in rules:
            _agree("equivalence_classes", rule, p)
            report = _agree("check_calibration", rule, p)
            calibrated += getattr(report, "calibrated", False)
        for r1 in rules:
            _agree("narrower", r1, rng.choice(rules), p)
        start = rng.choice(list(all_partitions(p.space.x_labels)))
        _agree("refinement_fixpoint", p)
        _agree("refine_partition", start, p)
        if p.convex:
            # the oracle's fixpoint from ``start``, reached by refinement steps
            current = start
            while (refined := calibration.refine_partition(current, p)) != current:
                current = refined
            assert current == calibration_oracle.refinement_fixpoint(p, start)
    assert calibrated > 40


def test_random_sharpness_matches_the_oracle():
    rng = random.Random(1401)
    not_sharp = 0
    for trial in range(30):
        p = _random_set(rng, rng.choice((2, 3, 3, 4, 4, 5)), convex=trial % 10 != 0)
        _agree("sharp_partition", p)
        for rule in _rules(rng, p):
            verdict = _agree("is_sharply_calibrated", rule, p)
            not_sharp += getattr(verdict, "witness", None) is not None
    assert not_sharp > 5


def test_sharpness_at_six_and_seven_signals_matches_the_oracle():
    rng = random.Random(4)
    narrowed = 0
    for nx, ny in ((6, 2), (6, 3), (7, 2), (7, 3)):
        p = _random_set(rng, nx, ny=ny)
        _, cert = _agree("sharp_partition", p)
        narrowed += len(cert.minimal) < cert.calibrated_count
    assert narrowed == 4


def test_sharpness_with_lp_inclusions_matches_the_oracle(monkeypatch):
    # 3-4 generators over 3-4 outcomes: the Y-sets are not segments, so
    # some inclusions of the search are decided by an LP
    lps = [0]
    solve = credal.polytope.lp_solve

    def counted(lp):
        lps[0] += 1
        return solve(lp)

    monkeypatch.setattr(credal.polytope, "lp_solve", counted)
    rng = random.Random(16)
    dead = searched = narrowed = not_sharp = 0
    for nx, ny, k in ((5, 3, 3), (5, 4, 4), (6, 3, 4), (6, 4, 3), (7, 3, 3)):
        p = _random_set(rng, nx, ny=ny, k=k)
        dead += len(p.live) < nx
        _, cert = _agree("sharp_partition", p)
        narrowed += len(cert.minimal) < cert.calibrated_count
        for rule in _rules(rng, p):
            verdict = _agree("is_sharply_calibrated", rule, p)
            not_sharp += getattr(verdict, "witness", None) is not None
        # every cell conditioned first, so only the inclusions are counted
        q = _fresh(p)
        labels = q.space.x_labels
        for mask in range(1, 1 << nx):
            credal.core.posterior_y(q, tuple(x for i, x in enumerate(labels) if mask >> i & 1))
        before = lps[0]
        calibration.sharp_partition(q)
        searched += lps[0] > before
    assert dead >= 2 and searched >= 4 and narrowed and not_sharp, (dead, searched, narrowed, not_sharp)


def test_sharpness_at_the_signal_limit_in_seconds():
    # 2 generators over 8 signals and 2 outcomes: 4,140 partitions, too
    # many calibrated ones for the oracle's pair loop, so the certificate
    # is checked for what it promises
    nx = calibration.SHARP_X_LIMIT
    rng = random.Random(8)
    p = sharp_limit_set(rng)
    assert p.space.nx == nx
    start = time.perf_counter()
    part, cert = calibration.sharp_partition(p)
    assert time.perf_counter() - start < 10
    order = {c: i for i, c in enumerate(all_partitions(p.space.x_labels))}
    assert cert.examined == len(order) == bell_number(nx)
    assert part in cert.minimal
    assert len(cert.minimal) < cert.calibrated_count
    indices = [order[c] for c in cert.minimal]
    assert indices == sorted(set(indices))
    for c in [part] + rng.sample(cert.minimal, 4):
        verdict = calibration.is_sharply_calibrated(partition_conditioning(c), p)
        assert verdict.sharp, c


def test_partitions_follow_the_restricted_growth_order():
    # the oracle lists partitions from restricted-growth strings, so a
    # reordering of the package's enumeration shows here, not only at n = 3
    for n in range(1, 10):
        strings = list(calibration_oracle.growth_strings(n))
        assert len(strings) == bell_number(n)
        masks = [
            tuple(sum(1 << i for i, c in enumerate(s) if c == k) for k in range(max(s) + 1))
            for s in strings
        ]
        assert list(cell_masks(n)) == masks, n
        labels = tuple("x%d" % i for i in range(n))
        assert list(all_partitions(labels)) == list(calibration_oracle.all_partitions(labels)), n


def test_sharp_partition_builds_partitions_only_for_its_answer(monkeypatch):
    # the refinement fixpoint and the scan run on cell masks
    built = []
    post_init = Partition.__post_init__

    def counted(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(Partition, "__post_init__", counted)
    rng = random.Random(47)
    for _ in range(30):
        p = _random_set(rng, rng.randint(2, 5))
        built.clear()
        part, cert = calibration.sharp_partition(p)
        assert list(map(id, built)) == list(map(id, (part, *cert.minimal))), p


def test_check_calibration_conditions_each_cell_once(monkeypatch):
    # counts the conditioning itself, past the set's cache
    calls = Counter()
    compute = credal.core._cell_points

    def counted(p, idx):
        calls[tuple(p.space.x_labels[i] for i in idx)] += 1
        return compute(p, idx)

    monkeypatch.setattr(credal.core, "_cell_points", counted)
    rng = random.Random(5)
    for _ in range(20):
        p = _fresh(_random_set(rng, rng.randint(2, 5)))
        calls.clear()
        report = check_calibration(standard_conditioning(), p)
        assert calls and max(calls.values()) == 1
        assert all(cl.cell in calls for cl in report.per_class)


def test_the_table_keys_each_event_by_its_bitmask_alone():
    # label tuples name an event but never key it, and neither does a
    # sharpness question, which asks by the cells' masks
    rng = random.Random(45)
    for _ in range(20):
        p = _fresh(_random_set(rng, rng.randint(3, 5)))
        labels = p.space.x_labels
        for cell in (labels[:1], labels[::-1], labels[1:] + labels[:1]):
            credal.core.posterior_y(p, cell)
        part, _cert = calibration.sharp_partition(p)
        assert calibration.is_sharply_calibrated(partition_conditioning(part), p).sharp
        assert p._events.posteriors and all(type(k) is int for k in p._events.posteriors)


def test_sharpness_compares_each_pair_of_sets_once(monkeypatch):
    # a cell whose set holds at two live signals is compared with the
    # rule's opinion set once, not once per signal
    pairs = []
    compare = credal.core.subset

    def logged(a, b):
        pairs.append((a, b))  # keeps both alive, so their ids stay theirs
        return compare(a, b)

    monkeypatch.setattr(credal.core, "subset", logged)
    rng = random.Random(28)
    compared = 0
    for _ in range(40):
        p = _fresh(_random_set(rng, rng.randint(3, 5)))
        pairs.clear()
        calibration.is_sharply_calibrated(ignore_rule(), p)
        seen = Counter((id(a), id(b)) for a, b in pairs)
        assert max(seen.values(), default=1) == 1, p
        compared += len(pairs)
    assert compared > 100, compared


def _ask_every_question(rng, p):
    """Each calibration question about the convex ``p``, each rule's answer
    or error: the answers of a set that persists across calls."""
    rules = _rules(rng, p)
    answers = [_outcome(calibration.refinement_fixpoint, p), _outcome(calibration.sharp_partition, p)]
    for rule in rules:
        answers.append(_outcome(check_calibration, rule, p))
        answers.append(_outcome(calibration.equivalence_classes, rule, p))
        answers.append(_outcome(calibration.narrower, rule, rules[0], p))
        answers.append(_outcome(calibration.is_sharply_calibrated, rule, p))
    return answers


def test_every_question_on_one_set_compares_each_pair_of_sets_once(monkeypatch):
    # one table per set, kept across calls: asking every question again
    # compares no pair of sets again, and gives the same answers
    pairs = []
    compare = credal.core.subset

    def logged(a, b):
        pairs.append((a, b))  # keeps both alive, so their ids stay theirs
        return compare(a, b)

    monkeypatch.setattr(credal.core, "subset", logged)
    rng = random.Random(37)
    compared = 0
    for _ in range(25):
        p = _fresh(_random_set(rng, rng.randint(3, 5)))
        pairs.clear()
        state = rng.getstate()
        first = _ask_every_question(rng, p)
        asked = len(pairs)
        rng.setstate(state)
        assert _ask_every_question(rng, p) == first
        seen = Counter((id(a), id(b)) for a, b in pairs)
        assert max(seen.values(), default=1) == 1, p
        assert len(pairs) == asked
        compared += asked
    assert compared > 100, compared


def test_a_set_asked_every_question_is_freed_with_its_last_reference():
    # the table holds no reference back to its set, so reference counting
    # alone frees the set
    rng = random.Random(38)
    gc.disable()
    try:
        for _ in range(10):
            p = _fresh(_random_set(rng, rng.randint(3, 5)))
            _ask_every_question(rng, p)
            ref = weakref.ref(p)
            del p
            assert ref() is None
    finally:
        gc.enable()


def test_corpus_sets_match_the_oracle():
    for case in load_corpus():
        p = case.credal()
        rules = [standard_conditioning(), ignore_rule()]
        rules += [partition_conditioning(c) for c in all_partitions(p.space.x_labels)]
        for rule in rules:
            _agree("check_calibration", rule, p)
            _agree("narrower", rule, rules[0], p)
            _agree("is_sharply_calibrated", rule, p)
        _agree("sharp_partition", p)
        _agree("refinement_fixpoint", p)


def _permuted(p, order):
    """``p`` with its signals listed in ``order``, indices into its labels."""
    labels = tuple(p.space.x_labels[i] for i in order)
    space = ProblemSpace(labels, p.space.y_labels, p.space.actions)
    return credal_set(space, [[g.mass[i] for i in order] for g in p.generators], p.convex)


def _unordered(part):
    return frozenset(map(frozenset, part.cells))


def _order_free_answers(p, parts):
    """The answers about ``p`` that do not depend on the order of its
    signals, for the standard, ignore and ``parts`` partition rules.
    The descent and the sharpness witness take the first partition in
    enumeration order, so they are left out."""
    labels = p.space.x_labels
    rules = [standard_conditioning(), ignore_rule()]
    rules += [partition_conditioning(Partition(labels, c.cells)) for c in parts]
    out = {}
    for i, rule in enumerate(rules):
        report = check_calibration(rule, p)
        out["classes", i] = _unordered(report.classes)
        out["per class", i] = frozenset(
            (frozenset(r.cell), r.forward, r.backward) for r in report.per_class
        )
        out["verdicts", i] = report.calibrated, report.semi_calibrated
        for j, other in enumerate(rules):
            out["narrower", i, j] = calibration.narrower(rule, other, p)
        verdict = _outcome(calibration.is_sharply_calibrated, rule, p)
        out["sharp", i] = getattr(verdict, "sharp", verdict)
    found = _outcome(calibration.sharp_partition, p)
    if isinstance(found[1], calibration.SharpnessCertificate):
        cert = found[1]
        found = frozenset(map(_unordered, cert.minimal)), cert.calibrated_count, cert.examined
    out["sharp partition"] = found
    fixpoint = _outcome(calibration.refinement_fixpoint, p)
    out["fixpoint"] = _unordered(fixpoint) if isinstance(fixpoint, Partition) else fixpoint
    return out


def test_answers_map_back_under_signal_permutations():
    rng = random.Random(1401_3906)
    for trial in range(24):
        p = _random_set(rng, rng.randint(2, 5), convex=trial % 4 != 0)
        parts = rng.sample(list(all_partitions(p.space.x_labels)), 2)
        order = list(range(p.space.nx))
        rng.shuffle(order)
        assert _order_free_answers(_permuted(p, order), parts) == _order_free_answers(p, parts)


def test_redundant_generators_leave_every_answer_unchanged():
    # a repeated generator, and (convex) the midpoint of two generators
    rng = random.Random(21)
    for trial in range(24):
        p = _random_set(rng, rng.randint(2, 5), convex=trial % 4 != 0)
        parts = rng.sample(list(all_partitions(p.space.x_labels)), 2)
        masses = [g.mass for g in p.generators]
        extra = [masses + [rng.choice(masses)]]
        if p.convex and len(masses) > 1:
            a, b = rng.sample(masses, 2)
            mid = [[(u + v) / 2 for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]
            extra.append(masses + [mid])
        want = _order_free_answers(p, parts)
        for grown in extra:
            assert _order_free_answers(credal_set(p.space, grown, p.convex), parts) == want


def test_a_used_set_answers_as_a_fresh_one():
    rng = random.Random(1214)
    for trial in range(24):
        p = _random_set(rng, rng.randint(2, 5), convex=trial % 4 != 0)
        rules = _rules(rng, p)
        start = rng.choice(list(all_partitions(p.space.x_labels)))
        questions = [("sharp_partition",), ("refinement_fixpoint",), ("refine_partition", start)]
        for r1 in rules:
            questions += [
                ("equivalence_classes", r1),
                ("check_calibration", r1),
                ("is_sharply_calibrated", r1),
            ]
            questions += [("narrower", r1, r2) for r2 in rules]

        def ask(question, q):
            name, *args = question
            if name in ("sharp_partition", "refinement_fixpoint"):
                return _outcome(getattr(calibration, name), q, *args)
            return _outcome(getattr(calibration, name), *args, q)

        for question in questions:
            ask(question, p)
        for question in reversed(questions):
            assert ask(question, p) == ask(question, _fresh(p)), question
        assert [r.image_y(p, x) for r in rules for x in p.space.x_labels] == [
            r.image_y(_fresh(p), x) for r in rules for x in p.space.x_labels
        ]
