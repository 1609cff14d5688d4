"""Seeded fuzz: random small problem files through every subcommand.

Each run must end with a documented exit code (0, 1 under ``--strict``,
2 for input errors, 3 for size refusals) and never with a traceback or
an internal error.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from credal.cli import run

F = Fraction


def _problem(rng):
    """A problem file: nx <= 4, ny <= 3, 1-3 actions, 1-3 generators,
    convex or finite, some signals dead in every generator, some
    generators repeated."""
    nx, ny = rng.randint(1, 4), rng.randint(1, 3)
    xs = ["x%d" % i for i in range(nx)]
    dead = {x for x in xs if nx > 1 and rng.random() < 0.25}
    if dead == set(xs):
        dead.pop()
    generators = []
    for _ in range(rng.randint(1, 3)):
        if generators and rng.random() < 0.2:
            generators.append(generators[0])
            continue
        weights = [
            [0 if x in dead else rng.choice((0, 0, 1, 2, 3)) for _ in range(ny)]
            for x in xs
        ]
        if not any(map(any, weights)):
            weights[xs.index(next(x for x in xs if x not in dead))][0] = 1
        total = sum(map(sum, weights))
        generators.append([[str(F(w, total)) for w in row] for row in weights])
    actions = ["a%d" % i for i in range(rng.randint(1, 3))]
    loss = [[str(F(rng.randint(0, 4), rng.randint(1, 2))) for _ in actions] for _ in range(ny)]
    return {
        "x_labels": xs,
        "y_labels": ["y%d" % i for i in range(ny)],
        "actions": actions,
        "convex": rng.random() < 0.7,
        "generators": generators,
        "loss": loss,
    }


def _commands(rng, doc):
    xs, na = doc["x_labels"], len(doc["actions"])
    rule = "/".join(",".join(["1"] + ["0"] * (na - 1)) for _ in xs)
    k = len(doc["generators"])
    mixture = ",".join(str(F(1, k)) for _ in range(k))
    cells = [[] for _ in range(rng.randint(1, len(xs)))]
    for x in xs:
        rng.choice(cells).append(x)
    partition = "partition:" + "|".join(",".join(c) for c in cells if c)
    return [
        ["solve"],
        ["posterior"],
        ["saddle", "--rule", rule, "--mixture", mixture, "--strict"],
        ["hull"],
        ["check", "rect"],
        ["check", "conservative"],
        ["check", "dilation"],
        ["consistency", "weak", "--strict"],
        ["consistency", "time"],
        ["consistency", "dynamic", "--budget", "2"],
        ["calibrate", "--rule", "standard", "--sharp", "--strict"],
        ["calibrate", "--rule", "ignore"],
        ["calibrate", "--rule", partition, "--sharp"],
        ["oracle", "--grid", "2"],
    ]


def test_random_problem_files_never_crash_the_cli(tmp_path):
    rng = random.Random(1401)
    codes = set()
    for trial in range(40):
        doc = _problem(rng)
        path = tmp_path / ("p%d.json" % trial)
        path.write_text(json.dumps(doc))
        for argv in _commands(rng, doc):
            argv = argv + [str(path)]
            err, out = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = run(argv, stdout=out)
            except Exception as e:  # any exception escaping run() is the failure
                raise AssertionError((argv, doc)) from e
            text = err.getvalue()
            assert code in (0, 1, 2, 3), (argv, doc, code, text)
            assert text == "" or text.startswith(("error:", "refused:")), (argv, doc, text)
            assert "internal error" not in text, (argv, doc, text)
            assert (code in (0, 1)) == (text == ""), (argv, doc, code, text)
            # an error or a refusal is decided before the first line
            assert code in (0, 1) or out.getvalue() == "", (argv, doc, code, out.getvalue())
            codes.add(code)
    assert codes >= {0, 2}, codes
