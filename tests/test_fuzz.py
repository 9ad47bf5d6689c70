"""Seeded fuzz test of the CLI over all seven subcommands.

Valid inputs are mutated (wrong types, flipped signs, NaN and infinities,
large numbers, long words, dropped keys) and run through cli.run.  Every
run must exit 0, 1 or 2 without an exception escaping, and on exit 0 or
1 print strict JSON.  Count fields (strands, vertices, rank, genus) also
draw 2**70 and 1e308, which must be refused or answered without an
allocation of that size.  Their other values stay at magnitude <= 1000,
and strands at <= 100: a braid near the 1000-strand limit still builds
a dense Seifert matrix of about a million cells, over half a second a
run, and test_cli checks that limit once.
"""

import copy
import io
import json
import math
import random

from blowupgate.cli import run

SEED = 20201
RUNS = 160

TREFOIL_PD = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
GRAPH = {
    "vertices": 2,
    "edges": [{"from": 0, "to": 1, "label": {"free": [1], "torsion": [1]}},
              {"from": 0, "to": 1, "label": {"free": [0], "torsion": [0]}},
              {"from": 0, "to": 1, "label": {"free": [0], "torsion": [1]}}],
    "weights": [2, 1, 1],
    "orientations": [1, -1, -1],
    "model": {"rank": 1, "torsion": [2]},
    "admissible": [{"free": [0], "torsion": [0]}, {"free": [2]}],
}
# two commuting pairs, so the genus-2 relator holds and euler answers
EULER = {"matrices": {"a1": [[2.0, 0.0], [0.0, 0.5]],
                      "b1": [[1.5, 0.0], [0.0, 1 / 1.5]],
                      "a2": [[0.0, -1.0], [1.0, 0.0]],
                      "b2": [[1.0, 0.0], [0.0, 1.0]]}}
SEEDED = {
    "invariants": [{"braid": {"strands": 3, "word": [1, -2, 1, -2]}},
                   {"pd": TREFOIL_PD}],
    "gate": [{"braid": {"strands": 3, "word": [1, 1, 2, 2]},
              "monodromy": [1, 0, 1]},
             {"pd": TREFOIL_PD, "monodromy": [1]}],
    "flow": [GRAPH],
    "solve": [{"generators": ["x", "y"], "relators": [[1, 2, 1, -2, -1, -2]]},
              {"generators": ["a", "b"], "relators": [[1, 2, -1, -2]]}],
    "euler": [EULER],
}
COUNT_KEYS = {"strands", "vertices", "rank", "genus"}
SPECIAL = [math.nan, math.inf, -math.inf, 1e200, -1e308, 2 ** 70, 0.5, -1, 0,
           "x", None, True, [], {}]
OPTIONS = {
    "gate": [["--monodromy", "1,0,1"], ["--monodromy", "1"],
             ["--monodromy", "x,,"]],
    "solve": [["--restarts", "2"], ["--restarts", "0"], ["--tol", "nan"],
              ["--tol", "-1"], ["--tol", "1e-300"], ["--seed", "-7"],
              ["--seed", "x"]],
    "euler": [["--genus", "1"], ["--genus", "2"], ["--genus", "0"],
              ["--genus", "1000"], ["--tol", "inf"], ["--tol", "nan"]],
}


def strict_loads(text):
    def refuse(token):
        raise ValueError(f"non-finite number {token} in output")
    return json.loads(text, parse_constant=refuse)


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


def _replacement(rng, key, value):
    if key in COUNT_KEYS:
        big = 100 if key == "strands" else 1000
        return rng.choice([-big, -1, 0, 1, 2.5, big, 2 ** 70, 1e308,
                           math.nan, "3", None])
    if isinstance(value, list) and value and rng.random() < 0.5:
        if all(isinstance(x, int) for x in value):
            return value * rng.randint(5, 12)              # a long word
        return value[:-1] if rng.random() < 0.5 else value + value[-1:]
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and rng.random() < 0.4:
        return -value if rng.random() < 0.5 else value * 1e150
    return rng.choice(SPECIAL)


def mutate(rng, data):
    data = copy.deepcopy(data)
    for _ in range(rng.randint(0, 2)):
        path, value = rng.choice(list(_nodes(data))[1:])
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        if isinstance(parent, dict) and rng.random() < 0.15:
            del parent[path[-1]]
            return data
        parent[path[-1]] = _replacement(rng, path[-1], value)
    return data


def _args(rng, command, path):
    if command == "brieskorn":
        triple = [str(rng.choice([2, 3, 4, 5, 7, 9, 11, -3, 0, 1]))
                  for _ in range(3)]
        if rng.random() < 0.2:
            triple[rng.randrange(3)] = rng.choice(["x", "2.5", "1e3"])
        extra = rng.choice([[], ["--tol", "nan"], ["--tol", "0"],
                            ["--restarts", "-5", "--seed", "9"]])
        return ["brieskorn", *triple, *extra]
    if command == "mw-admissible":
        genera = [str(rng.choice([1, 2, 3, 0, -2])) for _ in range(2)]
        genera[0] = rng.choice([genera[0], "1000"])
        if rng.random() < 0.2:
            genera.append(rng.choice(["x", "2.5", ""]))
        return ["mw-admissible", "--genera", ",".join(genera)]
    args = [command, str(path)]
    if command == "solve":
        args += ["--restarts", "2"]
    if command in OPTIONS and rng.random() < 0.5:
        args += rng.choice(OPTIONS[command])
    if rng.random() < 0.1:
        args = ["--format", "text"] + args
    return args


def fuzz_cases(seed, runs, workdir):
    rng = random.Random(seed)
    commands = sorted(SEEDED) + ["brieskorn", "mw-admissible"]
    for index in range(runs):
        command = commands[index % len(commands)]
        path = workdir / f"case{index}.json"
        if command in SEEDED:
            payload = mutate(rng, rng.choice(SEEDED[command]))
            path.write_text(json.dumps(payload))
        yield _args(rng, command, path)


def check_run(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    assert code in (0, 1, 2), (argv, code)
    if code in (0, 1):
        text = buf.getvalue()
        if argv[0] == "--format":
            lines = text.splitlines()
            assert lines, argv
            for line in lines:
                strict_loads(line.partition(" = ")[2])
            assert any(line.startswith("error.") for line in lines) == \
                (code == 1), argv
        else:
            payload = strict_loads(text)
            assert ("error" in payload) == (code == 1), (argv, payload)
    return code


def test_cli_fuzz(tmp_path):
    codes = [check_run(argv) for argv in fuzz_cases(SEED, RUNS, tmp_path)]
    assert {0, 1, 2} <= set(codes)


def test_cli_huge_counts(tmp_path):
    """Each count field of each seeded input set to 2**70 and to 1e308."""
    path = tmp_path / "case.json"
    for command, payloads in SEEDED.items():
        for payload in payloads:
            for node_path, _value in _nodes(payload):
                if not node_path or node_path[-1] not in COUNT_KEYS:
                    continue
                for big in (2 ** 70, 1e308):
                    data = copy.deepcopy(payload)
                    parent = data
                    for step in node_path[:-1]:
                        parent = parent[step]
                    parent[node_path[-1]] = big
                    path.write_text(json.dumps(data))
                    check_run([command, str(path)])
