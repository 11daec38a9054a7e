"""Seeded input generators for the faultline benchmark.

Everything here is plain Python and never imports faultline: the program
under test only ever sees the generated documents and argv.  The same seed
gives the same sequence of operations.  Each generator yields `Op`s without
end; the worker takes as many as its time allows.

Op sizes come from fixed classes that cycle by position in the sequence
(the seed picks the documents within each class), so that every seed gives
the same mix of costs and per-run medians stay comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import count

BUNDLED = ("doubling_swap", "period_doubling", "row_thirds")

# sigma1 of every bundled document (the paper pair is sigma1/sigma2).
PAPER_SIGMA1 = {"a": "ba", "b": "aaa"}
PAPER_ROUNDS = 13            # 46,898 letters per row
RENDER_BUNDLED_ROUNDS = 5    # 1,888 tiles per bundled patch


@dataclass
class Op:
    """One CLI call.  `argv` names the input as "{input}" when `doc` is a
    generated document; the worker writes it to a file first.  The output
    path is appended by the worker."""

    kind: str                    # e.g. "cohomology/seeded"
    argv: list
    doc: dict | None = None
    golden: str | None = None    # name of the golden file for bundled inputs
    rects: int | None = None     # expected <rect> count of a render op
    size: dict = field(default_factory=dict)

    def key(self):
        return json.dumps([self.argv, self.doc], sort_keys=True)


# ---------------------------------------------------------------------------
# small integer linear algebra (independent of the program)
# ---------------------------------------------------------------------------

def matrix(alphabet, rules):
    """Entry (i, j) counts letter i in the image of letter j."""
    idx = {a: i for i, a in enumerate(alphabet)}
    n = len(alphabet)
    m = [[0] * n for _ in range(n)]
    for j, a in enumerate(alphabet):
        for x in rules[a]:
            m[idx[x]][j] += 1
    return m


def matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def matpow(m, k):
    n = len(m)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = matmul(out, m)
    return out


def is_primitive(m):
    """Some power is entrywise positive, up to Wielandt's bound."""
    n = len(m)
    p = m
    for _ in range((n - 1) ** 2 + 1):
        if all(x > 0 for row in p for x in row):
            return True
        p = matmul(p, m)
    return False


def word_length(m, k, col):
    return sum(row[col] for row in matpow(m, k))


def charpoly(m):
    """Integer coefficients c[0..n] of det(xI - m), lowest degree first
    (Faddeev-LeVerrier; every division is exact)."""
    n = len(m)
    c = [0] * n + [1]
    acc = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        acc = matmul(m, acc)
        for i in range(n):
            acc[i][i] += c[n - k + 1]
        c[n - k] = -sum(row[i] for i, row in enumerate(matmul(m, acc))) // k
    return c


def has_positive_integer_eigenvalue(m):
    """Eigenvalues are at most the largest column sum in modulus."""
    c = charpoly(m)
    top = max(sum(col) for col in zip(*m))
    return any(sum(ci * r ** i for i, ci in enumerate(c)) == 0 for r in range(1, top + 1))


# ---------------------------------------------------------------------------
# the horizontal family a -> (a^p b in some order), b -> a^q
# ---------------------------------------------------------------------------

def family_rules(p, q, j):
    """Member j (0..p) of the family: b sits at position j of a's image."""
    return {"a": "a" * j + "b" + "a" * (p - j), "b": "a" * q}


def is_pisot(p, q):
    """x^2 - p x - q has |second root| < 1 exactly when q < p + 1; q = p + 1
    gives second root -1.  Either way discrepancies stay bounded."""
    return q <= p + 1


def _alphabet(n):
    return [chr(ord("a") + i) for i in range(n)]


def _random_rules(rng, alphabet, lengths):
    return {a: "".join(rng.choice(alphabet) for _ in range(rng.choice(lengths)))
            for a in alphabet}


# ---------------------------------------------------------------------------
# cohomology-mix
# ---------------------------------------------------------------------------

# (p, q, rounds) per class: each seeded DPV has exactly one boundary whose
# two rows run different substitutions, traced over about 7e3-9e3 letters
# per row at these depths.
COHOMOLOGY_CLASSES = ((1, 3, 10), (2, 1, 10), (1, 3, 10), (1, 2, 11))


def legal_pairs(alphabet, rules):
    """Two-letter factors of the language of a primitive substitution."""
    pairs = set()
    for a in alphabet:
        w = [a]
        while len(w) < 64:
            w = [y for x in w for y in rules[x]]
        pairs.update(zip(w, w[1:]))
    while True:
        new = {(rules[x][-1], rules[y][0]) for x, y in pairs}
        new |= {p for x, _ in pairs for p in zip(rules[x], rules[x][1:])}
        if new <= pairs:
            return pairs
        pairs |= new


def _only_fixed_points(f, letters):
    for x in letters:
        for _ in range(len(letters)):
            x = f[x]
        if f[x] != x:
            return False
    return True


def boundaries(alphabet, rules, row_sigma):
    """For a vertical whose last-letter and first-letter maps have only
    fixed points as periodic points, the boundaries between infinite-order
    supertiles sit at the legal pairs (x, y) with x ending rho(x) and y
    starting rho(y).  Returns, per such pair, whether the row below (last
    row of rho(x)) and the row above (first row of rho(y)) run different
    substitutions; None when some periodic point is not fixed."""
    last = {x: rules[x][-1] for x in alphabet}
    first = {x: rules[x][0] for x in alphabet}
    if not (_only_fixed_points(last, alphabet) and _only_fixed_points(first, alphabet)):
        return None
    return [row_sigma[x][-1] != row_sigma[y][0]
            for x, y in sorted(legal_pairs(alphabet, rules))
            if last[x] == x and first[y] == y]


def _vertical(rng, n, lengths):
    alphabet = [f"v{i}" for i in range(n)] if n > 1 else ["v"]
    while True:
        rules = {a: [rng.choice(alphabet) for _ in range(rng.choice(lengths))]
                 for a in alphabet}
        if not is_primitive(matrix(alphabet, rules)):
            continue
        return alphabet, rules


def dpv_document(vert_alphabet, vert_rules, p, q, members, rng):
    names = [f"s{j}" for j in members]
    subs = {name: {"alphabet": "h", "rules": family_rules(p, q, j)}
            for name, j in zip(names, members)}
    subs["rho"] = {"alphabet": "v", "rules": vert_rules}
    row_sigma = {v: [rng.choice(names) for _ in vert_rules[v]] for v in vert_alphabet}
    return {
        "alphabets": {"h": ["a", "b"], "v": list(vert_alphabet)},
        "substitutions": subs,
        "dpv": {"vertical": "rho", "horizontal": names, "row_sigma": row_sigma},
    }


def cohomology_mix(seed):
    rng = random.Random(seed)
    for name in BUNDLED:
        yield Op("cohomology/bundled", ["cohomology", "-i", f"bundled:{name}"],
                 golden=f"cohomology-{name}")
    for i in count():
        p, q, rounds = COHOMOLOGY_CLASSES[i % len(COHOMOLOGY_CLASSES)]
        n = 1 + i % 3
        while True:
            alphabet, rules = _vertical(rng, n, (2, 3))
            members = sorted(rng.sample(range(p + 1), min(p + 1, 2 + rng.randrange(2))))
            doc = dpv_document(alphabet, rules, p, q, members, rng)
            sides = boundaries(alphabet, rules, doc["dpv"]["row_sigma"])
            if sides is not None and sum(sides) == 1:
                break
        yield Op("cohomology/seeded", ["cohomology", "-i", "{input}", "--rounds", str(rounds)],
                 doc=doc, size={"vertical_letters": n, "horizontals": len(members),
                                "boundaries": len(sides), "rounds": rounds})


# ---------------------------------------------------------------------------
# fault-deep
# ---------------------------------------------------------------------------

# (p, q, rounds) per class, each op about 1 s and 2-5e4 letters per row at
# the parent commit.  Non-Pisot and Pisot classes alternate; distinct (p, q)
# per class, so no pair is traced at two depths within a run.
FAULT_NONPISOT = ((1, 3, 12), (1, 4, 10), (1, 5, 9), (2, 4, 9), (3, 8, 7), (2, 6, 8))
FAULT_PISOT = ((1, 1, 21), (2, 1, 12), (3, 3, 8), (4, 3, 7), (3, 1, 9), (4, 1, 7))
FAULT_CLASSES = tuple(c for pair in zip(FAULT_NONPISOT, FAULT_PISOT) for c in pair)


def fault_pairs(rng, p):
    """Ordered pairs of distinct family members with a seed letter; seed a
    first, in seeded order, then seed b."""
    out = []
    for seed_letter in ("a", "b"):
        pairs = [(jt, jb, seed_letter) for jt in range(p + 1) for jb in range(p + 1) if jt != jb]
        rng.shuffle(pairs)
        out += pairs
    return out


def fault_deep(seed):
    rng = random.Random(seed)
    yield Op("fault/bundled", ["fault", "-i", "bundled:doubling_swap", "--top", "sigma1",
                               "--bottom", "sigma2", "--rounds", str(PAPER_ROUNDS)],
             golden="fault-doubling_swap",
             size={"letters": word_length(matrix("ab", PAPER_SIGMA1), PAPER_ROUNDS, 0)})
    pools = [fault_pairs(rng, p) for p, _, _ in FAULT_CLASSES]
    for i in count():
        if not any(pools):
            return
        j = i % len(FAULT_CLASSES)
        if not pools[j]:
            continue
        p, q, k = FAULT_CLASSES[j]
        jt, jb, seed_letter = pools[j].pop(0)
        doc = {
            "alphabets": {"h": ["a", "b"]},
            "substitutions": {
                "top": {"alphabet": "h", "rules": family_rules(p, q, jt)},
                "bottom": {"alphabet": "h", "rules": family_rules(p, q, jb)},
            },
        }
        yield Op("fault/" + ("pisot" if is_pisot(p, q) else "nonpisot"),
                 ["fault", "-i", "{input}", "--top", "top", "--bottom", "bottom",
                  "--rounds", str(k), "--seed", seed_letter],
                 doc=doc,
                 size={"letters": word_length(matrix("ab", family_rules(p, q, 0)), k,
                                              "ab".index(seed_letter)),
                       "alphabet": 2})


# ---------------------------------------------------------------------------
# render-patch
# ---------------------------------------------------------------------------

def tile_matrix(doc):
    """2-d count matrix of a DPV document, tiles ordered (v, h) row-major."""
    subs = doc["substitutions"]
    d = doc["dpv"]
    va = doc["alphabets"][subs[d["vertical"]]["alphabet"]]
    ha = doc["alphabets"][subs[d["horizontal"][0]]["alphabet"]]
    rho = subs[d["vertical"]]["rules"]
    n = len(va) * len(ha)
    tile = {(v, h): i * len(ha) + j for i, v in enumerate(va) for j, h in enumerate(ha)}
    m = [[0] * n for _ in range(n)]
    for v in va:
        for h in ha:
            for v2, sname in zip(rho[v], d["row_sigma"][v]):
                for h2 in subs[sname]["rules"][h]:
                    m[tile[(v2, h2)]][tile[(v, h)]] += 1
    return m, tile


def bundled_document_dict(name, data_dir):
    with open(f"{data_dir}/{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


# (p, q, vertical image length, horizontal seed letter, rounds): every class
# gives 1,600-2,300 tiles (vertical length^rounds times the horizontal word
# length), Pisot and non-Pisot horizontals alternating.
# Families with q = p + 1 are left out: their rational expansion makes
# coordinates plain fractions, several times cheaper per tile.
RENDER_CLASSES = ((1, 3, 2, "a", 5), (1, 1, 3, "b", 5), (2, 4, 2, "b", 4), (3, 1, 2, "a", 4),
                  (2, 5, 2, "a", 4), (3, 2, 2, "b", 4))


def render_patch(seed, data_dir):
    rng = random.Random(seed)
    k = RENDER_BUNDLED_ROUNDS
    for i, name in enumerate(BUNDLED):
        m, _ = tile_matrix(bundled_document_dict(name, data_dir))
        argv = ["render", "-i", f"bundled:{name}", "--rounds", str(k)]
        overlay = i % 2 == 1
        if overlay:
            argv += ["--overlay", "2"]
        tiles = word_length(m, k, 0)
        yield Op("render/bundled", argv, golden=f"render-{name}" + ("-overlay" if overlay else ""),
                 rects=tiles, size={"tiles": tiles})
    for i in count():
        p, q, length, h, rounds = RENDER_CLASSES[i % len(RENDER_CLASSES)]
        n = 1 + i % 3
        alphabet, rules = _vertical(rng, n, (length,))
        members = sorted(rng.sample(range(p + 1), 2))
        doc = dpv_document(alphabet, rules, p, q, members, rng)
        m, tile = tile_matrix(doc)
        v = rng.choice(alphabet)
        tiles = word_length(m, rounds, tile[(v, h)])
        argv = ["render", "-i", "{input}", "--rounds", str(rounds), "--seed", f"{v},{h}"]
        if i % 2:
            argv += ["--overlay", str(rng.randint(1, rounds))]
        yield Op("render/" + ("pisot" if is_pisot(p, q) else "nonpisot"), argv, doc=doc,
                 rects=tiles, size={"tiles": tiles, "vertical_letters": n})


# ---------------------------------------------------------------------------
# ap-random
# ---------------------------------------------------------------------------

# ap (10-50 ms) in four of seven ops, mu (20-150 ms) in two and analyze
# (0.1-0.5 s) in one: the median op falls inside the ap cluster, and the
# short ops make up most of the run, so its mean rests on many samples.
AP_COMMANDS = ("ap", "mu", "ap", "analyze", "ap", "mu", "ap")
# Every image has at least two letters and no eigenvalue is a positive
# integer: outside this class the program has two known defects (see
# README.md, "Known defects"), and a workload must not fail.
AP_RULE_LENGTHS = (2, 3, 4)


def ap_random(seed):
    rng = random.Random(seed)
    # one command per bundled document, so no substitution is analysed twice
    yield Op("analyze/bundled", ["analyze", "-i", "bundled:doubling_swap"],
             golden="analyze-doubling_swap")
    yield Op("ap/bundled", ["ap", "-i", "bundled:period_doubling", "--name", "rho"],
             golden="ap-period_doubling-rho")
    yield Op("mu/bundled", ["mu", "-i", "bundled:row_thirds", "--name", "rho"],
             golden="mu-row_thirds-rho")
    for i in count():
        cmd = AP_COMMANDS[i % len(AP_COMMANDS)]
        n = 3 + (i // len(AP_COMMANDS)) % 4
        alphabet = _alphabet(n)
        while True:
            rules = _random_rules(rng, alphabet, AP_RULE_LENGTHS)
            m = matrix(alphabet, rules)
            if is_primitive(m) and not has_positive_integer_eigenvalue(m):
                break
        doc = {"alphabets": {"x": alphabet},
               "substitutions": {"s": {"alphabet": "x", "rules": rules}}}
        yield Op(f"{cmd}/seeded", [cmd, "-i", "{input}", "--name", "s"], doc=doc,
                 size={"alphabet": n, "rule_letters": sum(len(r) for r in rules.values())})


def _unique(ops):
    """Drop any op whose input already came up in this run."""
    seen = set()
    for op in ops:
        key = op.key()
        if key not in seen:
            seen.add(key)
            yield op


def workload(name, seed, data_dir):
    """The op sequence of one workload run."""
    if name == "cohomology-mix":
        ops = cohomology_mix(seed)
    elif name == "fault-deep":
        ops = fault_deep(seed)
    elif name == "render-patch":
        ops = render_patch(seed, data_dir)
    elif name == "ap-random":
        ops = ap_random(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return _unique(ops)


WORKLOADS = ("cohomology-mix", "fault-deep", "render-patch", "ap-random")
