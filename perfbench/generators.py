"""Seeded input generators, one per workload.

Each generator takes the seed, writes the files the program receives
(spec, germ, expansion and exponent-type documents) into a work
directory, and emits only inputs inside the domain the library
documents, so a refusal by design is a generator bug and not a failed
operation.  Each docstring says why its workload exists; BENCHMARK.json
carries the same reasons in one line each.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

# -- verify_batch -------------------------------------------------------------

#: (p, q, chirality) shapes of the corner p + q <= 2.
_SHAPES = (
    (0, 0, "holo"), (1, 0, "holo"), (0, 1, "holo"), (1, 1, "holo"),
    (2, 0, "holo"), (0, 2, "holo"), (0, 1, "anti"), (1, 1, "anti"),
    (0, 2, "anti"),
)

#: Non-integer exponents of the corner.  Every spec the rules below build
#: from them agrees with its closed form within 1e-2 (checked over the
#: whole set).  Positive exponents, a natural exponent 1, Smooth kernels
#: with a monomial factor and OneIntegerFactor at (p, q) = (2, 0) are
#: left out: the oracle refuses or misses on parts of them, which is what
#: oracle_sweep measures.
_NEG = (Fraction(-2, 3), Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 4))

#: Specs per repetition by case tag; a fixed mix keeps the per-spec
#: medians comparable across seeds.  BothInteger and Smooth share one
#: slot (28 specs), which allows up to 28 repetitions per run.  A small
#: batch keeps each ``verify`` invocation short, so the speed gauge
#: brackets it closely.
_MIX = (("Generic", 2), ("Resonant", 1), ("OneIntegerFactor", 1),
        ("BothInteger+Smooth", 1))


def _spec(a, b, shape, j, k) -> dict:
    p, q, chirality = shape
    return {"a": str(a), "b": str(b), "p": p, "q": q, "j": j, "k": k,
            "chirality": chirality}


def _corner_domain() -> Dict[str, List[dict]]:
    zero = Fraction(0)
    logs = tuple(itertools.product((0, 1), repeat=2))
    domain: Dict[str, List[dict]] = {tag: [] for tag in (
        "Generic", "Resonant", "OneIntegerFactor", "BothInteger", "Smooth")}
    for a, b in itertools.product(_NEG, repeat=2):
        tag = "Resonant" if a + b == -1 else "Generic"
        for shape in _SHAPES:
            for j, k in logs:
                domain[tag].append(_spec(a, b, shape, j, k))
    for other in _NEG:
        for shape in _SHAPES:
            if shape == (2, 0, "holo"):
                continue
            for deg in (0, 1):
                domain["OneIntegerFactor"].append(_spec(zero, other, shape, 1, deg))
                domain["OneIntegerFactor"].append(_spec(other, zero, shape, deg, 1))
    for shape in _SHAPES:
        domain["BothInteger"].append(_spec(zero, zero, shape, 1, 1))
    for other in _NEG + (zero,):
        for deg in (0, 1):
            domain["Smooth"].append(_spec(zero, other, _SHAPES[0], 0, deg))
            if other != zero:
                domain["Smooth"].append(_spec(other, zero, _SHAPES[0], deg, 0))
    domain["Smooth"].append(_spec(zero, zero, _SHAPES[0], 1, 0))
    domain["BothInteger+Smooth"] = domain.pop("BothInteger") + domain.pop("Smooth")
    return domain


def _alternate_chirality(specs: List[dict]) -> List[dict]:
    """Interleave anti and holo specs so every batch carries both."""
    anti = [s for s in specs if s["chirality"] == "anti"]
    holo = [s for s in specs if s["chirality"] == "holo"]
    out: List[dict] = []
    for pair in itertools.zip_longest(anti, holo):
        out.extend(s for s in pair if s is not None)
    return out


def verify_batch(seed: int, workdir: str) -> Iterator[str]:
    """Spec files of distinct corner specs, one file per repetition.

    The user's main path, about 85% far-field quadrature: an oracle
    speed-up shows here and nowhere in ``algebra``.  Draws without
    replacement, so no spec repeats within a run; stops when a case tag
    has no spec left.
    """
    rng = random.Random(seed)
    pools = {}
    for tag, specs in _corner_domain().items():
        rng.shuffle(specs)
        pools[tag] = _alternate_chirality(specs)
    for rep in itertools.count():
        batch: List[dict] = []
        for tag, n in _MIX:
            taken = pools[tag][rep * n:(rep + 1) * n]
            if len(taken) < n:
                return
            batch.extend(taken)
        rng.shuffle(batch)
        path = os.path.join(workdir, "verify_specs_%d.json" % rep)
        _write(path, batch)
        yield path


# -- fiber_demo ---------------------------------------------------------------

#: Largest exponents _validate_geometry accepts at the default plateau 0.9.
_MAX_N, _MAX_M = 5, 9


def fiber_demo(seed: int, workdir: str) -> str:
    """Germ-pair file: every pair (N, M) in range, the resonant (2, 2) first,
    the rest in seeded order.

    About 65% of the time is cutoff-remainder work that no other workload
    runs; the rest is the same oracle as ``verify_batch``.
    """
    rng = random.Random(seed)
    pairs = [[n, m] for n in range(1, _MAX_N + 1) for m in range(1, _MAX_M + 1)
             if (n, m) != (2, 2)]
    rng.shuffle(pairs)
    path = os.path.join(workdir, "germ_pairs.json")
    _write(path, [[2, 2]] + pairs)
    return path


# -- algebra ------------------------------------------------------------------

#: Term exponents r in (-1, 0] with small denominators, so output keys collide.
_R = tuple(Fraction(n, d) for d in (2, 3, 4, 6) for n in range(-d + 1, 0)
           if Fraction(n, d).denominator == d)

#: (left terms, right terms) of each expansion pair, and exponent counts of
#: each type pair: fixed sizes keep the per-call times comparable across seeds.
_EXPANSION_SIZES = ((24, 24), (30, 20), (16, 36), (28, 28), (20, 32), (36, 16)) * 2
_TYPE_SIZES = ((16, 16), (24, 20), (12, 30), (28, 28), (20, 24), (32, 14),
               (18, 26), (22, 22)) * 2


def _coeff(rng: random.Random) -> List[float]:
    while True:
        re, im = rng.randint(-8, 8) / 4.0, rng.randint(-8, 8) / 4.0
        if re or im:
            return [re, im]


def _term(rng: random.Random, r: Fraction, m: int, n: int, degree: int) -> dict:
    coeffs = [[rng.randint(-8, 8) / 4.0, 0.0] for _ in range(degree)]
    return {"r": str(r), "m": m, "n": n, "log_coeffs": coeffs + [_coeff(rng)]}


def _random_terms(rng: random.Random, count: int, taken: set) -> List[dict]:
    terms = []
    while len(terms) < count:
        r = rng.choice(_R + (Fraction(0),))
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        if (r, m, n) in taken:
            continue
        taken.add((r, m, n))
        # r = 0 makes the kernel exponent natural; the BothInteger constant
        # exists only at log degrees (1, 1), so such terms stay at degree <= 1
        degree = rng.randint(0, 1) if r == 0 else rng.randint(0, 2)
        terms.append(_term(rng, r, m, n, degree))
    return terms


def _output_key(t1: Tuple[Fraction, int, int], t2: Tuple[Fraction, int, int]):
    r = t1[0] + t2[0] + 1
    if r > 0:
        return r - 1, t1[1] + t2[1] + 1, t1[2] + t2[2] + 1
    return r, t1[1] + t2[1], t1[2] + t2[2]


def _expansion_pair(rng: random.Random, n_left: int, n_right: int):
    """Two expansions plus one planted cancelling pair of products.

    Left gets (x, 0, 0) and (y, 0, 0) with one coefficient c; right gets
    (y, 0, 0) with d and (x, 0, 0) with -d.  The products x*y and y*x land
    on one output key with opposite contributions, which drives the
    engine's compensated-term path.  The key is chosen so that no other
    product lands on it.
    """
    while True:
        x, y = rng.sample(_R, 2)
        planted = {(x, 0, 0), (y, 0, 0)}
        left_keys, right_keys = set(planted), set(planted)
        left = _random_terms(rng, n_left - 2, left_keys)
        right = _random_terms(rng, n_right - 2, right_keys)
        target = _output_key((x, 0, 0), (y, 0, 0))
        hits = sum(_output_key(a, b) == target for a in left_keys for b in right_keys)
        if hits == 2:
            break
    c, d = _coeff(rng), _coeff(rng)
    left += [{"r": str(x), "m": 0, "n": 0, "log_coeffs": [c]},
             {"r": str(y), "m": 0, "n": 0, "log_coeffs": [c]}]
    right += [{"r": str(y), "m": 0, "n": 0, "log_coeffs": [d]},
              {"r": str(x), "m": 0, "n": 0, "log_coeffs": [[-d[0], -d[1]]]}]
    order = rng.randint(1, 4)
    return ({"terms": left, "smooth_order": order},
            {"terms": right, "smooth_order": rng.randint(1, 4)})


def _exponent_type(rng: random.Random, size: int) -> dict:
    pool = sorted({Fraction(n, d) for d in (1, 2, 3, 4, 6) for n in range(-d + 1, 4 * d)})
    exponents = rng.sample(pool, size)
    return {"entries": {str(e): rng.randint(0, 3) for e in exponents}}


def algebra(seed: int, workdir: str) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
    """Expansion-document pairs for ``convolve`` and exponent-type pairs
    for ``types``.

    Exact bookkeeping with no quadrature at all: the control that
    bypasses the oracle, where an exact-algebra speed-up alone shows.
    """
    rng = random.Random(seed)
    expansions, types = [], []
    for i, (n_left, n_right) in enumerate(_EXPANSION_SIZES):
        docs = _expansion_pair(rng, n_left, n_right)
        expansions.append(_write_pair(workdir, "expansion_%d" % i, docs))
    for i, (n_left, n_right) in enumerate(_TYPE_SIZES):
        docs = (_exponent_type(rng, n_left), _exponent_type(rng, n_right))
        types.append(_write_pair(workdir, "type_%d" % i, docs))
    return expansions, types


# -- oracle_sweep -------------------------------------------------------------

#: The ROADMAP grid: 4 exponent pairs x 5 (p, q) x 4 (j, k) x chirality,
#: anti only where q > 0.  128 admissible specs.
SWEEP_AB = (("-1/3", "-1/4"), ("-1/2", "-1/2"), ("-2/3", "1/5"), ("1/3", "-1/5"))
SWEEP_PQ = ((0, 0), (1, 0), (1, 1), (2, 1), (3, 2))
SWEEP_JK = ((0, 0), (1, 0), (1, 1), (2, 1))


def sweep_grid() -> List[dict]:
    grid = []
    for (a, b), (p, q), (j, k) in itertools.product(SWEEP_AB, SWEEP_PQ, SWEEP_JK):
        for chirality in ("holo", "anti"):
            if q == 0 and chirality == "anti":
                continue
            grid.append({"a": a, "b": b, "p": p, "q": q, "j": j, "k": k,
                         "chirality": chirality})
    return grid


def oracle_sweep(seed: int, workdir: str) -> str:
    """Spec file of the whole grid in seeded order.

    The oracle on its hard paths (more angular nodes, bigger moment
    tables, refusals), so changes to accuracy and refusals show.  The
    grid is small enough to run whole in one run, so the outcome shares
    are exact and comparable across seeds; the seed sets the order.
    """
    grid = sweep_grid()
    random.Random(seed).shuffle(grid)
    path = os.path.join(workdir, "sweep_specs.json")
    _write(path, grid)
    return path


# -- files --------------------------------------------------------------------


def _write(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _write_pair(workdir: str, stem: str, docs) -> Tuple[str, str]:
    paths = (os.path.join(workdir, stem + "_left.json"),
             os.path.join(workdir, stem + "_right.json"))
    for path, doc in zip(paths, docs):
        _write(path, doc)
    return paths
