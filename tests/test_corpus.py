"""A bit-exact corpus: 200 seeded maps and the hex of every float the library computes for them.

``tests/data/corpus_pinned.json`` holds each map's fields, every float as
``float.hex``, one map per line. The test draws the maps again from the
seed and recomputes every field, so a change that moves one bit of a
certificate, a constant, a bound, an evaluation, a solve or a lifted run
fails here. A change that moves a value on purpose regenerates the file
once, from the repository root::

    PYTHONPATH=src python tests/test_corpus.py

and lists each changed field and why. The maps are drawn without ``sum()``,
whose float result differs between Python versions: 160 linear maps with
1-64 head coefficients, signed tails and offsets, some with a zero head
entry, a zero tail coefficient or a zero tail ratio; 20 affine Prešić maps
of arity 1-5; and 20 truncations of linear maps.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import islice
from pathlib import Path

from seqfix import (
    BoundedSeq,
    FiniteArityMap,
    LinearSeqMap,
    find_p_certificate,
    find_sup_certificate,
    solve_fixed_point,
    truncate,
)
from seqfix.maps import _lip_lower_bounds

PINNED = Path(__file__).resolve().parent / "data" / "corpus_pinned.json"
SEED = 0
#: weights of the recorded lip_sup values, and (p, q) pairs of the recorded lip_p values
SUP_WEIGHTS = (0.5, 0.9, 1.0)
P_PAIRS = ((1.0, 0.5), (2.0, 0.5), (3.0, 0.9))
HINT_ARITIES = (1, 8, 64)
#: families of the empirical bounds, one draw of EMPIRICAL_TRIALS pairs from the map's index
FAMILIES = ((0.9, None), (0.5, 1.0), (0.5, 2.0))
EMPIRICAL_TRIALS = 50
SOLVE_TOL = 1e-6
ITERATES = 200
#: entries of the seeded sequence each map is evaluated at, besides its start
EVAL_ENTRIES = 300


def hexes(values):
    return [v.hex() for v in values]


def floats(texts):
    return tuple(map(float.fromhex, texts))


def _signed(rng: random.Random, scale: float) -> float:
    return (1.0 if rng.random() < 0.5 else -1.0) * scale * rng.random()


def _linear_params(rng: random.Random, i: int) -> dict:
    """A linear map: head i % 64 + 1 long, each entry at most mass / N, one in ten of them zero."""
    n = i % 64 + 1
    mass = 0.2 + 0.75 * rng.random()
    head = [0.0 if rng.random() < 0.1 else _signed(rng, mass / n) for _ in range(n)]
    ratio = 0.0 if i % 10 == 3 else _signed(rng, 0.95)
    tail = 0.0 if i % 10 == 7 else _signed(rng, 0.3 * mass) * (1.0 - abs(ratio))
    return {"kind": "linear", "head": hexes(head), "tail": tail.hex(), "ratio": ratio.hex(),
            "offset": _signed(rng, 2.0).hex()}


def draw_params(seed: int = SEED) -> list[dict]:
    """Every map's parameters and seeded start, drawn from ``seed``."""
    rng = random.Random(seed)
    params = []
    for i in range(200):
        if i % 10 == 1:
            m = i % 5 + 1
            p = {"kind": "presic", "coeffs": hexes(_signed(rng, 0.9 / m) for _ in range(m)),
                 "offset": _signed(rng, 2.0).hex()}
        elif i % 10 == 6:
            p = {"kind": "truncation", "of": _linear_params(rng, i), "n": i % 8 + 1, "base": _signed(rng, 1.0).hex()}
        else:
            p = _linear_params(rng, i)
        prefix = [_signed(rng, 1.0) for _ in range(rng.randrange(0, 9))]
        p["start"] = {"prefix": hexes(prefix), "tail": _signed(rng, 1.0).hex()}
        params.append(p)
    return params


def _affine(coeffs: tuple[float, ...], offset: float):
    def rule(*args: float) -> float:
        acc = offset
        for c, a in zip(coeffs, args):
            acc += c * a
        return acc

    return rule


def build(p: dict):
    """The map the parameters describe."""
    if p["kind"] == "linear":
        return LinearSeqMap(floats(p["head"]), float.fromhex(p["tail"]), float.fromhex(p["ratio"]),
                            float.fromhex(p["offset"]))
    if p["kind"] == "presic":
        coeffs = floats(p["coeffs"])
        hint = 0.0
        for c in coeffs:
            hint += abs(c)
        return FiniteArityMap(len(coeffs), _affine(coeffs, float.fromhex(p["offset"])), hint)
    return truncate(build(p["of"]), p["n"], float.fromhex(p["base"]))


def _eval_point(index: int) -> BoundedSeq:
    """:data:`EVAL_ENTRIES` entries and a tail drawn from ``index``, each a signed zero one time in five."""
    rng = random.Random(index)
    *prefix, tail = [(0.0 if rng.random() < 0.5 else -0.0) if rng.random() < 0.2 else _signed(rng, 1.0)
                     for _ in range(EVAL_ENTRIES + 1)]
    return BoundedSeq(tuple(prefix), tail)


def _iterates(f, x0: BoundedSeq) -> dict:
    """The hex of the first :data:`ITERATES` values, the text of a ``ValueError`` where one is raised, as a digest."""
    out = []
    try:
        out.extend(v.hex() for v in islice(f.iterates(x0), ITERATES))
    except ValueError as e:
        out.append(f"ValueError: {e}")
    return {"last": out[-1], "count": len(out), "sha256": hashlib.sha256("\n".join(out).encode()).hexdigest()}


def fields(p: dict, index: int) -> dict:
    """Every recorded field of the map ``p`` describes, at position ``index`` of the corpus."""
    f = build(p)
    x0 = BoundedSeq(floats(p["start"]["prefix"]), float.fromhex(p["start"]["tail"]))
    sup = find_sup_certificate(f)
    pc = find_p_certificate(f, 0.5)
    out = {
        "sup": None if sup is None else hexes((sup.q, sup.lip)),
        "p": None if pc is None else hexes((pc.p, pc.q, pc.lip)),
        "lip_sup": hexes(f.lip_sup(q) for q in SUP_WEIGHTS),
        "lip_p": hexes(f.lip_p(pp, q) for pp, q in P_PAIRS),
        "fixed_point": f.fixed_point().hex() if isinstance(f, LinearSeqMap) else None,
        "truncation_hint": [None if h is None else h.hex() for h in map(f.truncation_hint, HINT_ARITIES)],
        "empirical": hexes(_lip_lower_bounds(f, FAMILIES, EMPIRICAL_TRIALS, index)),
        "iterates": _iterates(f, x0),
        "eval": hexes((f.eval(x0), f.eval(_eval_point(index)))),
    }
    if index % 4 == 0 and sup is not None:
        try:
            sol = solve_fixed_point(f, x0, sup, SOLVE_TOL)
            out["solve"] = [sol.value.hex(), sol.k_used]
        except ValueError as e:
            out["solve"] = f"ValueError: {e}"
    return out


def test_the_corpus_keeps_every_bit():
    pinned = [json.loads(line) for line in PINNED.read_text().splitlines()]
    params = draw_params()
    assert [want["kind"] for want in pinned] == [p["kind"] for p in params]
    moved = []
    for i, (p, want) in enumerate(zip(params, pinned)):
        got = {"kind": p["kind"], **fields(p, i)}
        moved += [(i, name) for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)]
    assert not moved, f"{len(moved)} fields moved, the first: {moved[:10]}"


def main() -> None:
    lines = [json.dumps({"kind": p["kind"], **fields(p, i)}) for i, p in enumerate(draw_params())]
    PINNED.write_text("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} maps to {PINNED}")


if __name__ == "__main__":
    sys.exit(main())
