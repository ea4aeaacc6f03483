"""Seeded inputs, operations and output checks for the four workloads.

The seed is consumed here: the package only ever sees the generated
inputs. This module never imports cndescent itself. Operations receive
the imported package, so the parent process can build inputs without
paying for the package import, and so the operations resolve every call
through module attributes, where the tracer's wrappers live.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd, isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
DEFAULT_SEED = 0

# classify: distinct squarefree k < CLASSIFY_K_BOUND through descend + to_json
CLASSIFY_K_BOUND = 1000
CLASSIFY_N = 100
CLASSIFY_HEIGHT = 200
# search: k = pl, p < l primes = 1 mod 8 below the bound, (p/l) = +1
SEARCH_PRIME_BOUND = 600
SEARCH_N = 100
SEARCH_HEIGHT = 250
# survey: one (1,1), (p/l) = +1 family sweep without point search
SURVEY_BOUND = 4000
# profile: admissible pairs of primes = 1 mod 8 below the bound
PROFILE_PRIME_BOUND = 10**6
PROFILE_N = 4000
# stratified draws per seed, of which the most typical is kept
BALANCE_DRAWS = 64

WORKLOADS = ("classify", "search", "survey", "profile")
N_OPS = {"classify": CLASSIFY_N, "search": SEARCH_N, "survey": 1, "profile": PROFILE_N}

# to_json keys when reference.json was made; digests cover only these,
# so a field added to a report later does not read as a changed answer
DESCENT_KEYS = (
    "k", "selmer_psi", "selmer_phi", "w_psi", "w_phi", "sha_psi_cert",
    "sha_phi_cert", "rank_lower", "rank_upper", "sha2_dim", "noncongruent",
    "height", "witnesses", "notes",
)
SURVEY_ROW_KEYS = (
    "k", "p", "l", "profile", "rank_lower", "rank_upper", "sha_phi",
    "sha_psi", "witnesses",
)
SURVEY_SUMMARY_KEYS = ("total", "rank_zero", "rank_zero_fraction", "per_profile")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def combine(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


# --- input generation ------------------------------------------------------------


def squarefree_below(bound: int) -> list[int]:
    return [k for k in range(1, bound) if all(k % (q * q) for q in range(2, isqrt(k) + 1))]


def primes_below(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\x00\x00"
    for q in range(2, isqrt(bound - 1) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, bound, q)))
    return [n for n in range(bound) if sieve[n]]


def legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def admissible_pairs(prime_bound: int) -> list[list[int]]:
    """All p < l, both prime = 1 mod 8 below the bound, with (p/l) = +1."""
    ps = [q for q in primes_below(prime_bound) if q % 8 == 1]
    return [[p, l] for i, p in enumerate(ps) for l in ps[i + 1 :] if legendre(p, l) == 1]


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def stratified(size: int, n: int, rng: random.Random) -> list[int]:
    """One index from each of n consecutive, nearly equal blocks of range(size)."""
    if not 0 < n <= size:
        raise ValueError(f"cannot draw {n} strata from {size} inputs")
    return [i * size // n + rng.randrange((i + 1) * size // n - i * size // n) for i in range(n)]


def _shape(idx, ref) -> tuple:
    cs = [ref["cost_s"][i] for i in idx]
    return (
        sum(cs), percentile(cs, 50), percentile(cs, 90), max(cs),
        sum(ref["decided"][i] for i in idx), max(ref["rss_mb"][i] for i in idx),
    )


def balanced_sample(ref: dict, n: int, rng: random.Random) -> list[int]:
    """Indices of a sample of n from a population sorted by (decided, cost).

    A plain random sample of this population swings by tens of percent in
    run time from seed to seed, because a few inputs cost 30 times the
    median, and in peak memory, which the largest prime k sets. So the
    sample is stratified along the sorted population, and of BALANCE_DRAWS
    such draws the one is kept whose total, median, p90 and maximum
    reference cost, decided count and largest single-op peak RSS lie
    nearest those of a typical draw. The members still change with the
    seed; the mix does not.
    """
    size = len(ref["order"])
    typical_rng = random.Random("typical")
    shapes = [_shape(stratified(size, n, typical_rng), ref) for _ in range(200)]
    typical = [percentile(column, 50) for column in zip(*shapes)]

    def distance(idx):
        return sum(abs(a - t) / t for a, t in zip(_shape(idx, ref), typical) if t)

    return min((stratified(size, n, rng) for _ in range(BALANCE_DRAWS)), key=distance)


def make_inputs(workload: str, seed: int, reference: dict) -> list:
    """The items one pass of the workload runs; the same seed, the same items."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("classify", "search"):
        ref = reference[workload]
        idx = balanced_sample(ref, N_OPS[workload], rng)
        items = [ref["order"][i] for i in idx]
        rng.shuffle(items)
        return items
    if workload == "survey":
        # one fixed family box; the seed has nothing to vary in a single sweep
        return [SURVEY_BOUND]
    if workload == "profile":
        ps = [q for q in primes_below(PROFILE_PRIME_BOUND) if q % 8 == 1]
        seen: set[tuple[int, int]] = set()
        items = []
        while len(items) < PROFILE_N:
            p, l = sorted(rng.sample(ps, 2))
            if (p, l) in seen or legendre(p, l) != 1:
                continue
            seen.add((p, l))
            items.append([p, l])
        return items
    raise ValueError(f"unknown workload {workload!r}")


# --- operations (timed) ----------------------------------------------------------


def op_classify(pkg, k):
    return json.dumps(pkg.descend(k, height=CLASSIFY_HEIGHT).to_json())


def op_search(pkg, pair):
    p, l = pair
    return json.dumps(pkg.descend(p * l, height=SEARCH_HEIGHT).to_json())


def op_survey(pkg, bound):
    spec = pkg.survey.FamilySpec(bound=bound, residues=(1, 1), legendre=1)
    rows, summary = pkg.survey.run_survey(spec, height=0)
    return pkg.survey.render_ndjson(rows, summary)


def op_profile(pkg, pair):
    return pkg.criteria.classify_11_plus(*pair)


OPS = {"classify": op_classify, "search": op_search, "survey": op_survey, "profile": op_profile}


# --- output checks (untimed) -----------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def torsor_constant(k: int, side: str) -> int:
    if side == "psi":
        return -k * k
    return 4 * k * k if k % 2 else k * k // 4


def check_report(rep: dict, k: int) -> None:
    """Invariants any descent report must satisfy, checked from its JSON."""
    _require(rep["k"] == k, f"report is for k={rep['k']}, not {k}")
    _require(rep["rank_lower"] <= rep["rank_upper"], "rank_lower > rank_upper")
    _require(rep["noncongruent"] == (rep["rank_upper"] == 0), "noncongruent != (rank_upper == 0)")
    for side, points in rep["witnesses"].items():
        const = torsor_constant(k, side)
        selmer = set(rep[f"selmer_{side}"])
        for b1_text, (n, m, e) in points.items():
            b1 = int(b1_text)
            _require(const % b1 == 0 and b1 in selmer, f"{side} witness class {b1} not in Selmer")
            _require((n, m, e) != (0, 0, 0) and gcd(m, e) == 1, f"{side} witness {b1} not primitive")
            _require(n * n == b1 * m**4 + const // b1 * e**4, f"{side} witness {b1} off its torsor")


def _descent_record(text: str, k: int):
    rep = json.loads(text)
    check_report(rep, k)
    return digest({key: rep[key] for key in DESCENT_KEYS}), 1, int(rep["rank_lower"] == rep["rank_upper"])


def record_classify(k, out, reference):
    return _descent_record(out, k)


def record_search(pair, out, reference):
    return _descent_record(out, pair[0] * pair[1])


def record_survey(bound, out, reference):
    lines = out.splitlines()
    rows = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])["summary"]
    for row in rows:
        _require(row["rank_lower"] <= row["rank_upper"], f"row k={row['k']}: rank_lower > rank_upper")
        _require(row["k"] == row["p"] * row["l"], f"row k={row['k']} is not p*l")
    _require(summary["total"] == len(rows), "summary total != number of rows")
    d = combine(
        [digest({key: row[key] for key in SURVEY_ROW_KEYS}) for row in rows]
        + [digest({key: summary[key] for key in SURVEY_SUMMARY_KEYS})]
    )
    return d, len(rows), sum(row["rank_lower"] == row["rank_upper"] for row in rows)


def _power_sign(a: int, p: int, n: int) -> int:
    r = pow(a % p, (p - 1) // n, p)
    _require(r in (1, p - 1), f"({a}/{p})_{n} is not a sign")
    return 1 if r == 1 else -1


def record_profile(pair, c, reference):
    p, l = pair
    rec = [
        c.k, list(c.profile), c.rank_bound, sorted(c.sha_psi, key=abs),
        sorted(c.sha_phi, key=abs), sorted(c.w_phi, key=abs), c.sha2_dim,
    ]
    _require(c.k == p * l, "classification is for another k")
    pi, a, b, cc, d = rec[1]
    _require(pi in (1, -1), "[P/L] is not a sign")
    # the rational symbols, recomputed here by Euler's criterion
    want = (_power_sign(l, p, 4), _power_sign(p, l, 4), _power_sign(-4, p, 8), _power_sign(-4, l, 8))
    _require((a, b, cc, d) == want, f"symbols {(a, b, cc, d)} != {want}")
    # the paper's grid row for this profile fixes the rank bound and Sha dims
    rank_bound, psi_dim, phi_dim = reference["profile"]["grid"][",".join(map(str, rec[1]))]
    _require(rec[2] == rank_bound, f"rank bound {rec[2]} != grid {rank_bound}")
    _require(len(rec[3]) == 2**psi_dim and len(rec[4]) == 2**phi_dim, "Sha dimensions differ from the grid")
    return digest(rec), 1, int(rec[2] == 0)


RECORDS = {
    "classify": record_classify,
    "search": record_search,
    "survey": record_survey,
    "profile": record_profile,
}


def expected_digests(workload: str, items: list, seed: int, reference: dict) -> list:
    """Reference digest per op, None where reference.json has none.

    classify and search have one per input of their whole population, survey
    one per bound, and profile one per op of the default seed only (its
    other seeds rely on the independent symbol and grid checks).
    """
    ref = reference[workload]
    if workload == "classify":
        return [ref["digests"][str(k)] for k in items]
    if workload == "search":
        return [ref["digests"][str(p * l)] for p, l in items]
    if workload == "survey":
        return [ref["digests"][str(b)] for b in items]
    if seed == DEFAULT_SEED:
        return list(ref["default_seed_ops"])
    return [None] * len(items)
