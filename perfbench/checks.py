"""Answer checks, run outside the timed region.

Each query's machine output is checked four ways:

* its own flags: ``intersection_verified`` and ``algorithms_agree`` must be
  true and ``verdict`` must not be ``fail``;
* every ``ass`` witness u by soundness: (I : u) is recomputed here and must
  be the prime it is named for (witness strings are not compared, since a
  smaller witness box may pick other witnesses);
* the facts the generator knows by construction (forest or not, the
  components of a few-generator ideal, the ideal a polarization came from,
  covers that are minimal vertex covers);
* for the committed seed, a digest of the whole report without
  ``elapsed_ms`` against the one stored in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import re

_NAME = re.compile(r"x\[\d+,\d+\]|[A-Za-z][0-9]*")


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


def parse_monomial(text: str) -> dict[str, int]:
    """'x1^2*x3' -> {'x1': 2, 'x3': 1}; '1' -> {}."""
    exps: dict[str, int] = {}
    if text.strip() == "1":
        return exps
    for factor in text.split("*"):
        name, _, power = factor.strip().partition("^")
        exps[name] = exps.get(name, 0) + (int(power) if power else 1)
    return exps


def parse_gens(text: str) -> list[dict[str, int]]:
    """Split a generator list at the commas between monomials."""
    return [parse_monomial(m) for m in re.split(r",\s*(?![^\[]*\])", text.strip("() "))]


def prime_names(text: str) -> frozenset[str]:
    return frozenset(_NAME.findall(text))


def colon_prime(gens: list[dict[str, int]], u: dict[str, int]) -> frozenset[str] | None:
    """The variables of (I : u) when that colon is a prime, else None."""
    quotients = []
    for g in gens:
        q = {v: e - u.get(v, 0) for v, e in g.items() if e > u.get(v, 0)}
        if not q:
            return None  # u is in I
        quotients.append(q)
    minimal = [
        q for q in quotients
        if not any(o != q and all(q.get(v, 0) >= e for v, e in o.items())
                   for o in quotients)
    ]
    if any(len(q) != 1 or next(iter(q.values())) != 1 for q in minimal):
        return None
    return frozenset(next(iter(q)) for q in minimal)


def check(query, code, output: str, stored: str | None) -> tuple[str | None, str | None]:
    """Return (error or None, digest of the report or None)."""
    if code != 0:
        return f"exit {code}", None
    try:
        report = json.loads(output.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "no machine report", None
    digest = report_digest(report)
    try:
        error = _check_report(query, report, report.get("results") or {})
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        error = f"unreadable report: {exc!r}"
    if error is None and stored is not None and digest != stored:
        error = f"digest {digest} != stored {stored}"
    return error, digest


def _check_report(query, report: dict, results: dict) -> str | None:
    if report.get("command") != query.command:
        return f"command {report.get('command')!r}"
    if report.get("verdict") == "fail":
        return "verdict fail"
    for flag in ("intersection_verified", "algorithms_agree"):
        if results.get(flag) is False:
            return f"{flag} false"
    expect = query.expect
    for key, fields in (("is_forest", ("is_forest", "polarization_is_forest")),
                        ("is_tree", ("is_tree",))):
        for name in fields:
            if key in expect and name in results and results[name] != expect[key]:
                return f"{name} {results[name]} != {expect[key]}"
    if query.command == "ass":
        return _check_witnesses(query.text, results)
    if "components" in expect:
        got = sorted(
            sorted(pair for g in parse_gens(c) for pair in g.items())
            for c in results.get("components", ())
        )
        want = sorted(
            sorted((f"x{i + 1}", e) for i, e in enumerate(c) if e) for c in expect["components"]
        )
        if got != want:
            return "components differ from the splitting oracle"
    if "generators" in expect:
        got = sorted(sorted(parse_monomial(g).items()) for g in results.get("generators", ()))
        want = sorted(sorted(m.items()) for m in parse_gens(expect["generators"]))
        if got != want:
            return "depolarization differs from the source ideal"
    if query.command == "covers":
        return _check_covers(query.text, results)
    return None


def _check_witnesses(text: str, results: dict) -> str | None:
    gens = parse_gens(text)
    witnesses = results.get("witnesses", {})
    if sorted(witnesses) != sorted(results.get("primes", ())):
        return "witnessed primes differ from the listed primes"
    for prime, u in witnesses.items():
        if colon_prime(gens, parse_monomial(u)) != prime_names(prime):
            return f"(I : {u}) is not {prime}"
    return None


def _check_covers(text: str, results: dict) -> str | None:
    facets = [frozenset(m) for m in parse_gens(text)]
    covers = [prime_names(c) for c in results.get("covers", ())]
    if not covers or len(set(covers)) != len(covers):
        return "no covers, or a repeated cover"
    for cover in covers:
        if not all(f & cover for f in facets):
            return f"{sorted(cover)} misses a facet"
        if any(all(f & (cover - {v}) for f in facets) for v in cover):
            return f"{sorted(cover)} is not minimal"
    if results.get("alpha") != min(len(c) for c in covers):
        return "alpha is not the smallest cover size"
    return None
