"""Command-line front end.

Every command parses its ideal from the argument text, runs the library,
and emits one report, either human-readable (default) or as a single JSON
document (``--format machine``) with sorted keys and canonically rendered
ideals, stable enough for golden tests.

Exit codes: 0 on success (including negative but consistent answers such as
"not a tree"), 1 when a theorem-backed assertion fails (which would mean a
bug), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

from .decomposition import (
    associated_primes,
    height,
    inclusion_minimal,
    irreducible_decomposition,
    minimal_primes,
    quotient_associated_prime_witnesses,
)
from .monomials import (
    UNIT_IDEAL,
    MonomialIdeal,
    Prime,
    change_ring_ideal,
    coprime_independence_number,
    intersect_all,
    localize,
    sort_primes,
)
from .polarization import (
    depolarize_ideal,
    infer_polar_ring,
    polar_decomposition,
    polarization_sequence,
    polarize_ideal,
)
from .simplicial import (
    MAX_FOREST_FACETS,
    alexander_dual_ideal,
    facet_complex,
    free_vertices,
    independence_number,
    is_connected,
    is_forest,
    is_leaf,
    joints,
    minimal_vertex_covers,
)
from .structure import (
    check_filtration_strata,
    check_joint_removal,
    check_konig,
    check_localization,
    cm_verdict,
    scm_filtration,
    scm_verdict,
)
from .textio import ParseError, parse_ideal, parse_prime, render_ideal

_FLAGS = {
    "--seed": dict(type=int, default=None, help="seed for sampled checks"),
    "--max-facets": dict(type=int, default=MAX_FOREST_FACETS,
                         help="facet cap for the forest check"),
    "--prime": dict(help="variables of the prime, e.g. 'x1,x3'"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polartrees",
        description="Monomial ideals via polarization and simplicial forests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} operation")
        p.add_argument("ideal", help="generators, e.g. 'x1^2, x1*x2, x2^3' ('-' = stdin)")
        p.add_argument("--vars", help="explicit variable list, e.g. 'x,y,z'")
        p.add_argument(
            "--format", choices=("human", "machine"), default="human",
            help="output style (machine = one JSON document)",
        )
        p.add_argument("--max-degree", type=int, default=64,
                       help="reject inputs with larger exponents")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _parse_input(args) -> MonomialIdeal:
    variables = None
    if args.vars:
        variables = [n for n in args.vars.replace(",", " ").split() if n]
    text = sys.stdin.read() if args.ideal == "-" else args.ideal
    ideal = parse_ideal(text, variables)
    if max(ideal.max_exponents()) > args.max_degree:
        raise ParseError(f"exponent exceeds --max-degree={args.max_degree}", 0)
    return ideal


def _gens(ideal: MonomialIdeal) -> list[str]:
    return [str(g) for g in ideal.gens]


def _cmd_polarize(args):
    ideal = _parse_input(args)
    polar = polarize_ideal(ideal)
    ring = polar.ring
    results = {
        "base_ring": list(ideal.ring.names),
        "slots": {name: ring.slots[i] for i, name in enumerate(ideal.ring.names)},
        "polar_ring": list(ring.names),
        "generators": _gens(polar),
        "sequence": [f"{a} - {b}" for a, b in polarization_sequence(ring)],
    }
    return {"ideal": render_ideal(ideal)}, results, None, None


def _cmd_depolarize(args):
    parsed = _parse_input(args)
    ring = infer_polar_ring(parsed.ring)
    base = depolarize_ideal(change_ring_ideal(parsed, ring))
    results = {"ring": list(base.ring.names), "generators": _gens(base)}
    return {"ideal": render_ideal(parsed)}, results, None, None


def _cmd_decompose(args):
    ideal = _parse_input(args)
    components = irreducible_decomposition(ideal)
    verified = intersect_all(c.as_ideal() for c in components) == ideal
    results = {
        "components": [str(c) for c in components],
        "intersection_verified": verified,
        "polar_primes": [str(p) for p in polar_decomposition(ideal)],
    }
    return (
        {"ideal": render_ideal(ideal)},
        results,
        "pass" if verified else "fail",
        None,
    )


def _cmd_ass(args):
    ideal = _parse_input(args)
    primes = sort_primes(associated_primes(ideal))
    witnesses = quotient_associated_prime_witnesses(ideal)
    agree = set(primes) == set(witnesses)
    results = {
        "primes": [str(p) for p in primes],
        "heights": [p.height for p in primes],
        "witnesses": {str(p): str(u) for p, u in sorted(
            witnesses.items(), key=lambda kv: kv[0].indices())},
        "algorithms_agree": agree,
        "minimal_primes": [str(p) for p in inclusion_minimal(primes)],
    }
    return {"ideal": render_ideal(ideal)}, results, "pass" if agree else "fail", None


def _cmd_height(args):
    ideal = _parse_input(args)
    return {"ideal": render_ideal(ideal)}, {"height": height(ideal)}, None, None


def _cmd_beta(args):
    ideal = _parse_input(args)
    results = {"beta": coprime_independence_number(ideal)}
    return {"ideal": render_ideal(ideal)}, results, None, None


def _require_prime(args, ideal) -> Prime:
    if not args.prime:
        raise ParseError("this command needs --prime", 0)
    return parse_prime(args.prime, ideal.ring)


def _cmd_localize(args):
    ideal = _parse_input(args)
    at = _require_prime(args, ideal)
    image = localize(ideal, at)
    if image is UNIT_IDEAL:
        results = {"unit_ideal": True}
    else:
        results = {
            "unit_ideal": False,
            "ring": list(image.ring.names),
            "generators": _gens(image),
        }
    inputs = {"ideal": render_ideal(ideal), "prime": str(at)}
    return inputs, results, None, None


def _cmd_dual(args):
    ideal = _parse_input(args)
    results = {"generators": _gens(alexander_dual_ideal(ideal))}
    return {"ideal": render_ideal(ideal)}, results, None, None


def _alpha_and_unmixed(covers) -> tuple[int, bool]:
    """Covering number and unmixedness, read off the minimal covers."""
    sizes = {len(c) for c in covers}
    return min(sizes), len(sizes) == 1


def _cmd_complex_info(args):
    ideal = _parse_input(args)
    complex_ = facet_complex(ideal)
    alpha, unmixed = _alpha_and_unmixed(minimal_vertex_covers(complex_))
    results = {
        "vertices": list(complex_.vertices),
        "facets": list(complex_.facet_strings()),
        "alpha": alpha,
        "beta": independence_number(complex_),
        "unmixed": unmixed,
        "connected": is_connected(complex_),
    }
    return {"ideal": render_ideal(ideal)}, results, None, None


def _cmd_is_tree(args):
    ideal = _parse_input(args)
    complex_ = facet_complex(ideal)
    forest = is_forest(complex_, max_facets=args.max_facets)
    connected = is_connected(complex_)
    results = {
        "is_forest": forest.is_forest,
        "connected": connected,
        "is_tree": forest.is_forest and connected,
    }
    witness = None
    if forest.witness is not None:
        witness = [complex_.facet_string(f) for f in forest.witness]
    return {"ideal": render_ideal(ideal)}, results, None, witness


def _cmd_leaves(args):
    ideal = _parse_input(args)
    complex_ = facet_complex(ideal)
    rows = []
    for facet, name in zip(complex_.facets, complex_.facet_strings()):
        leaf = is_leaf(complex_, facet)
        rows.append(
            {
                "facet": name,
                "is_leaf": leaf,
                "joints": [complex_.facet_string(g) for g in joints(complex_, facet)],
                "free_vertices": sorted(free_vertices(complex_, facet)),
            }
        )
    return {"ideal": render_ideal(ideal)}, {"facets": rows}, None, None


def _cmd_covers(args):
    ideal = _parse_input(args)
    complex_ = facet_complex(ideal)
    covers = minimal_vertex_covers(complex_)
    alpha, unmixed = _alpha_and_unmixed(covers)
    results = {
        "covers": [complex_.facet_string(c) for c in covers],
        "alpha": alpha,
        "unmixed": unmixed,
    }
    return {"ideal": render_ideal(ideal)}, results, None, None


def _cmd_filtration(args):
    ideal = _parse_input(args)
    filtration = scm_filtration(ideal)
    strata = filtration.strata
    results = {
        "chain": [render_ideal(term) for term in filtration.chain],
        "strata": {
            str(h): [str(c) for c in comps] for h, comps in strata.strata
        },
        "height": strata.height,
        "max_height": strata.max_height,
    }
    return {"ideal": render_ideal(ideal)}, results, None, None


def _cmd_check_konig(args):
    ideal = _parse_input(args)
    report = check_konig(ideal, max_facets=args.max_facets)
    results = {
        "height": report.height,
        "beta": report.coprime_bound,
        "polarization_is_tree": report.polarization_is_tree,
    }
    return {"ideal": render_ideal(ideal)}, results, report.verdict, None


def _cmd_check_joint_removal(args):
    ideal = _parse_input(args)
    report = check_joint_removal(ideal)
    results = {
        "applicable": report.applicable,
        "drops": [
            {
                "generator": str(d.generator),
                "height_before": d.height_before,
                "height_after": d.height_after,
                "ok": d.ok,
            }
            for d in report.drops
        ],
    }
    return {"ideal": render_ideal(ideal)}, results, report.verdict, None


def _localization_primes(args, ideal) -> list[Prime]:
    if args.prime:
        return [parse_prime(args.prime, ideal.ring)]
    primes = list(minimal_primes(ideal))
    full = Prime(ideal.ring, ideal.ring.names)
    if full not in primes:
        primes.append(full)
    if args.seed is not None:
        rng = random.Random(args.seed)
        names = list(ideal.ring.names)
        core = list(primes)
        for _ in range(5):
            base = rng.choice(core)
            extra = [n for n in names if n not in base.variables and rng.random() < 0.5]
            widened = Prime(ideal.ring, tuple(base.variables) + tuple(extra))
            if widened not in primes:
                primes.append(widened)
    return primes


def _cmd_check_localization(args):
    ideal = _parse_input(args)
    entries = []
    all_ok = True
    primes = _localization_primes(args, ideal)
    for report in check_localization(ideal, primes, max_facets=args.max_facets):
        all_ok = all_ok and report.passed
        entries.append(
            {
                "prime": str(report.prime),
                "tree_hypothesis": report.tree_hypothesis,
                "localized": render_ideal(report.localized),
                "is_forest": report.forest.is_forest,
                "polar_of_localization": list(report.polar_of_localization),
                "localization_of_polar": list(report.localization_of_polar),
                "substitution_commutes": report.substitution_commutes,
            }
        )
    results = {"checks": entries}
    return (
        {"ideal": render_ideal(ideal), "seed": args.seed},
        results,
        "pass" if all_ok else "fail",
        None,
    )


def _cmd_cm_verdict(args):
    ideal = _parse_input(args)
    verdict = cm_verdict(ideal, max_facets=args.max_facets)
    return {"ideal": render_ideal(ideal)}, {"verdict": verdict.value}, None, None


def _cmd_scm_verdict(args):
    ideal = _parse_input(args)
    report = scm_verdict(ideal, max_facets=args.max_facets)
    results = {
        "verdict": report.verdict.value,
        "polarization_is_forest": report.polarization_is_forest,
        "connected": report.polarization_is_connected,
        "note": report.note,
    }
    return {"ideal": render_ideal(ideal)}, results, None, None


def _cmd_check_appendix(args):
    ideal = _parse_input(args)
    report = check_filtration_strata(ideal, max_facets=args.max_facets)
    steps = []
    for step in report.steps:
        steps.append(
            {
                "index": step.index,
                "height_bound": step.height_bound,
                "quotient_expected": [str(p) for p in step.quotient_expected],
                "quotient_actual": [str(p) for p in step.quotient_actual],
                "submodule_expected": [str(p) for p in step.submodule_expected],
                "submodule_actual": [str(p) for p in step.submodule_actual],
                "consistency_ok": step.consistency_ok,
                "passed": step.passed,
            }
        )
    results = {
        "polarization_is_forest": report.polarization_is_forest,
        "chain": [render_ideal(term) for term in report.filtration.chain],
        "steps": steps,
    }
    if report.passed:
        verdict = "pass"
    elif report.polarization_is_forest:
        verdict = "fail"  # the forest hypothesis held, so this is a bug
    else:
        verdict = "inapplicable"
    return {"ideal": render_ideal(ideal)}, results, verdict, None


# Commands in --help order, each with its handler and the optional flags it
# honours; any other flag is a usage error.
_COMMANDS = {
    "polarize": (_cmd_polarize, ()),
    "depolarize": (_cmd_depolarize, ()),
    "decompose": (_cmd_decompose, ()),
    "ass": (_cmd_ass, ()),
    "height": (_cmd_height, ()),
    "beta": (_cmd_beta, ()),
    "localize": (_cmd_localize, ("--prime",)),
    "dual": (_cmd_dual, ()),
    "complex-info": (_cmd_complex_info, ()),
    "is-tree": (_cmd_is_tree, ("--max-facets",)),
    "leaves": (_cmd_leaves, ()),
    "covers": (_cmd_covers, ()),
    "filtration": (_cmd_filtration, ()),
    "check-konig": (_cmd_check_konig, ("--max-facets",)),
    "check-joint-removal": (_cmd_check_joint_removal, ()),
    "check-localization": (
        _cmd_check_localization, ("--max-facets", "--seed", "--prime")),
    "cm-verdict": (_cmd_cm_verdict, ("--max-facets",)),
    "scm-verdict": (_cmd_scm_verdict, ("--max-facets",)),
    "check-appendix": (_cmd_check_appendix, ("--max-facets",)),
}


def _render_human(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_human(item, indent + 1))
            else:
                shown = item if not isinstance(item, (dict, list)) else "[]"
                lines.append(f"{pad}{key}: {shown}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_human(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    start = time.perf_counter()
    try:
        handler, _ = _COMMANDS[args.command]
        inputs, results, verdict, witness = handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)

    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "verdict": verdict,
        "witness": witness,
        "elapsed_ms": elapsed_ms,
    }
    if args.format == "machine":
        print(json.dumps(report, sort_keys=True))
    else:
        lines = [f"command: {args.command}"]
        lines.extend(_render_human({"inputs": inputs}, 0))
        lines.extend(_render_human({"results": results}, 0))
        if verdict is not None:
            lines.append(f"verdict: {verdict}")
        if witness is not None:
            lines.append("witness:")
            lines.extend(_render_human(witness, 1))
        lines.append(f"elapsed_ms: {elapsed_ms}")
        print("\n".join(lines))
    return 0 if verdict in (None, "pass", "inapplicable") else 1


if __name__ == "__main__":
    sys.exit(main())
