"""Command-line entry point.

Subcommands: validate, expectation-build, ideals, classify, enumerate,
verify-theorems, expect.  Exit codes: 0 success / all checks pass, 1 any
validation error, unreadable or unwritable file, or check failure, 2 usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog, theorems
from .construct import build_expectation
from .elements import classify
from .ideals import (
    enumerate_ideals,
    is_maximal,
    is_primary,
    is_prime,
    is_subtractive,
    is_weakly_prime,
    radical,
)
from .numeric import ZeroMass, brute_force_total, expectation_from_total, forward_total, graph_from_dict
from .tables import (
    BaseMismatch,
    semimodule_to_dict,
    semiring_to_dict,
    semimodule_violations,
    semiring_violations,
    validate_semimodule,
    validate_semiring,
)

SCHEMA_PREFIX = "semiringlab"


class NotAnObject(ValueError):
    """An input file whose top-level JSON value is not an object."""


class BadPairing(ValueError):
    """A ``pairing`` block that is not one [scalar, vector] integer pair per element."""


class OutputNotEmpty(ValueError):
    """An output directory that already holds files, which a run would mix with its own."""


class UnloadableJson(ValueError):
    """JSON the parser cannot load: nested past the recursion limit, or an integer past the digit limit."""


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError):  # typed already, with their own messages
            raise
        except (RecursionError, ValueError) as exc:
            raise UnloadableJson(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise NotAnObject(f"{path}: top level must be a JSON object, not {type(data).__name__}")
    return data


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _resolve_base(data: dict, path: str):
    """Resolve the 'base' field of a module file: inline object, builtin name, or path."""
    base = data.get("base")
    if isinstance(base, dict):
        return validate_semiring(base)
    if isinstance(base, str):
        if base.endswith(".json"):
            candidate = Path(path).parent / base
            return validate_semiring(_load_json(str(candidate)))
        return catalog.builtin(base).structure
    raise BaseMismatch(
        "module files need a 'base': an inline semiring object, a builtin name, or a .json path"
    )


def _load_module(path: str, semiring):
    """The module file at ``path``, over its own ``base`` or, when that is missing or null, ``semiring``."""
    data = _load_json(path)
    base = semiring if data.get("base") is None else _resolve_base(data, path)
    return validate_semimodule(base, data)


def cmd_validate(args) -> int:
    results = []
    status = 0
    for path in args.paths:
        kind = None
        try:
            data = _load_json(path)
            kind = "semimodule" if "action" in data else "semiring"
            if kind == "semimodule":
                base = _resolve_base(data, path)
                violations = semimodule_violations(base, data)
            else:
                violations = semiring_violations(data)
        except (ValueError, OSError) as exc:  # an unreadable file, a malformed table, or a bad base, as in main
            print(f"{path}: ERROR {exc}")
            results.append({"path": path, "kind": kind, "valid": False, "error": str(exc)})
            status = 1
            continue
        if violations:
            status = 1
            print(f"{path}: INVALID {kind} ({len(violations)} violated axioms)")
            for v in violations:
                print(f"  {v}")
        else:
            print(f"{path}: valid {kind}")
        results.append(
            {
                "path": path,
                "kind": kind,
                "valid": not violations,
                "violations": [{"axiom": v.axiom, "witness": list(v.witness)} for v in violations],
            }
        )
    if args.json:
        _write_json(args.json, {"schema": f"{SCHEMA_PREFIX}/validate/1", "results": results})
    return status


def cmd_expectation_build(args) -> int:
    semiring = validate_semiring(_load_json(args.semiring))
    module = _load_module(args.module, semiring)
    instance = build_expectation(semiring, module)
    payload = semiring_to_dict(instance.product)
    payload["pairing"] = [list(pair) for pair in instance.pairs]
    _write_json(args.out, payload)
    print(
        f"built {instance.product.name}: size {instance.product.size}, "
        f"zero {instance.product.zero}, one {instance.product.one} -> {args.out}"
    )
    return 0


def _member_labels(members, pairing):
    if pairing is None:
        return sorted(members)
    return [list(pairing[k]) for k in sorted(members)]


def _pairing(data: dict, size: int):
    """The optional ``pairing`` block: one [scalar, vector] index pair per element."""
    pairing = data.get("pairing")
    if pairing is None:
        return None
    is_pair = lambda p: isinstance(p, list) and len(p) == 2 and all(type(k) is int for k in p)
    if not (isinstance(pairing, list) and len(pairing) == size and all(map(is_pair, pairing))):
        raise BadPairing(f"pairing must be a list of {size} [scalar, vector] integer pairs")
    return pairing


def cmd_ideals(args) -> int:
    data = _load_json(args.instance)
    semiring = validate_semiring(data)
    pairing = _pairing(data, semiring.size)
    ideals = enumerate_ideals(semiring)
    rows = []
    for ideal in ideals:
        proper = ideal.is_proper()
        row = {
            "members": _member_labels(ideal.members, pairing),
            "size": len(ideal),
            "proper": proper,
            "subtractive": is_subtractive(ideal),
            "prime": is_prime(ideal) if proper else None,
            "maximal": is_maximal(ideal, ideals) if proper else None,
            "primary": is_primary(ideal) if proper else None,
            "weakly_prime": is_weakly_prime(ideal) if proper else None,
            "radical": _member_labels(radical(ideal).members, pairing),
        }
        rows.append(row)
    print(f"{semiring.name or args.instance}: {len(rows)} ideals")
    for row in rows:
        flags = ",".join(
            key
            for key in ("subtractive", "prime", "maximal", "primary", "weakly_prime")
            if row[key]
        )
        print(f"  size {row['size']:>3}  [{flags}]  {row['members']}")
    if args.report:
        _write_json(
            args.report,
            {"schema": f"{SCHEMA_PREFIX}/ideals/1", "instance": semiring.name, "ideals": rows},
        )
    return 0


def cmd_classify(args) -> int:
    data = _load_json(args.instance)
    semiring = validate_semiring(data)
    if args.module:
        semiring = build_expectation(semiring, _load_module(args.module, semiring)).product
    payload = {"schema": f"{SCHEMA_PREFIX}/class-report/1", **classify(semiring)}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        _write_json(args.out, payload)
    return 0


def cmd_enumerate(args) -> int:
    if args.out and Path(args.out).is_dir() and any(Path(args.out).iterdir()):
        raise OutputNotEmpty(f"{args.out}: output directory already holds files")
    if args.modules_over:
        semiring = validate_semiring(_load_json(args.modules_over))
        entries = catalog.enumerate_semimodules(semiring, args.order)
        as_dict = lambda e: semimodule_to_dict(e.structure)
    else:
        entries = catalog.enumerate_semirings(args.order)
        as_dict = lambda e: semiring_to_dict(e.structure)
    print(f"found {len(entries)} structures of order {args.order}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for entry in entries:
            payload = as_dict(entry)
            payload["name"] = entry.name
            _write_json(str(out_dir / f"{entry.name}.json"), payload)
        print(f"wrote {len(entries)} files to {out_dir}")
    else:
        for entry in entries:
            print(f"  {entry.name}")
    return 0


def cmd_verify_theorems(args) -> int:
    cells = theorems.default_grid(
        max_order=args.max_order,
        include_builtins=args.catalog,
        module_order=min(args.max_order, 3),
    )
    report = theorems.run_suite(cells, seed=args.seed, jobs=args.jobs)
    print(report.format_matrix())
    print("informational:")
    for note in report.informational:
        print(f"  {json.dumps(note, sort_keys=True)}")
    failures = report.failures()
    for record in failures[:20]:
        print(f"FAIL {record.theorem} on {record.instance}: {record.witness}")
    if args.json:
        _write_json(args.json, report.to_dict())
    return 1 if failures else 0


def cmd_expect(args) -> int:
    graph = graph_from_dict(_load_json(args.graph))
    total = forward_total(graph)
    print(f"Z = {total.p!r}")
    print(f"r = {list(total.r)!r}")
    try:
        print(f"expectation = {list(expectation_from_total(total))!r}")
    except ZeroMass:
        print("expectation undefined: zero total mass")
    if args.oracle:
        reference = brute_force_total(graph, max_paths=args.max_paths)
        agree = total.isclose(reference)
        print(f"oracle {'agrees' if agree else 'DISAGREES'}: Z={reference.p!r} r={list(reference.r)!r}")
        if not agree:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiringlab",
        description="Finite semiring/semimodule workbench and verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check table files against the structure axioms")
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.add_argument("--json", metavar="OUT", help="write a machine-readable result file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("expectation-build", help="build the product of a semiring and a module")
    p.add_argument("--semiring", required=True, metavar="FILE")
    p.add_argument("--module", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_expectation_build)

    p = sub.add_parser("ideals", help="enumerate ideals with their predicate vector")
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--report", metavar="OUT", help="write the ideal table as JSON")
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("classify", help="element census and class flags")
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--module", metavar="FILE", help="classify the product with this module instead")
    p.add_argument("--out", metavar="OUT")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="exhaustively enumerate small structures")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--modules-over", metavar="FILE", help="enumerate modules over this semiring")
    p.add_argument("--out", metavar="DIR", help="write one JSON file per structure")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-theorems", help="run the verification suite over the grid")
    p.add_argument("--catalog", action="store_true", help="include the builtin pairs")
    p.add_argument("--max-order", type=int, default=3, help="largest enumerated scalar order")
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized numeric sections")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for grid cells")
    p.add_argument("--json", metavar="OUT", help="write the full report as JSON")
    p.set_defaults(func=cmd_verify_theorems)

    p = sub.add_parser("expect", help="totals and expectation over a weighted DAG")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--oracle", action="store_true", help="compare against path enumeration")
    p.add_argument("--max-paths", type=int, default=20)
    p.set_defaults(func=cmd_expect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be at least 1")
    if getattr(args, "max_paths", 1) < 1:
        parser.error("--max-paths must be at least 1")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every typed error here is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
