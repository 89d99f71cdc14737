"""Command-line front end: solve, check, construct, compare, gen.

Exit codes: 0 = yes/agreement, 1 = no/violation/disagreement, 2 = input or
resource error, 3 = internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import Optional

from . import formats, generators, relax, theory
from .core import (
    GAP,
    Instance,
    PromiseTemplate,
    ValuedStructure,
    pvcsp_oracle,
    YES,
)
from .errors import FormatError, InvariantViolated, PreconditionViolated, PvcspError
from .theory import BlockPartition, PromiseFpol
from .values import format_value

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_structure(path: str) -> ValuedStructure:
    return formats.parse_structure(_read(path))


def _load_instance(path: str) -> Instance:
    return formats.parse_instance(_read(path))


def _parse_partition(spec: str) -> BlockPartition:
    if not spec.startswith("sizes:"):
        raise FormatError("partition spec must look like 'sizes:2,1'")
    sizes = spec[len("sizes:") :].split(",")
    try:
        # int() would also read signs, spaces and non-ASCII digits
        if not all(s.isascii() and s.isdigit() for s in sizes):
            raise ValueError("sizes must be ASCII digits")
        # a size of 0 makes an empty block, which from_sizes rejects
        return BlockPartition.from_sizes([int(s) for s in sizes])
    except ValueError as exc:
        raise FormatError(f"bad partition {spec!r}: {exc}") from None


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _format_optional(value) -> Optional[str]:
    return None if value is None else format_value(value)


def cmd_solve(args) -> int:
    if args.gamma and args.algorithm != "oracle":
        raise PreconditionViolated("--gamma is read only by --algorithm oracle")
    delta = _load_structure(args.structure)
    instance = _load_instance(args.instance)
    if args.algorithm == "oracle":
        gamma = _load_structure(args.gamma) if args.gamma else delta
        cls = pvcsp_oracle(PromiseTemplate(delta, gamma), instance)
        payload = {"verdict": cls, "blp_value": None, "star": None,
                   "aff_value": None, "columns": None, "rows": None,
                   "eliminated": None}
        _emit(args, payload, cls)
        return EXIT_YES if cls in (YES, GAP) else EXIT_NO
    answer = relax.ENGINES[args.algorithm](delta, instance)
    _emit(
        args,
        {
            "verdict": answer.verdict,
            "blp_value": _format_optional(answer.blp_value),
            "star": answer.star_provenance,
            "aff_value": _format_optional(answer.aff_value),
            "columns": answer.program_size[0],
            "rows": answer.program_size[1],
            "eliminated": len(answer.eliminated),
        },
        answer.trace(),
    )
    return EXIT_YES if answer.verdict == YES else EXIT_NO


def cmd_check(args) -> int:
    measure = formats.parse_measure(_read(args.measure))
    delta = _load_structure(args.structure)
    gamma = _load_structure(args.gamma) if args.gamma else delta
    if isinstance(measure, PromiseFpol):
        ok, violator = theory.check_promise_fpol(
            measure, PromiseTemplate(delta, gamma), cap=args.cap
        )
    else:
        ok, violator = theory.check_fractional_homomorphism(
            measure, delta, gamma
        )
    if ok:
        _emit(args, {"ok": True}, "ok")
        return EXIT_YES
    _emit(
        args,
        {"ok": False, "violator": repr(violator)},
        f"violated at {violator}",
    )
    return EXIT_NO


def cmd_construct(args) -> int:
    delta = _load_structure(args.structure)
    partition = _parse_partition(args.partition)
    built = theory.block_multiset_structure(delta, partition, cap=args.cap)
    text = formats.print_structure(built)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _random_template(rng):
    delta = generators.random_structure(rng, domain_size=rng.randint(2, 3))
    gamma = generators.weaken_structure(rng, delta)
    return delta, gamma


# family -> (template draw giving delta and gamma or None, max variables,
# max terms of the instance)
FAMILIES = {
    "xor": (lambda rng: (generators.xor_structure(), None), 6, 6),
    "horn": (lambda rng: (generators.horn_structure(), None), 6, 6),
    "submodular": (
        lambda rng: (generators.submodular_structure(rng), None), 5, 5
    ),
    "random": (_random_template, 4, 4),
}


def _draw(family: str, rng: random.Random):
    """One (delta, gamma or None, instance) of a family: the template is
    drawn from rng first, then the instance."""
    template, max_vars, max_terms = FAMILIES[family]
    delta, gamma = template(rng)
    instance = generators.random_instance(rng, delta, max_vars, max_terms)
    return delta, gamma, instance


def cmd_compare(args) -> int:
    if args.count < 1:
        raise PreconditionViolated(f"--count must be at least 1, not {args.count}")
    rng = random.Random(args.seed)
    engines = args.engines.split(",")
    unknown = [e for e in engines if e not in relax.ENGINES]
    if unknown:
        raise FormatError(
            f"unknown engine {unknown[0]!r}; valid engines: "
            + ", ".join(sorted(relax.ENGINES))
        )
    records = []
    flagged = 0
    for i in range(args.count):
        delta, gamma, instance = _draw(args.family, rng)
        gamma = gamma or delta
        oracle_class = pvcsp_oracle(PromiseTemplate(delta, gamma), instance)
        verdicts = {}
        agree = True
        for engine in engines:
            verdict = relax.ENGINES[engine](delta, instance).verdict
            verdicts[engine] = verdict
            if oracle_class != GAP and verdict != oracle_class:
                agree = False
        if not agree:
            flagged += 1
        records.append(
            {
                "index": i,
                "oracle": oracle_class,
                "verdicts": verdicts,
                "agree": agree,
            }
        )
    report = {
        "family": args.family,
        "count": args.count,
        "seed": args.seed,
        "flagged": flagged,
        "records": records,
    }
    lines = []
    for r in records:
        verdicts = " ".join(f"{k}={v}" for k, v in sorted(r["verdicts"].items()))
        lines.append(f"[{r['index']:04d}] oracle={r['oracle']} {verdicts} "
                     f"{'ok' if r['agree'] else 'DISAGREE'}")
    lines.append(f"flagged disagreements: {flagged}/{args.count}")
    _emit(args, report, "\n".join(lines))
    if flagged and not args.expect_weak:
        return EXIT_NO
    return EXIT_YES


def cmd_gen(args) -> int:
    delta, gamma, instance = _draw(args.family, random.Random(args.seed))
    os.makedirs(args.output, exist_ok=True)
    with open(os.path.join(args.output, "structure.pvcsp"), "w") as fh:
        fh.write(formats.print_structure(delta))
    if gamma is not None:
        with open(os.path.join(args.output, "gamma.pvcsp"), "w") as fh:
            fh.write(formats.print_structure(gamma))
    with open(os.path.join(args.output, "instance.pvcsp"), "w") as fh:
        fh.write(formats.print_instance(instance))
    return EXIT_YES


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvcsp",
        description="Exact PVCSP relaxation solver and verification workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a relaxation algorithm on an instance")
    p.add_argument("--structure", required=True)
    p.add_argument("--gamma")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--algorithm",
        default="combined",
        choices=[*relax.ENGINES, "oracle"],
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("check", help="verify a measure against structures")
    p.add_argument("--measure", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--gamma")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=int, default=theory.DEFAULT_CAP)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("construct", help="build a block-multiset structure")
    p.add_argument("--structure", required=True)
    p.add_argument("--partition", required=True, help="e.g. sizes:2,1")
    p.add_argument("--output")
    p.add_argument("--cap", type=int, default=theory.DEFAULT_CAP)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("compare", help="differential harness vs the oracle")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engines", default="combined")
    p.add_argument("--expect-weak", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("gen", help="write a generated fixture to a directory")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolated as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (PvcspError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
