"""The benchmark's three workloads.

Each workload builds a pool of inputs from the seed, in rounds that hold one
item of every cell (a family and size, or a search shape), so that a run
that stops at the end of a round has measured every cell equally often.  It
runs one op per pool item (`run`) and checks an op's output against an independent oracle
(`verify`, which returns an error message or None).  `pv` is a namespace of
freshly imported pvcsp modules; pvcsp receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

import oracles

SOLVE_SIZES = (6, 8, 10, 12)
SOLVE_FAMILIES = ("xor", "horn", "submodular", "random")
# two-sided checks only where the combined procedure is exact
EXACT_FAMILIES = ("xor", "horn", "submodular")
SOLVE_PER_CELL = 25
# pvcsp's own generators (`pvcsp compare` and `generate`) draw up to as many
# terms as variables.  At one term per variable a solve took 0.64 s on
# average (12-variable cells 0.5-4.1 s), too dear for 100 ops in one run; at
# 3/4, 0.28 s; at 1/2, 0.10 s.  The layer mix barely moved: at every density
# the star point took 69-97% of a cell's op time, with 0-60 support LPs per
# solve (perfbench/README.md).
TERMS_PER_VARIABLE = Fraction(1, 2)
# a planted tuple of infinite cost is kept with this probability, so some
# instances have no finite assignment near the planted one
KEEP_BROKEN = 0.2
# offsets from the planted cost: negative ones stop some ops at the BLP gate.
# Item j of cell c takes offset (j + c) mod 5, so that every cell and every
# five rounds hold each offset equally often, whatever the seed
OFFSETS = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(0), Fraction(1, 2))

# (name, arity m, block sizes or None, symbols, symbol arity, infinite
# costs); m None is the fractional-homomorphism search.  Infinite costs make a
# search's cost vary with how many candidates stay admissible, and random
# symbol arities mix cheap and dear templates: with them the seed-to-seed
# spread of p90 was 0.25.  So the fpol searches use finite-valued templates
# of fixed arity, and frachom keeps the infinite costs.
WITNESS_SHAPES = (
    ("m2", 2, None, 2, 2, False),
    ("[2]", 2, (2,), 2, 2, False),
    ("[1,1]", 2, (1, 1), 2, 2, False),
    ("frachom", None, None, 2, 2, True),
    ("[3]", 3, (3,), 1, 2, False),
    ("[2,1]", 3, (2, 1), 2, 1, False),
    ("[1,1,1]", 3, (1, 1, 1), 1, 1, False),
    ("m3", 3, None, 1, 1, False),
)
WITNESS_PER_SHAPE = 128

AIP_SIZES = (20, 30, 40, 50, 60)
AIP_PER_SIZE = 60


def rounds(cells, rng: random.Random) -> list:
    """Round j holds item j of every cell, in a shuffled order."""
    pool = []
    for row in zip(*cells, strict=True):
        row = list(row)
        rng.shuffle(row)
        pool.extend(row)
    return pool


def fixed_arity_structure(gen, rng, domain_size: int, symbols: int, arity: int, allow_inf: bool):
    """`generators.random_structure`, rejected until every symbol has `arity`:
    a random mix of unary and binary symbols makes an op's cost vary widely
    from one draw to the next."""
    while True:
        structure = gen.random_structure(
            rng, domain_size, n_symbols=symbols, max_arity=arity, allow_inf=allow_inf
        )
        if all(a == arity for _, a in structure.signature.symbols):
            return structure


def planted_instance(pv, rng, structure, n: int, nterms: int, offset: Fraction):
    """Terms drawn mostly consistent with a hidden assignment; the threshold
    is the hidden assignment's cost plus an offset, always explicit."""
    variables = tuple(f"x{i}" for i in range(n))
    hidden = {v: rng.choice(structure.domain) for v in variables}
    names = structure.signature.names()
    terms = []
    cost = Fraction(0)
    while len(terms) < nterms:
        symbol = rng.choice(names)
        arity = structure.signature.arity(symbol)
        args = tuple(rng.choice(variables) for _ in range(arity))
        c = structure.cost(symbol, tuple(hidden[v] for v in args))
        if not pv.values.is_finite(c):
            if rng.random() >= KEEP_BROKEN:
                continue
            cost = None
        elif cost is not None:
            cost += c
        terms.append(pv.core.Term(symbol, args))
    base = cost if cost is not None else Fraction(nterms, 2)
    return pv.core.Instance(variables, tuple(terms), base + offset)


class SolveMix:
    """`relax.combined_solve` over a ladder of sizes and four families."""

    def __init__(self, pv, seed: int, workdir: str):
        self.pv = pv
        rng = random.Random(seed)
        cells = [
            [
                self._item(rng, family, n, OFFSETS[(j + c) % len(OFFSETS)])
                for j in range(SOLVE_PER_CELL)
            ]
            for c, (n, family) in enumerate(itertools.product(SOLVE_SIZES, SOLVE_FAMILIES))
        ]
        self.items = rounds(cells, rng)
        self.round_size = len(cells)

    def _item(self, rng, family: str, n: int, offset: Fraction):
        gen = self.pv.generators
        if family == "xor":
            structure = gen.xor_structure()
        elif family == "horn":
            structure = gen.horn_structure()
        elif family == "submodular":
            structure = gen.submodular_structure(rng)
        else:
            # domain 3 at 8 variables gave 63% of the seed-to-seed variance
            # of the workload's total time, so it stops at 6
            structure = fixed_arity_structure(gen, rng, 3 if n == 6 else 2, 2, 2, True)
        nterms = round(n * TERMS_PER_VARIABLE)
        return family, structure, planted_instance(self.pv, rng, structure, n, nterms, offset)

    def run(self, item):
        _, structure, instance = item
        return self.pv.relax.combined_solve(structure, instance).verdict

    def verify(self, item, verdict):
        family, structure, instance = item
        yes, no = self.pv.core.YES, self.pv.core.NO
        if verdict not in (yes, no):
            return f"verdict {verdict!r}"
        attained = oracles.attains(structure, instance, self.pv.values.PLUS_INF)
        if attained and verdict == no:
            return f"{family}: NO, but brute force attains the threshold"
        if family in EXACT_FAMILIES and not attained and verdict == yes:
            return f"{family}: YES, but brute force exceeds the threshold"
        return None


class WitnessSearch:
    """`theory.find_promise_fpol_lp` over partitions and unrestricted
    arities, and `theory.find_frachom_lp`, on domain-2 promise templates."""

    def __init__(self, pv, seed: int, workdir: str):
        self.pv = pv
        rng = random.Random(seed)
        cells = [
            [self._item(rng, shape) for _ in range(WITNESS_PER_SHAPE)]
            for shape in WITNESS_SHAPES
        ]
        self.items = rounds(cells, rng)
        self.round_size = len(cells)

    def _item(self, rng, shape):
        _, _, sizes, symbols, arity, allow_inf = shape
        gen = self.pv.generators
        delta = fixed_arity_structure(gen, rng, 2, symbols, arity, allow_inf)
        template = self.pv.core.PromiseTemplate(delta, gen.weaken_structure(rng, delta))
        partition = (
            self.pv.theory.BlockPartition.from_sizes(sizes) if sizes else None
        )
        return shape, template, partition

    def run(self, item):
        (_, m, *_), template, partition = item
        theory = self.pv.theory
        if m is None:
            return theory.find_frachom_lp(template.delta, template.gamma)
        return theory.find_promise_fpol_lp(template, m, partition=partition)

    def verify(self, item, result):
        (name, m, sizes, *_), template, partition = item
        theory = self.pv.theory
        if result == theory.NONE_EXISTS:
            return self._verify_none(name, m, sizes, template, partition)
        if m is None:
            ok, violator = theory.check_fractional_homomorphism(
                result, template.delta, template.gamma
            )
        else:
            ok, violator = theory.check_promise_fpol(result, template)
            if ok and partition is not None:
                for g in result.output.support():
                    if not theory.check_block_symmetry(g, partition):
                        return f"{name}: support table is not block-symmetric"
        return None if ok else f"{name}: witness violated at {violator}"

    def _verify_none(self, name, m, sizes, template, partition):
        # Gamma is weakened from Delta, so the identity is a fractional
        # homomorphism and the uniform measure on projections is a promise
        # polymorphism; projections are block-symmetric for singleton blocks
        if m is None or sizes is None or set(sizes) == {1}:
            return f"{name}: none-exists, but a known witness exists"
        core, theory = self.pv.core, self.pv.theory
        domain = template.delta.domain
        points = list(itertools.product(domain, repeat=m))
        keys = [
            tuple(tuple(sorted(a[i] for i in block)) for block in partition.blocks)
            for a in points
        ]
        classes = sorted(set(keys))
        for outputs in itertools.product(domain, repeat=len(classes)):
            value = dict(zip(classes, outputs))
            g = core.OperationTable.from_map(
                domain, domain, m, {a: value[k] for a, k in zip(points, keys)}
            )
            omega = theory.PromiseFpol.uniform_input(core.FiniteMeasure.point_mass(g))
            if theory.check_promise_fpol(omega, template)[0]:
                return f"{name}: none-exists, but one block-symmetric table is a witness"
        return None


class AipLarge:
    """In-process `pvcsp solve --algorithm aip --json` on xor instance files."""

    def __init__(self, pv, seed: int, workdir: str):
        self.pv = pv
        rng = random.Random(seed)
        self.structure_path = os.path.join(workdir, "xor.pvcsp")
        _write(self.structure_path, pv.formats.print_structure(pv.generators.xor_structure()))
        # unplanted systems at one term per variable are mostly
        # unsatisfiable; planting half keeps both verdicts common
        cells = []
        for n in AIP_SIZES:
            for planted in (True, False):
                cell = []
                for k in range(AIP_PER_SIZE // 2):
                    instance, equations = self._xor_instance(rng, n, planted)
                    path = os.path.join(workdir, f"xor-{n}-{planted:d}-{k}.pvcsp")
                    _write(path, pv.formats.print_instance(instance))
                    cell.append((path, equations))
                cells.append(cell)
        self.items = rounds(cells, rng)
        self.round_size = len(cells)

    def _xor_instance(self, rng, n: int, planted: bool):
        variables = tuple(f"x{i}" for i in range(n))
        hidden = [rng.randint(0, 1) for _ in variables]
        terms, equations = [], []
        for _ in range(n):
            arity = rng.choice((2, 3))
            idx = rng.sample(range(n), arity)
            parity = sum(hidden[i] for i in idx) % 2 if planted else rng.randint(0, 1)
            symbol = f"xor{parity}" + ("_3" if arity == 3 else "")
            terms.append(self.pv.core.Term(symbol, tuple(variables[i] for i in idx)))
            equations.append((sum(1 << i for i in idx), parity))
        return self.pv.core.Instance(variables, tuple(terms), Fraction(0)), equations

    def run(self, item):
        out = io.StringIO()
        argv = [
            "solve",
            "--structure", self.structure_path,
            "--instance", item[0],
            "--algorithm", "aip",
            "--json",
        ]
        with contextlib.redirect_stdout(out):
            code = self.pv.cli.main(argv)
        return code, out.getvalue()

    def verify(self, item, result):
        code, text = result
        expected = "yes" if oracles.xor_satisfiable(item[1]) else "no"
        try:
            verdict = json.loads(text)["verdict"]
        except (ValueError, KeyError):
            return f"exit {code}, unreadable output {text!r}"
        if verdict != expected or code != (0 if expected == "yes" else 1):
            return f"verdict {verdict} (exit {code}), GF(2) says {expected}"
        return None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


WORKLOADS = {
    "solve_mix": SolveMix,
    "witness_search": WitnessSearch,
    "aip_large": AipLarge,
}
