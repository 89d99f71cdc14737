"""Tracing from outside the program.

`Tracer.instrument` replaces public functions on pvcsp's module objects with
wrappers that record a span per call: name, start, end, parent span and op
id.  Callers inside pvcsp look these names up through module globals, so
nested calls (the support LPs inside `relative_interior_point_with_flags`,
the HNF inside `solve_integer_system`) are caught too.  Counters come only
from each call's inputs and outputs; the time spent computing them is
excluded from every span.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import time
from collections import defaultdict

# (module, function) pairs wrapped; a method named _module_function records
# the counters of that function's calls
TRACED = (
    ("relax", "combined_solve"),
    ("relax", "build_blp"),
    ("relax", "build_aip"),
    ("relax", "blp_value"),
    ("relax", "select_star_point"),
    ("relax", "refine_aip"),
    ("relax", "aip_value"),
    ("exactlp", "solve_lp"),
    ("exactlp", "relative_interior_point_with_flags"),
    ("exactlp", "restrict_to_optimal_face"),
    ("lattice", "solve_integer_system"),
    ("lattice", "hermite_normal_form"),
    ("lattice", "evaluate_affine_min"),
    ("theory", "find_promise_fpol_lp"),
    ("theory", "find_frachom_lp"),
    ("theory", "check_promise_fpol"),
    ("theory", "check_fractional_homomorphism"),
    ("formats", "parse_structure"),
    ("formats", "parse_instance"),
    ("cli", "main"),
)

NAME, START, END, PARENT, OP, INFO = range(6)

# per-layer metric units: times and counts are per op of the traced pass
UNITS = {
    "relax.star_point_s": "s/op",
    "exactlp.rip_s": "s/op",
    "exactlp.rip_self_s": "s/op",
    "exactlp.support_lps": "1/op",
    "exactlp.support_hit_ratio": "ratio",
    "relax.blp_value_s": "s/op",
    "relax.build_blp_s": "s/op",
    "relax.build_aip_s": "s/op",
    "relax.refine_s": "s/op",
    "exactlp.face_restrict_s": "s/op",
    "relax.gate_share": "ratio",
    "relax.face_share": "ratio",
    "relax.kept_col_ratio": "ratio",
    "exactlp.solve_lp_s": "s/op",
    "exactlp.solve_lp_calls": "1/op",
    "exactlp.lp_cols_p50": "count",
    "exactlp.lp_rows_p50": "count",
    "exactlp.point_bits_max": "bits",
    "theory.fpol_search_s": "s/op",
    "theory.fpol_enum_s": "s/op",
    "theory.candidates": "count",
    "theory.dedup_ratio": "ratio",
    "theory.none_share": "ratio",
    "theory.frachom_s": "s/op",
    "theory.check_s": "s/op",
    "lattice.intsys_s": "s/op",
    "lattice.hnf_s": "s/op",
    "lattice.affmin_s": "s/op",
    "lattice.hnf_cols": "count",
    "lattice.u_bits_max": "bits",
    "lattice.kernel_dim_p50": "count",
    "formats.parse_s": "s/op",
    "cli.self_s": "s/op",
    "trace.overhead_share": "ratio",
}


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self, pv):
        self.pv = pv
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._paused = 0.0
        self._witnesses = defaultdict(list)  # support witnesses by parent span
        self._swaps = []
        for module_name, fn_name in TRACED:
            module = getattr(pv, module_name)
            fn = getattr(module, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", fn)
            self._swaps.append((module, fn_name, fn, wrapper))

    def _now(self) -> float:
        return time.perf_counter() - self._paused

    def instrument(self) -> None:
        for module, fn_name, _, wrapper in self._swaps:
            setattr(module, fn_name, wrapper)

    def restore(self) -> None:
        for module, fn_name, fn, _ in self._swaps:
            setattr(module, fn_name, fn)

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._now(), None, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(index)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = self._now()
                self._stack.pop()
            if observe is not None:
                t = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[INFO] = observe(bound.arguments, result, index)
                self._paused += time.perf_counter() - t
            return result

        return traced

    # counters, from inputs and outputs only

    def _exactlp_solve_lp(self, a, res, index):
        lp = a["lp"]
        bits = max(map(_bits, res.point), default=0) if res.point else 0
        parent = self.spans[index][PARENT]
        if parent >= 0 and self.spans[parent][NAME] == "exactlp.relative_interior_point_with_flags":
            # a support LP adds a witness when x_i can be positive: the
            # improving ray's end when unbounded, else a point of value < 0
            if res.status == self.pv.exactlp.UNBOUNDED:
                self._witnesses[parent].append([p + d for p, d in zip(res.point, res.ray)])
            elif res.status == self.pv.exactlp.OPTIMAL and res.value < 0:
                self._witnesses[parent].append(res.point)
        return lp.n, len(lp.rows), bits

    def _exactlp_relative_interior_point_with_flags(self, a, res, index):
        # the returned point is the average of phase 1's base point and the
        # support LPs' witnesses, so the base point is recovered from them;
        # a negative coordinate means the point is made some other way, and
        # the call is left out of exactlp.support_hit_ratio
        point, flags = res
        witnesses = self._witnesses.pop(index, [])
        k = len(witnesses) + 1
        base = [k * p - sum(w[i] for w in witnesses) for i, p in enumerate(point)]
        if any(x < 0 for x in base):
            return a["lp"].n, sum(flags), None
        return a["lp"].n, sum(flags), sum(flags) - sum(x > 0 for x in base)

    def _relax_combined_solve(self, a, res, index):
        return res.star_provenance

    def _relax_refine_aip(self, a, res, index):
        return len(a["aip"].objective), len(res.objective)

    def _lattice_hermite_normal_form(self, a, res, index):
        A = a["A"]
        ubits = max((abs(x).bit_length() for row in res[1] for x in row), default=0)
        return (len(A[0]) if A else 0), ubits

    def _lattice_solve_integer_system(self, a, res, index):
        return None if res == self.pv.lattice.INFEASIBLE else len(res.kernel_basis)

    def _theory_find_promise_fpol_lp(self, a, res, index):
        delta, gamma = a["template"].delta, a["template"].gamma
        d, m, partition = len(delta.domain), a["m"], a["partition"]
        if partition is None:
            points = d ** m
        else:
            points = math.prod(math.comb(d + len(b) - 1, len(b)) for b in partition.blocks)
        return len(gamma.domain) ** points, res == self.pv.theory.NONE_EXISTS

    def _theory_find_frachom_lp(self, a, res, index):
        candidates = len(a["gamma"].domain) ** len(a["delta"].domain)
        return candidates, res == self.pv.theory.NONE_EXISTS

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list, ops: int, relax) -> dict:
    """Per-layer metrics of one traced pass of `ops` ops.  Times and counts
    are per op; shares and ratios are over the calls they describe."""
    total = defaultdict(float)
    own = defaultdict(float)  # self time: duration minus direct children
    children = defaultdict(list)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        d = s[END] - s[START]
        total[s[NAME]] += d
        own[s[NAME]] += d
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            own[spans[s[PARENT]][NAME]] -= d
            children[s[PARENT]].append(i)

    def per_op(x):
        return x / ops

    def infos(name):
        return [spans[i][INFO] for i in by_name[name]]

    def share(num, den):
        return num / den if den else 0.0

    lp_infos = infos("exactlp.solve_lp")
    rip = by_name["exactlp.relative_interior_point_with_flags"]
    support_lps = {
        i: sum(1 for c in children[i] if spans[c][NAME] == "exactlp.solve_lp") for i in rip
    }
    support = sum(support_lps.values())
    # support LPs and newly flagged coordinates of the calls that returned
    # and whose base point was recovered
    recovered = [
        (support_lps[i], spans[i][INFO][2])
        for i in rip
        if spans[i][INFO] is not None and spans[i][INFO][2] is not None
    ]
    stars = [p for p in infos("relax.combined_solve") if p is not None]
    refine = infos("relax.refine_aip")
    searches = infos("theory.find_promise_fpol_lp") + infos("theory.find_frachom_lp")
    search_ids = by_name["theory.find_promise_fpol_lp"] + by_name["theory.find_frachom_lp"]
    search_cols = 0
    for i in search_ids:
        for c in children[i]:
            if spans[c][NAME] == "exactlp.solve_lp":
                n, rows, _ = spans[c][INFO]
                search_cols += n - (rows - 1)  # minus the slack columns
    hnf = infos("lattice.hermite_normal_form")
    kernels = [k for k in infos("lattice.solve_integer_system") if k is not None]
    solves = infos("relax.combined_solve")

    return {
        "relax.star_point_s": per_op(total["relax.select_star_point"]),
        "exactlp.rip_s": per_op(total["exactlp.relative_interior_point_with_flags"]),
        "exactlp.rip_self_s": per_op(own["exactlp.relative_interior_point_with_flags"]),
        "exactlp.support_lps": per_op(support),
        "exactlp.support_hit_ratio": share(sum(n for _, n in recovered), sum(k for k, _ in recovered)),
        "relax.blp_value_s": per_op(total["relax.blp_value"]),
        "relax.build_blp_s": per_op(total["relax.build_blp"]),
        "relax.build_aip_s": per_op(total["relax.build_aip"]),
        "relax.refine_s": per_op(total["relax.refine_aip"]),
        "exactlp.face_restrict_s": per_op(total["exactlp.restrict_to_optimal_face"]),
        "relax.gate_share": share(len(solves) - len(stars), len(solves)),
        "relax.face_share": share(sum(p == relax.OPTIMAL_FACE_INTERIOR for p in stars), len(stars)),
        "relax.kept_col_ratio": share(sum(k for _, k in refine), sum(n for n, _ in refine)),
        "exactlp.solve_lp_s": per_op(total["exactlp.solve_lp"]),
        "exactlp.solve_lp_calls": per_op(len(lp_infos)),
        "exactlp.lp_cols_p50": statistics.median([n for n, _, _ in lp_infos]) if lp_infos else 0,
        "exactlp.lp_rows_p50": statistics.median([r for _, r, _ in lp_infos]) if lp_infos else 0,
        "exactlp.point_bits_max": max((b for _, _, b in lp_infos), default=0),
        "theory.fpol_search_s": per_op(total["theory.find_promise_fpol_lp"]),
        "theory.fpol_enum_s": per_op(own["theory.find_promise_fpol_lp"]),
        "theory.candidates": share(sum(c for c, _ in searches), len(searches)),
        "theory.dedup_ratio": share(search_cols, sum(c for c, _ in searches)),
        "theory.none_share": share(sum(none for _, none in searches), len(searches)),
        "theory.frachom_s": per_op(total["theory.find_frachom_lp"]),
        "theory.check_s": per_op(
            total["theory.check_promise_fpol"] + total["theory.check_fractional_homomorphism"]
        ),
        "lattice.intsys_s": per_op(total["lattice.solve_integer_system"]),
        "lattice.hnf_s": per_op(total["lattice.hermite_normal_form"]),
        "lattice.affmin_s": per_op(total["lattice.evaluate_affine_min"]),
        "lattice.hnf_cols": share(sum(c for c, _ in hnf), len(hnf)),
        "lattice.u_bits_max": max((b for _, b in hnf), default=0),
        "lattice.kernel_dim_p50": statistics.median(kernels) if kernels else 0,
        "formats.parse_s": per_op(total["formats.parse_structure"] + total["formats.parse_instance"]),
        "cli.self_s": per_op(own["cli.main"]),
    }
