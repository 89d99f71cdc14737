import random
from fractions import Fraction as F

import pytest

from pvcsp import formats, generators
from pvcsp.core import FiniteMeasure, Instance, OperationTable, Term
from pvcsp.errors import FormatError
from pvcsp.theory import PromiseFpol
from pvcsp.values import PLUS_INF

STRUCTURE_TEXT = """
# crisp disequality
domain 0 1
symbol neq 2 default inf
0 1 : 0
1 0 : 0
"""

INSTANCE_TEXT = """
vars x y
term neq x y
threshold 1/2
"""

FPOL_TEXT = """
measure fpol
arity 2
in_domain 0 1
out_domain 0 1
input_weights 1/2 1/2
map 1
0 0 : 0
0 1 : 0
1 0 : 0
1 1 : 1
"""


def test_parse_structure():
    s = formats.parse_structure(STRUCTURE_TEXT)
    assert s.domain == ("0", "1")
    assert s.cost("neq", ("0", "1")) == 0
    assert s.cost("neq", ("0", "0")) is PLUS_INF


def test_parse_instance():
    ins = formats.parse_instance(INSTANCE_TEXT)
    assert ins.variables == ("x", "y")
    assert ins.terms == (Term("neq", ("x", "y")),)
    assert ins.threshold == F(1, 2)


def test_parse_measure_fpol():
    omega = formats.parse_measure(FPOL_TEXT)
    assert isinstance(omega, PromiseFpol)
    assert omega.input_weights == (F(1, 2), F(1, 2))
    (g,) = omega.output.support()
    assert g.apply(("1", "1")) == "1" and g.apply(("0", "1")) == "0"


def test_structure_round_trips():
    rng = random.Random(3)
    for _ in range(20):
        s = generators.random_structure(rng, domain_size=rng.randint(2, 3))
        text = formats.print_structure(s)
        back = formats.parse_structure(text)
        assert back.domain == s.domain
        assert back.signature == s.signature
        for name, _ in s.signature.symbols:
            assert back.table(name) == s.table(name)


def test_instance_round_trips():
    rng = random.Random(5)
    s = generators.xor_structure()
    for _ in range(20):
        ins = generators.random_instance(rng, s, 5, 5)
        assert formats.parse_instance(formats.print_instance(ins)) == ins


def test_measure_round_trips():
    min2 = OperationTable.from_callable(("0", "1"), ("0", "1"), 2, min)
    max2 = OperationTable.from_callable(("0", "1"), ("0", "1"), 2, max)
    omega = PromiseFpol(
        (F(1, 3), F(2, 3)),
        FiniteMeasure.from_pairs([(min2, F(1, 4)), (max2, F(3, 4))]),
    )
    assert formats.parse_measure(formats.print_measure(omega)) == omega
    chi = FiniteMeasure.point_mass(
        OperationTable.from_callable(("0", "1"), ("0", "1"), 1, lambda a: a)
    )
    assert formats.parse_measure(formats.print_measure(chi)) == chi


def test_malformed_inputs_rejected():
    for text in [
        "domain 0 0\nsymbol f 1 default 0\n",
        "domain 0 1\nsymbol f 1 default 1/0\n",
        "domain 0 1\nsymbol f 1 default -inf\n",
        "domain 0 1\nsymbol f 0 default 0\n",
        "symbol f 1 default 0\n",
        "domain 0 1\nsymbol f 1 default 0\n2 : 0\n",
    ]:
        with pytest.raises(FormatError):
            formats.parse_structure(text)
    for text in [
        "vars x x\nterm f x\nthreshold 0\n",
        "vars x\nterm f\nthreshold 0\n",
        "vars x\nterm f x\n",
        "vars x\nterm f x\nthreshold inf\n",
    ]:
        with pytest.raises(FormatError):
            formats.parse_instance(text)
    with pytest.raises(FormatError):
        formats.parse_measure(FPOL_TEXT.replace("input_weights 1/2 1/2", "input_weights 1/2 1/3"))
    with pytest.raises(FormatError):
        formats.parse_measure("measure blah\n")


def test_every_malformed_text_raises_format_error():
    # what the built objects reject leaves each parser as FormatError too
    cases = [
        (formats.parse_structure, "domain 0 1\nsymbol f 1 default 1/0\n"),
        (formats.parse_structure, "domain\nsymbol f 1 default 0\n"),
        (formats.parse_structure, "domain 0 1\nsymbol f 1 default 0\n0 : 1 : 0\n"),
        (formats.parse_instance, "vars x\nterm f x\nthreshold 1/0\n"),
        (formats.parse_measure, FPOL_TEXT.replace("input_weights 1/2 1/2", "input_weights 1/0 1")),
        (formats.parse_measure, FPOL_TEXT.replace("map 1", "map 1/0")),
        (formats.parse_measure, FPOL_TEXT.replace("1 1 : 1", "1 1 : 2")),
        (formats.parse_measure, FPOL_TEXT.replace("in_domain 0 1", "in_domain 0")),
        (formats.parse_measure, FPOL_TEXT.replace("1 1 : 1", "")),
        (formats.parse_measure, "measure frachom\n"),
    ]
    for parse, text in cases:
        with pytest.raises(FormatError):
            parse(text)


def test_print_structure_defaults_to_majority_value():
    from pvcsp.core import Signature, ValuedStructure

    s = ValuedStructure(
        Signature((("u", 1),)),
        ("a", "b", "c"),
        {"u": {("a",): F(0), ("b",): PLUS_INF, ("c",): PLUS_INF}},
    )
    text = formats.print_structure(s)
    # the two infinite entries fold into the default; only "a" is listed
    assert "default inf" in text
    assert "a : 0" in text
    assert "b : inf" not in text and "c : inf" not in text
    back = formats.parse_structure(text)
    assert back.table("u") == s.table("u")
