"""The classification catalog: classes, expected invariants, degeneration curves.

Twenty-five 4-dimensional symplectic Lie algebra classes (five of them
parametrized), the expected derivation dimensions for each, the full list of
explicit degeneration curves, and the transforms and shear family behind the
curvature witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import linalg
from .scalars import ExpPoly, clip, format_rational, parse_int, parse_rational
from .tensor import Bracket, act, symplectic_inverse

F = Fraction


class DomainError(ValueError):
    """A class or curve parameter outside its printed domain."""


class ClassId(NamedTuple):
    """A catalog class: registry key plus optional rational parameter."""

    key: str
    param: Optional[Fraction] = None

    def __str__(self):
        spec = CLASSES[self.key]
        segs = self.key.split(":")
        if self.param is not None:
            segs.insert(1, f"{spec.param_name}={format_rational(self.param)}")
        return ":".join(segs)

    def display(self) -> str:
        spec = CLASSES[self.key]
        if self.param is None:
            return spec.display
        out = spec.display
        negated = "-" + spec.param_name
        if negated in out:
            out = out.replace(negated, format_rational(-self.param))
        return out.replace(spec.param_name, format_rational(self.param))


class ClassSpec(NamedTuple):
    key: str
    mu: int                      # index in the classification tables
    display: str
    rules: Callable              # param -> structure constant dict
    derdims: Callable            # param -> (dim Der_w, dim Der)
    param_name: Optional[str] = None
    param_check: Optional[Callable] = None
    param_doc: str = ""
    samples: tuple = ()


def _c(rules):
    return lambda p: rules


def _d(dims):
    return lambda p: dims


def _half(x):
    return F(x) / 2


CLASS_DEFS = [
    ClassSpec("a4", 0, "(a4, w)", _c({}), _d((10, 16))),
    ClassSpec("rh3", 1, "(rh3, w)", _c({(1, 2): {3: F(1)}}), _d((5, 10))),
    ClassSpec("rr3_0", 2, "(rr3,0, w)", _c({(1, 3): {3: F(1)}}), _d((4, 8))),
    ClassSpec("rr3_m1", 3, "(rr3,-1, w)",
              _c({(1, 2): {2: F(-1)}, (1, 4): {4: F(1)}}), _d((2, 6))),
    ClassSpec("rr3p_0", 4, "(rr3',0, w)",
              _c({(1, 2): {4: F(1)}, (1, 4): {2: F(-1)}}), _d((2, 6))),
    ClassSpec("r2r2", 5, "(r2r2, w_lambda)",
              lambda p: {(1, 2): {3: -p}, (1, 3): {3: F(1)}, (2, 4): {4: F(1)}},
              _d((2, 4)),
              param_name="lambda", param_check=lambda p: p >= 0,
              param_doc="lambda >= 0", samples=(F(0), F(1), F(7, 3))),
    ClassSpec("r2p", 6, "(r2', w)",
              _c({(1, 3): {3: F(1)}, (1, 4): {4: F(1)},
                  (2, 3): {4: F(-1)}, (2, 4): {3: F(1)}}), _d((2, 4))),
    ClassSpec("n4", 7, "(n4, w)",
              _c({(1, 2): {4: F(1)}, (1, 4): {3: F(1)}}), _d((3, 7))),
    ClassSpec("r4_0:plus", 8, "(r4,0, w+)",
              _c({(1, 3): {3: F(1)}, (1, 4): {2: F(1)}}), _d((2, 6))),
    ClassSpec("r4_0:minus", 9, "(r4,0, w-)",
              _c({(1, 3): {3: F(1)}, (1, 4): {2: F(-1)}}), _d((2, 6))),
    ClassSpec("r4_m1", 10, "(r4,-1, w)",
              _c({(1, 2): {2: F(1)}, (1, 3): {3: F(-1)}, (1, 4): {3: F(-1), 4: F(-1)}}),
              _d((2, 6))),
    ClassSpec("r4_m1_beta", 11, "(r4,-1,beta, w)",
              lambda p: {(1, 2): {2: F(-1)}, (1, 3): {3: p}, (1, 4): {4: F(1)}},
              lambda p: (3, 8) if p == -1 else (2, 6),
              param_name="beta", param_check=lambda p: -1 <= p < 1,
              param_doc="-1 <= beta < 1", samples=(F(-1, 2), F(0), F(1, 2))),
    ClassSpec("r4_alpha", 12, "(r4,alpha,-alpha, w)",
              lambda p: {(1, 2): {2: F(-1)}, (1, 3): {3: -1 / p}, (1, 4): {4: F(1)}},
              _d((2, 6)),
              param_name="alpha", param_check=lambda p: -1 < p < 0,
              param_doc="-1 < alpha < 0", samples=(F(-1, 4), F(-1, 2), F(-3, 4))),
    ClassSpec("r4p_0:plus", 13, "(r4',0,delta, w+)",
              lambda p: {(1, 2): {4: -p}, (1, 3): {3: F(1)}, (1, 4): {2: p}},
              _d((2, 6)),
              param_name="delta", param_check=lambda p: p > 0,
              param_doc="delta > 0", samples=(F(1), F(2), F(5, 2))),
    ClassSpec("r4p_0:minus", 14, "(r4',0,delta, w-)",
              lambda p: {(1, 2): {4: p}, (1, 3): {3: F(1)}, (1, 4): {2: -p}},
              _d((2, 6)),
              param_name="delta", param_check=lambda p: p > 0,
              param_doc="delta > 0", samples=(F(1), F(2), F(5, 2))),
    ClassSpec("d4_1:w1", 15, "(d4,1, w1)",
              _c({(1, 2): {2: F(1)}, (1, 3): {3: F(1)}, (2, 4): {3: F(1)}}), _d((3, 5))),
    ClassSpec("d4_1:w2", 16, "(d4,1, w2)",
              _c({(1, 2): {2: F(1)}, (1, 3): {3: F(1)}, (1, 4): {3: F(1)},
                  (2, 4): {3: F(1)}}), _d((2, 5))),
    ClassSpec("d4_2:w1", 17, "(d4,2, w1)",
              _c({(1, 2): {2: F(2)}, (1, 3): {3: F(1)}, (1, 4): {4: F(-1)},
                  (2, 4): {3: F(1)}}), _d((2, 5))),
    ClassSpec("d4_2:w2", 18, "(d4,2, w2)",
              _c({(1, 2): {2: F(-1)}, (1, 3): {3: F(2)}, (1, 4): {4: F(1)},
                  (2, 3): {4: F(1)}}), _d((1, 5))),
    ClassSpec("d4_2:w3", 19, "(d4,2, w3)",
              _c({(1, 2): {2: F(-1)}, (1, 3): {3: F(2)}, (1, 4): {4: F(1)},
                  (2, 3): {4: F(-1)}}), _d((1, 5))),
    ClassSpec("d4_lambda", 20, "(d4,lambda, w)",
              lambda p: {(1, 2): {2: p}, (1, 3): {3: F(1)}, (1, 4): {4: 1 - p},
                         (2, 4): {3: F(1)}},
              lambda p: (4, 7) if p == F(1, 2) else (2, 5),
              param_name="lambda",
              param_check=lambda p: p >= F(1, 2) and p != 1 and p != 2,
              param_doc="lambda >= 1/2, lambda not in {1, 2}",
              samples=(F(5, 2), F(7, 3), F(3))),
    ClassSpec("d4p:plus", 21, "(d4',delta, w+)",
              lambda p: {(1, 2): {2: _half(p), 4: F(-1)}, (1, 3): {3: p},
                         (1, 4): {2: F(1), 4: _half(p)}, (2, 4): {3: p}},
              _d((2, 5)),
              param_name="delta", param_check=lambda p: p > 0,
              param_doc="delta > 0", samples=(F(1), F(2), F(5, 2))),
    ClassSpec("d4p:minus", 22, "(d4',delta, w-)",
              lambda p: {(1, 2): {2: -_half(p), 4: F(-1)}, (1, 3): {3: -p},
                         (1, 4): {2: F(1), 4: -_half(p)}, (2, 4): {3: -p}},
              _d((2, 5)),
              param_name="delta", param_check=lambda p: p > 0,
              param_doc="delta > 0", samples=(F(1), F(2), F(5, 2))),
    ClassSpec("h4:plus", 23, "(h4, w+)",
              _c({(1, 2): {2: F(1, 2)}, (1, 3): {3: F(1)},
                  (1, 4): {2: F(1), 4: F(1, 2)}, (2, 4): {3: F(1)}}), _d((2, 5))),
    ClassSpec("h4:minus", 24, "(h4, w-)",
              _c({(1, 2): {2: F(1, 2)}, (1, 3): {3: F(1)},
                  (1, 4): {2: F(-1), 4: F(1, 2)}, (2, 4): {3: F(1)}}), _d((2, 5))),
]

CLASSES = {spec.key: spec for spec in CLASS_DEFS}
MU_INDEX = {spec.mu: spec.key for spec in CLASS_DEFS}


def _resolve_key(key: str) -> str:
    """A registry key, with 'mu0' .. 'mu24' accepted as aliases."""
    if key.startswith("mu") and key[2:].isdecimal():
        key = MU_INDEX.get(parse_int(key[2:], f"class key {clip(key)!r}"), key)
    if key not in CLASSES:
        raise KeyError(f"unknown class key: {clip(key)!r}")
    return key


def class_id(key: str, param=None) -> ClassId:
    """Validate (key, param) against the registry and its printed domain."""
    key = _resolve_key(key)
    spec = CLASSES[key]
    if spec.param_name is None:
        if param is not None:
            raise DomainError(f"class {key} takes no parameter")
        return ClassId(key)
    if param is None:
        raise DomainError(f"class {key} needs parameter {spec.param_name} ({spec.param_doc})")
    param = Fraction(param)
    if not spec.param_check(param):
        raise DomainError(
            f"class {key}: {spec.param_name}={format_rational(param)} violates {spec.param_doc}")
    return ClassId(key, param)


def _split_id(text: str):
    """Split the id grammar 'name[:p=v][:tag]' into ('name[:tag]', (p, v) or None).

    Shared by class and curve ids; a second 'p=v' segment is refused.
    """
    rest, param = [], None
    for seg in text.strip().split(":"):
        if "=" not in seg:
            rest.append(seg)
            continue
        if param is not None:
            raise ValueError(f"multiple parameter segments in {text!r}")
        name, val = seg.split("=", 1)
        try:
            param = (name, parse_rational(val))
        except ValueError as e:
            raise ValueError(f"segment {clip(seg)!r}: {e}") from None
    return ":".join(rest), param


def parse_class(text: str) -> ClassId:
    """Parse the CLI grammar, e.g. 'd4_2:w2', 'r2r2:lambda=7/3', 'd4p:delta=2:plus'."""
    key, param = _split_id(text)
    key = _resolve_key(key)
    spec = CLASSES[key]
    if param is not None and param[0] != spec.param_name:
        raise ValueError(f"class {key} takes parameter {spec.param_name}, not {param[0]}")
    return class_id(key, param[1] if param else None)


def make(cid: ClassId) -> Bracket:
    """The bracket of a validated class id; its two-form is the canonical one."""
    cid = class_id(cid.key, cid.param)
    return Bracket(4, CLASSES[cid.key].rules(cid.param))


def bracket_of(key: str, param=None) -> Bracket:
    return make(class_id(key, param))


def expected_invariants(cid: ClassId):
    """(dim Der_w, dim Der) as tabulated, parameter splits included."""
    cid = class_id(cid.key, cid.param)
    return CLASSES[cid.key].derdims(cid.param)


# -- degeneration curves -------------------------------------------------------


def _e(r, c=1):
    return ExpPoly.exp(F(r), F(c))


def _diag(*entries):
    out = [[ExpPoly.const(0) for _ in range(4)] for _ in range(4)]
    for i, x in enumerate(entries):
        out[i][i] = ExpPoly.coerce(x)
    return out


def _m(rows):
    return [[ExpPoly.coerce(x) for x in row] for row in rows]


def rescale_time(g, m: int):
    """The matrix g(m*t): every exponent of every ExpPoly entry times m."""
    return [[ExpPoly({r * m: c for r, c in ExpPoly.coerce(x).terms.items()})
             for x in row] for row in g]


class CurveSpec(NamedTuple):
    """One explicit degeneration curve g_t from the curve list.

    ``matrix(param)`` yields the 4x4 matrix as printed; ``orientation``
    records how the engine reads it.  A few items only reach their stated
    target after transposing or inverting the printed matrix (verified by the
    exact limit check, which doubles as the transcription-typo detector);
    those carry orientation 'transposed' or 'inverse' here rather than being
    silently rewritten.  ``source_param`` pins the source class parameter of
    a curve that starts from one special member of a family; otherwise the
    curve takes its source family's parameter and samples.
    """

    id: str
    source_key: str
    target_key: str
    matrix: Callable
    target_param: Optional[Fraction] = None
    orientation: str = "printed"
    time_scale: int = 1
    notes: tuple = ()
    source_param: Optional[Fraction] = None

    @property
    def param_name(self) -> Optional[str]:
        return None if self.source_param is not None else CLASSES[self.source_key].param_name

    def oriented_matrix(self, param=None):
        g = self.matrix(param)
        if self.time_scale != 1:
            g = rescale_time(g, self.time_scale)
        if self.orientation == "printed":
            return g
        if self.orientation == "transposed":
            return linalg.transpose(g)
        if self.orientation == "inverse":
            return symplectic_inverse(g)
        raise ValueError(f"unknown orientation {self.orientation!r}")

    def instantiate(self, param=None):
        if self.param_name is not None and param is None:
            raise ValueError(f"curve {self.id} needs parameter {self.param_name}")
        src = class_id(self.source_key, param if self.param_name else self.source_param)
        tgt = class_id(self.target_key, self.target_param)
        try:
            g = self.oriented_matrix(param)
        except ZeroDivisionError:
            raise DomainError(f"curve {self.id}: the matrix has a pole at "
                              f"{self.param_name}={format_rational(param)}") from None
        label = self.id if param is None else f"{self.id}:{self.param_name}={format_rational(param)}"
        return CurveInstance(label, self, src, tgt, g, make(src), make(tgt))


class CurveInstance(NamedTuple):
    label: str
    spec: CurveSpec
    source: ClassId
    target: ClassId
    g: list
    source_bracket: Bracket
    target_bracket: Bracket


def _r2r2_to_d411(_):
    return _m([[0, 1, 0, 0],
               [0, 0, _e(-1), 0],
               [0, 0, 1, 1],
               [_e(1, -1), _e(1), 0, 0]])


def _d4lambda_to_n4(p):
    lm1 = p - 1
    return _m([
        [0, -1, 0, 0],
        [_e(2, lm1), _e(1), 0, 0],
        [_e(4, -lm1 ** 2 / p), _e(3, lm1 ** 2 / (p * (2 * p - 1))), _e(-1, 1 / lm1), -1],
        [0, _e(2, lm1 / p), _e(-2, 1 / lm1), 0]])


def _d4p_to_n4(sign):
    def build(d):
        q = 4 + d * d
        return _m([
            [_e(F(1, 2), -q / 4), 0, 0, 0],
            [0, _e(F(-1, 4)), 0, 0],
            [0, _e(F(3, 4), -q / 4), _e(F(-1, 2), F(-4) / q), 0],
            [_e(F(3, 2), q * q / 16), _e(F(1, 4), sign * d / 2), 0, _e(F(1, 4))]])
    return build


def _r4m1beta_to_n4(b):
    bm1, bp1 = b - 1, b + 1
    return _m([
        [0, -1, 0, 0],
        [_e(2, bm1), _e(1), 0, 0],
        [_e(4, bm1 ** 3 / (2 * bp1)), _e(3, bm1 ** 2 / (2 * bp1)), _e(-1, 1 / bm1), -1],
        [_e(3, bm1 ** 2 * (b - 3) / (2 * bp1)), _e(2, -bm1 / bp1), _e(-2, 1 / bm1), 0]])


def _r4alpha_to_n4(a):
    ap1, am1 = a + 1, a - 1
    return _m([
        [0, -1, 0, 0],
        [_e(2, -ap1 / a), _e(1), 0, 0],
        [_e(4, -ap1 ** 3 / (2 * a * a * am1)), _e(3, ap1 ** 2 / (2 * a * am1)),
         _e(-1, -a / ap1), -1],
        [_e(3, -ap1 ** 2 * (1 + 3 * a) / (2 * a * a * am1)), _e(2, ap1 / am1),
         _e(-2, -a / ap1), 0]])


def _r4p0_to_n4(sign):
    def build(d):
        q = d * d + 1
        return _m([
            [_e(F(1, 2), -sign * q / d), 0, 0, 0],
            [0, _e(F(-1, 4)), 0, 0],
            [0, _e(F(3, 4), -q / (d * d)), _e(F(-1, 2), -sign * d / q), 0],
            [_e(F(3, 2), sign * q * q / (d ** 3)), _e(F(1, 4), -sign / d), 0, _e(F(1, 4))]])
    return build


HALF = F(1, 2)

_CLOCK_NOTE = ("clock normalized: printed exponents doubled so the slowest "
               "decaying entry falls at least like e^-t on the check grid")

CURVE_DEFS = [
    CurveSpec("appendix:d422-r4a", "d4_2:w2", "r4_alpha",
              lambda _: _diag(1, _e(HALF), 1, _e(-HALF)), target_param=F(-1, 2),
              notes=("exponents e^{t/2}, e^{-t/2} normalized from the printed comma form",)),
    CurveSpec("appendix:d423-r4a", "d4_2:w3", "r4_alpha",
              lambda _: _diag(1, _e(HALF), 1, _e(-HALF)), target_param=F(-1, 2),
              notes=("exponents e^{t/2}, e^{-t/2} normalized from the printed comma form",)),
    CurveSpec("appendix:d423-d421", "d4_2:w3", "d4_2:w1",
              lambda _: _m([[0, 1, 0, 0],
                            [0, 0, _e(-1, -1), 0],
                            [0, 0, 1, 1],
                            [_e(1), _e(1, -1), 0, 0]])),
    CurveSpec("appendix:r2r2-d411", "r2r2", "d4_1:w1", _r2r2_to_d411),
    CurveSpec("appendix:r2r2-rr30", "r2r2", "rr3_0",
              lambda _: _diag(1, _e(1), 1, _e(-1))),
    CurveSpec("appendix:r2p-d411", "r2p", "d4_1:w1",
              lambda _: _m([[1, 0, 0, 0],
                            [0, 0, 0, _e(HALF)],
                            [0, 0, 1, 0],
                            [0, _e(-HALF, -1), 0, 0]]),
              orientation="transposed",
              notes=("printed matrix reaches the target only after transposition",)),
    CurveSpec("appendix:d412-d411", "d4_1:w2", "d4_1:w1",
              lambda _: _diag(1, _e(-1), 1, _e(1))),
    CurveSpec("appendix:d412-n4", "d4_1:w2", "n4",
              lambda _: _m([[_e(1), 0, 0, 0],
                            [0, _e(2), 0, 0],
                            [0, _e(4), _e(-1), 0],
                            [_e(3), _e(3), 0, _e(-2)]])),
    CurveSpec("appendix:d411-rh3", "d4_1:w1", "rh3",
              lambda _: _m([[_e(1, -1), 0, 0, 0],
                            [0, 1, 0, 0],
                            [0, _e(1, -1), _e(-1, -1), 0],
                            [_e(2), 0, 0, 1]])),
    CurveSpec("appendix:rr30-rh3", "rr3_0", "rh3",
              lambda _: _m([[_e(1), 0, 0, 0],
                            [0, 1, 0, 0],
                            [0, _e(1, -1), _e(-1), 0],
                            [_e(2, -1), 0, 0, 1]])),
    CurveSpec("appendix:h4p-d4half", "h4:plus", "d4_lambda",
              lambda _: _diag(1, _e(-HALF), 1, _e(HALF)), target_param=F(1, 2)),
    CurveSpec("appendix:h4p-n4", "h4:plus", "n4",
              lambda _: _m([[_e(2, F(-1, 4)), 0, 0, 0],
                            [0, _e(-1), 0, 0],
                            [0, _e(3, F(-1, 4)), _e(-2, -4), 0],
                            [_e(6, F(1, 16)), _e(1, HALF), 0, _e(1)]])),
    CurveSpec("appendix:h4m-d4half", "h4:minus", "d4_lambda",
              lambda _: _diag(1, _e(-HALF), 1, _e(HALF)), target_param=F(1, 2)),
    CurveSpec("appendix:h4m-n4", "h4:minus", "n4",
              lambda _: _m([[_e(2, F(1, 4)), 0, 0, 0],
                            [0, _e(-1), 0, 0],
                            [0, _e(3, F(-1, 4)), _e(-2, 4), 0],
                            [_e(6, F(-1, 16)), _e(1, -HALF), 0, _e(1)]])),
    CurveSpec("appendix:r40p-rr30", "r4_0:plus", "rr3_0",
              lambda _: _diag(1, _e(-HALF), 1, _e(HALF))),
    CurveSpec("appendix:r40p-n4", "r4_0:plus", "n4",
              lambda _: _m([[_e(2, -1), 0, 0, 0],
                            [0, _e(-1), 0, 0],
                            [0, _e(3, -1), _e(-2, -1), 0],
                            [_e(6), _e(1, -1), 0, _e(1)]])),
    CurveSpec("appendix:r40m-rr30", "r4_0:minus", "rr3_0",
              lambda _: _diag(1, _e(-HALF), 1, _e(HALF))),
    CurveSpec("appendix:r40m-n4", "r4_0:minus", "n4",
              lambda _: _m([[_e(2), 0, 0, 0],
                            [0, _e(-1), 0, 0],
                            [0, _e(3, -1), _e(-2), 0],
                            [_e(6, -1), _e(1), 0, _e(1)]])),
    CurveSpec("appendix:d421-n4", "d4_2:w1", "n4",
              lambda _: _m([[0, -1, 0, 0],
                            [_e(2), _e(1), 0, 0],
                            [0, _e(3, F(1, 6)), _e(-1), -1],
                            [_e(3, HALF), _e(2, HALF), _e(-2), 0]])),
    CurveSpec("appendix:r4m1-r4m1m1", "r4_m1", "r4_m1_beta",
              lambda _: _m([[1, 0, 0, 0],
                            [0, 0, 0, _e(1, -1)],
                            [0, 0, 1, 0],
                            [0, _e(-1), 0, 0]]), target_param=F(-1)),
    CurveSpec("appendix:r4m1-n4", "r4_m1", "n4",
              lambda _: _m([[_e(1, -2), 0, 0, 0],
                            [0, _e(2, -4), 0, 0],
                            [0, _e(4, -4), _e(-1, -HALF), 0],
                            [_e(3, -2), _e(3, 4), 0, _e(-2, F(-1, 4))]])),
    CurveSpec("appendix:d4half-rh3", "d4_lambda", "rh3",
              lambda _: _m([[_e(-1), 0, 0, 0],
                            [0, 1, 0, 0],
                            [0, _e(2, -2), _e(1), 0],
                            [_e(1, -2), 0, 0, 1]]),
              orientation="inverse", source_param=HALF,
              notes=("source instantiated at lambda = 1/2",
                     "printed matrix reaches the target only after inversion",)),
    CurveSpec("appendix:r4m1m1-rh3", "r4_m1_beta", "rh3",
              lambda _: _m([[0, 1, 0, 0],
                            [_e(1, -2), 0, 0, 0],
                            [0, _e(1, -1), 0, 1],
                            [0, 0, _e(-1, -HALF), 0]]),
              notes=("source instantiated at beta = -1",), source_param=F(-1)),
    CurveSpec("appendix:d4lambda-n4", "d4_lambda", "n4", _d4lambda_to_n4),
    CurveSpec("appendix:d4pp-n4", "d4p:plus", "n4", _d4p_to_n4(F(1)),
              time_scale=2, notes=(_CLOCK_NOTE,)),
    CurveSpec("appendix:d4pm-n4", "d4p:minus", "n4", _d4p_to_n4(F(-1)),
              time_scale=2, notes=(_CLOCK_NOTE,)),
    CurveSpec("appendix:r4m1beta-n4", "r4_m1_beta", "n4", _r4m1beta_to_n4),
    CurveSpec("appendix:r4alpha-n4", "r4_alpha", "n4", _r4alpha_to_n4),
    CurveSpec("appendix:r4p0p-n4", "r4p_0:plus", "n4", _r4p0_to_n4(F(1)),
              time_scale=2, notes=(_CLOCK_NOTE,)),
    CurveSpec("appendix:r4p0m-n4", "r4p_0:minus", "n4", _r4p0_to_n4(F(-1)),
              time_scale=2, notes=(_CLOCK_NOTE,)),
    CurveSpec("appendix:rr3m1-n4", "rr3_m1", "n4",
              lambda _: _m([[0, -1, 0, 0],
                            [_e(2, -1), _e(1), 0, 0],
                            [0, _e(3, HALF), _e(-1, -1), -1],
                            [_e(3, -1), _e(2), _e(-2, -1), 0]])),
    CurveSpec("appendix:rr3p0-n4", "rr3p_0", "n4",
              lambda _: _m([[_e(HALF), 0, 0, 0],
                            [0, _e(F(-1, 4)), 0, 0],
                            [0, _e(F(3, 4), -1), _e(-HALF), 0],
                            [_e(F(3, 2), -1), 0, 0, _e(F(1, 4))]])),
    CurveSpec("appendix:n4-rh3", "n4", "rh3",
              lambda _: _m([[_e(1), 0, 0, 0],
                            [0, _e(1), 0, 0],
                            [0, 0, _e(-1), 0],
                            [0, _e(2, -1), 0, _e(-1)]]),
              notes=("printed limit label is garbled; target is rh3 per the "
                     "degeneration diagrams",)),
    CurveSpec("appendix:rh3-a4", "rh3", "a4",
              lambda _: _diag(1, _e(1), 1, _e(-1))),
    CurveSpec("ex2:xi_u", "d4_2:w2", "r4_alpha",
              lambda _: _diag(1, _e(1), 1, _e(-1)), target_param=F(-1, 2)),
]

CURVES = {spec.id: spec for spec in CURVE_DEFS}


def curves():
    """All curve specs: the printed list plus the worked-example curve."""
    return list(CURVE_DEFS)


def parse_curve(text: str):
    """Parse 'appendix:d4lambda-n4:lambda=7/3' into an instantiated curve."""
    cid, param = _split_id(text)
    if cid not in CURVES:
        raise KeyError(f"unknown curve id: {cid!r}")
    spec = CURVES[cid]
    if param is None:
        return spec.instantiate()
    if spec.param_name is None:
        raise ValueError(f"curve {cid} takes no parameter")
    if param[0] != spec.param_name:
        raise ValueError(f"curve {cid} takes parameter {spec.param_name}, not {param[0]}")
    return spec.instantiate(param[1])


# -- named rational families ---------------------------------------------------


def scaling_transform(t: Fraction):
    """diag(1/t, 1, t, 1); symplectic for every nonzero rational t."""
    t = Fraction(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    return [[F(1) / t, 0, 0, 0], [0, F(1), 0, 0], [0, 0, t, 0], [0, 0, 0, F(1)]]


def shear_transform(t: Fraction):
    """The shear e1 -> e1 - t e4, e2 -> e2 - t e3; symplectic for rational t."""
    t = Fraction(t)
    g = linalg.identity(4)
    g[3][0] = -t
    g[2][1] = -t
    return g


def rho_family(t: Fraction) -> Bracket:
    """shear_transform(t) acting on d4_lambda at lambda = 1/2."""
    g = shear_transform(t)
    return act(g, bracket_of("d4_lambda", F(1, 2)), symplectic_inverse(g))

