"""Parse PDDL domain, problem and plan text into AST nodes.

Keywords are case-insensitive, names keep their case. Constructs outside
the supported subset (durative actions, derived predicates, disjunctive
conditions, general numeric fluents) raise UnsupportedFeature; malformed
text raises PddlSyntaxError with line and column.

Tokens are plain strings, nested into plain lists, and carry no position.
Positions are worked out only when an error is raised: the site that
needs one raises ``_Reparse``, and the same text is parsed once more with
tokens and forms that know their line and column, so the same site
raises the real error. A form's position is that of its first token, or
of its '(' when it is empty.
"""

from __future__ import annotations

import re

from ..errors import PddlSyntaxError, UnsupportedFeature
from .ast import (
    SUPPORTED_REQUIREMENTS,
    And,
    Atom,
    Exists,
    Expr,
    Forall,
    Increase,
    Not,
    NumericInit,
    PddlAction,
    PddlDomain,
    PddlProblem,
    Plan,
    PlanStep,
    Predicate,
    TypedName,
    When,
)

_UNSUPPORTED_SECTIONS = {
    ":durative-action",
    ":derived",
    ":constraints",
    ":axiom",
    ":process",
    ":event",
}
_UNSUPPORTED_CONNECTIVES = {"or", "imply", "=", "<", ">", "<=", ">=", "assign", "decrease", "scale-up", "scale-down", "preference", "at", "over", "minus", "/", "*", "+"}


_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")
_TOKEN_OR_NEWLINE = re.compile(_TOKEN.pattern + r"|\n")


class _Reparse(Exception):
    """An error site needs a position, and the fast pass has none."""


class _Tok(str):
    """A token of the error pass: the text, with its ``line`` and ``col``."""


class _Form(list):
    """A form of the error pass: its ``line`` and ``col`` are its '('."""


def _positioned_tokens(text: str) -> list[_Tok]:
    """Parentheses and names; spaces, tabs, carriage returns and comments
    are dropped. Columns count characters from the last newline."""
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN_OR_NEWLINE.finditer(text):
        tok = match.group()
        if tok == "\n":
            line += 1
            line_start = match.end()
        elif tok[0] != ";":
            placed = _Tok(tok)
            placed.line, placed.col = line, match.start() - line_start + 1
            tokens.append(placed)
    return tokens


def _read_forms(tokens: list[str]) -> list:
    """Nest the token stream into lists; returns top-level forms.

    Comment tokens are skipped here. On the error pass every form is a
    ``_Form`` that knows where its '(' is.
    """
    form: list = []
    outer: list[list] = []
    for tok in tokens:
        if tok == "(":
            outer.append(form)
            if tok.__class__ is str:
                form = []
            else:
                form = _Form()
                form.line, form.col = tok.line, tok.col
        elif tok == ")":
            if not outer:
                _fail(tok, "unbalanced ')'")
            done = form
            form = outer.pop()
            form.append(done)
        elif tok[0] != ";":
            form.append(tok)
    if outer:
        line, col = _position(form)
        raise PddlSyntaxError("unbalanced '('", line, col)
    return form


def _parse(text: str, parse):
    """Run ``parse`` over the forms of ``text``.

    The fast pass works on plain strings. An error that must report a
    position raises ``_Reparse`` there, and the same text is parsed again
    with positioned tokens, so that the same site raises the real error.
    """
    try:
        return parse(_read_forms(_TOKEN.findall(text)))
    except _Reparse:
        pass
    return parse(_read_forms(_positioned_tokens(text)))


def _position(node) -> tuple[int, int]:
    """The line and column of a token, or of the '(' of a form."""
    try:
        return node.line, node.col
    except AttributeError:
        raise _Reparse from None


def _where(form) -> tuple[int, int]:
    """Where a form starts: its first token, or its '(' when it is empty."""
    while isinstance(form, list) and form:
        form = form[0]
    return _position(form)


def _line(form) -> int:
    return _where(form)[0]


def _fail(form, message: str):
    line, col = _where(form)
    raise PddlSyntaxError(message, line, col)


def _name(form) -> str:
    if not isinstance(form, str):
        _fail(form, "expected a name")
    return form


def _typed_names(items: list, what: str) -> tuple[TypedName, ...]:
    names: list[str] = []
    out: list[TypedName] = []
    i = 0
    while i < len(items):
        tok = items[i]
        if not isinstance(tok, str):
            _fail(tok, f"expected a name in {what}")
        if tok == "-":
            if not names or i + 1 >= len(items):
                _fail(tok, f"dangling '-' in {what}")
            type_name = _name(items[i + 1])
            out.extend(TypedName(n, type_name) for n in names)
            names = []
            i += 2
        else:
            names.append(tok)
            i += 1
    out.extend(TypedName(n) for n in names)
    return tuple(out)


def _function_name(form, what: str) -> str:
    if not isinstance(form, list) or len(form) != 1 or not isinstance(form[0], str):
        _fail(form, f"expected a (function) reference in {what}")
    return form[0]


def _expr_from(form, *, effect: bool) -> Expr:
    if isinstance(form, str):
        _fail(form, "expected a parenthesized condition")
    if not form:
        _fail(form, "empty condition")
    head = form[0]
    if not isinstance(head, str):
        _fail(head, "expected a connective or predicate name")
    kind = head.lower()
    if kind in _UNSUPPORTED_CONNECTIVES:
        raise UnsupportedFeature(
            f"'{head}' at line {_line(head)} is outside the supported subset"
        )
    if kind == "and":
        return And(tuple(_expr_from(i, effect=effect) for i in form[1:]))
    if kind == "not":
        if len(form) != 2:
            _fail(form, "'not' takes exactly one argument")
        return Not(_expr_from(form[1], effect=effect))
    if kind in ("exists", "forall"):
        if len(form) != 3 or not isinstance(form[1], list):
            _fail(form, f"'{kind}' needs a variable list and a body")
        variables = _typed_names(form[1], kind)
        body = _expr_from(form[2], effect=effect)
        if kind == "exists":
            if effect:
                raise UnsupportedFeature(
                    f"'exists' in an effect at line {_line(head)}"
                )
            return Exists(variables, body)
        return Forall(variables, body)
    if kind == "when":
        if len(form) != 3:
            _fail(form, "'when' takes a condition and an effect")
        if not effect:
            raise UnsupportedFeature(f"'when' in a condition at line {_line(head)}")
        return When(
            _expr_from(form[1], effect=False), _expr_from(form[2], effect=True)
        )
    if kind == "increase":
        if not effect:
            raise UnsupportedFeature(f"'increase' in a condition at line {_line(head)}")
        if len(form) != 3 or not isinstance(form[2], str):
            _fail(form, "'increase' takes a function and an integer")
        try:
            amount = int(form[2])
        except ValueError:
            line, col = _where(form[2])
            raise PddlSyntaxError("action costs must be integers", line, col) from None
        return Increase(_function_name(form[1], "increase"), amount)
    args = form[1:]
    for arg in args:
        if not isinstance(arg, str):
            _fail(arg, "predicate arguments must be names")
    return Atom(head, tuple(args))


def _parse_define(forms: list, expected: str):
    if len(forms) != 1:
        raise PddlSyntaxError("expected exactly one (define ...) form", 1, 1)
    form = forms[0]
    if (
        not isinstance(form, list)
        or not form
        or not isinstance(form[0], str)
        or form[0].lower() != "define"
    ):
        _fail(form, "expected (define ...)")
    if (
        len(form) < 2
        or not isinstance(form[1], list)
        or len(form[1]) != 2
        or not isinstance(form[1][0], str)
        or form[1][0].lower() != expected
    ):
        _fail(form, f"expected ({expected} <name>) after define")
    name = _name(form[1][1])
    return name, form[2:]


def _section_head(section) -> str:
    if not isinstance(section, list) or not section or not isinstance(section[0], str):
        _fail(section, "expected a (:section ...) form")
    return section[0].lower()


def parse_domain(text: str) -> PddlDomain:
    return _parse(text, _domain_from)


def _domain_from(forms: list) -> PddlDomain:
    name, sections = _parse_define(forms, "domain")
    requirements: tuple[str, ...] = ()
    types: tuple[TypedName, ...] = ()
    constants: tuple[TypedName, ...] = ()
    predicates: list[Predicate] = []
    functions: list[str] = []
    actions: list[PddlAction] = []
    for section in sections:
        head = _section_head(section)
        if head in _UNSUPPORTED_SECTIONS:
            raise UnsupportedFeature(f"'{head}' at line {_line(section)} is not supported")
        if head == ":requirements":
            reqs = []
            for tok in section[1:]:
                req = _name(tok).lower()
                if req not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedFeature(f"requirement '{req}' is not supported")
                reqs.append(req)
            requirements = tuple(reqs)
        elif head == ":types":
            types = _typed_names(section[1:], ":types")
        elif head == ":constants":
            constants = _typed_names(section[1:], ":constants")
        elif head == ":predicates":
            for form in section[1:]:
                if not isinstance(form, list) or not form:
                    _fail(form, "expected a (name ?args...) predicate")
                predicates.append(
                    Predicate(_name(form[0]), _typed_names(form[1:], "predicate"))
                )
        elif head == ":functions":
            for form in section[1:]:
                if isinstance(form, str) and form == "-":
                    continue  # tolerate a trailing "- number" annotation
                if isinstance(form, str) and form.lower() == "number":
                    continue
                functions.append(_function_name(form, ":functions"))
        elif head == ":action":
            actions.append(_parse_action(section))
        else:
            _fail(section, f"unknown section '{head}'")
    return PddlDomain(
        name=name,
        requirements=requirements,
        types=types,
        constants=constants,
        predicates=tuple(predicates),
        functions=tuple(functions),
        actions=tuple(actions),
    )


def _parse_action(section) -> PddlAction:
    if len(section) < 2 or not isinstance(section[1], str):
        _fail(section, ":action needs a name")
    name = section[1]
    parameters: tuple[TypedName, ...] = ()
    precondition: Expr | None = None
    effect: Expr | None = None
    i = 2
    while i < len(section):
        key = section[i]
        if not isinstance(key, str) or not key.startswith(":"):
            _fail(key, "expected :parameters, :precondition or :effect")
        if i + 1 >= len(section):
            _fail(key, f"'{key}' has no value")
        value = section[i + 1]
        keyword = key.lower()
        if keyword == ":parameters":
            if not isinstance(value, list):
                _fail(value, ":parameters needs a (?x - type ...) list")
            parameters = _typed_names(value, ":parameters")
        elif keyword == ":precondition":
            precondition = _expr_from(value, effect=False)
        elif keyword == ":effect":
            effect = _expr_from(value, effect=True)
        else:
            raise UnsupportedFeature(f"action keyword '{key}' is not supported")
        i += 2
    return PddlAction(name, parameters, precondition, effect)


def parse_problem(text: str) -> PddlProblem:
    return _parse(text, _problem_from)


def _problem_from(forms: list) -> PddlProblem:
    name, sections = _parse_define(forms, "problem")
    domain_name = ""
    objects: tuple[TypedName, ...] = ()
    init: list[Atom | NumericInit] = []
    goal: Expr | None = None
    minimize: str | None = None
    for section in sections:
        head = _section_head(section)
        if head == ":domain":
            if len(section) < 2:
                _fail(section, ":domain needs a name")
            domain_name = _name(section[1])
        elif head == ":requirements":
            continue
        elif head == ":objects":
            objects = _typed_names(section[1:], ":objects")
        elif head == ":init":
            for form in section[1:]:
                if not isinstance(form, list) or not form:
                    _fail(form, "init entries must be ground atoms")
                if form[0] == "=":
                    if len(form) != 3 or not isinstance(form[2], str):
                        _fail(form, "expected (= (function) value)")
                    try:
                        value = int(form[2])
                    except ValueError:
                        line, col = _where(form[2])
                        raise PddlSyntaxError(
                            "function values must be integers", line, col
                        ) from None
                    init.append(NumericInit(_function_name(form[1], ":init"), value))
                else:
                    node = _expr_from(form, effect=False)
                    if not isinstance(node, Atom):
                        _fail(form, "init entries must be ground atoms")
                    init.append(node)
        elif head == ":goal":
            if len(section) != 2:
                _fail(section, ":goal takes one condition")
            goal = _expr_from(section[1], effect=False)
        elif head == ":metric":
            if (
                len(section) != 3
                or not isinstance(section[1], str)
                or section[1].lower() != "minimize"
            ):
                raise UnsupportedFeature("only 'minimize (total-cost)' metrics are supported")
            minimize = _function_name(section[2], ":metric")
        else:
            _fail(section, f"unknown section '{head}'")
    if not domain_name:
        raise PddlSyntaxError("problem lacks a (:domain ...) section", 1, 1)
    return PddlProblem(
        name=name,
        domain_name=domain_name,
        objects=objects,
        init=tuple(init),
        goal=goal,
        minimize=minimize,
    )


_COST_COMMENT = re.compile(r";\s*cost\s*=\s*(\d+)", re.IGNORECASE)
_STEP_PREFIX = re.compile(r"^\d+(\.\d+)?:$")


def parse_plan(text: str) -> Plan:
    """Parse a plan: one (action args...) per step, optional cost comment.

    Leading "<number>:" step markers, as emitted by some solvers, are
    skipped.
    """
    cost_match = _COST_COMMENT.search(text)
    cost = int(cost_match.group(1)) if cost_match else None
    return Plan(steps=_parse(text, _steps_from), cost=cost)


def _steps_from(forms: list) -> tuple[PlanStep, ...]:
    steps = []
    for form in forms:
        if isinstance(form, str):
            if _STEP_PREFIX.match(form):
                continue
            _fail(form, f"unexpected token {form!r} in plan")
        if not form or not isinstance(form[0], str):
            _fail(form, "plan steps must be (action args...) forms")
        args = form[1:]
        for arg in args:
            if not isinstance(arg, str):
                _fail(arg, "plan arguments must be names")
        steps.append(PlanStep(form[0], tuple(args)))
    return tuple(steps)
