"""The PDDL parser that ``prodplan.pddl.parser`` replaced.

Kept unchanged as a reference, apart from its imports: it builds one
``_Tok(text, line, col)`` per token and carries positions through every
parse. ``tests/test_parser_reference.py`` checks that ``parse_domain``,
``parse_problem`` and ``parse_plan`` return equal ASTs, or raise the same
errors with the same messages, lines and columns, on random and mutated
text.

The module docstring of the original follows.

Parse PDDL domain, problem and plan text into AST nodes.

Keywords are case-insensitive, names keep their case. Constructs outside
the supported subset (durative actions, derived predicates, disjunctive
conditions, general numeric fluents) raise UnsupportedFeature; malformed
text raises PddlSyntaxError with line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from prodplan.errors import PddlSyntaxError, UnsupportedFeature
from prodplan.pddl.ast import (
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


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*|\n")


def _tokenize(text: str) -> list[_Tok]:
    """Parentheses and names; spaces, tabs, carriage returns and comments
    are dropped. Columns count characters from the last newline."""
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        tok = match.group()
        if tok == "\n":
            line += 1
            line_start = match.end()
        elif tok[0] != ";":
            tokens.append(_Tok(tok, line, match.start() - line_start + 1))
    return tokens


def _read_forms(tokens: list[_Tok]):
    """Nest the token stream into lists; returns top-level forms."""
    stack: list[list] = [[]]
    opens: list[_Tok] = []
    for tok in tokens:
        if tok.text == "(":
            stack.append([])
            opens.append(tok)
        elif tok.text == ")":
            if len(stack) == 1:
                raise PddlSyntaxError("unbalanced ')'", tok.line, tok.col)
            done = stack.pop()
            opens.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        tok = opens[-1]
        raise PddlSyntaxError("unbalanced '('", tok.line, tok.col)
    return stack[0]


def _where(form) -> tuple[int, int]:
    node = form
    while isinstance(node, list):
        if not node:
            return (0, 0)
        node = node[0]
    return (node.line, node.col)


def _fail(form, message: str):
    line, col = _where(form)
    raise PddlSyntaxError(message, line, col)


def _name(form) -> str:
    if not isinstance(form, _Tok):
        _fail(form, "expected a name")
    return form.text


def _typed_names(items: list, what: str) -> tuple[TypedName, ...]:
    names: list[str] = []
    out: list[TypedName] = []
    i = 0
    while i < len(items):
        tok = items[i]
        if not isinstance(tok, _Tok):
            _fail(tok, f"expected a name in {what}")
        if tok.text == "-":
            if not names or i + 1 >= len(items):
                raise PddlSyntaxError(f"dangling '-' in {what}", tok.line, tok.col)
            type_name = _name(items[i + 1])
            out.extend(TypedName(n, type_name) for n in names)
            names = []
            i += 2
        else:
            names.append(tok.text)
            i += 1
    out.extend(TypedName(n) for n in names)
    return tuple(out)


def _function_name(form, what: str) -> str:
    if not isinstance(form, list) or len(form) != 1 or not isinstance(form[0], _Tok):
        _fail(form, f"expected a (function) reference in {what}")
    return form[0].text


def _expr_from(form, *, effect: bool) -> Expr:
    if isinstance(form, _Tok):
        _fail(form, "expected a parenthesized condition")
    if not form:
        _fail(form, "empty condition")
    head = form[0]
    if not isinstance(head, _Tok):
        _fail(head, "expected a connective or predicate name")
    kind = head.text.lower()
    if kind in _UNSUPPORTED_CONNECTIVES:
        raise UnsupportedFeature(
            f"'{head.text}' at line {head.line} is outside the supported subset"
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
                    f"'exists' in an effect at line {head.line}"
                )
            return Exists(variables, body)
        return Forall(variables, body)
    if kind == "when":
        if len(form) != 3:
            _fail(form, "'when' takes a condition and an effect")
        if not effect:
            raise UnsupportedFeature(f"'when' in a condition at line {head.line}")
        return When(
            _expr_from(form[1], effect=False), _expr_from(form[2], effect=True)
        )
    if kind == "increase":
        if not effect:
            raise UnsupportedFeature(f"'increase' in a condition at line {head.line}")
        if len(form) != 3 or not isinstance(form[2], _Tok):
            _fail(form, "'increase' takes a function and an integer")
        try:
            amount = int(form[2].text)
        except ValueError:
            raise PddlSyntaxError(
                "action costs must be integers", form[2].line, form[2].col
            ) from None
        return Increase(_function_name(form[1], "increase"), amount)
    args = []
    for arg in form[1:]:
        if not isinstance(arg, _Tok):
            _fail(arg, "predicate arguments must be names")
        args.append(arg.text)
    return Atom(head.text, tuple(args))


def _parse_define(text: str, expected: str):
    forms = _read_forms(_tokenize(text))
    if len(forms) != 1:
        raise PddlSyntaxError("expected exactly one (define ...) form", 1, 1)
    form = forms[0]
    if (
        not isinstance(form, list)
        or not form
        or not isinstance(form[0], _Tok)
        or form[0].text.lower() != "define"
    ):
        _fail(form, "expected (define ...)")
    if (
        len(form) < 2
        or not isinstance(form[1], list)
        or len(form[1]) != 2
        or not isinstance(form[1][0], _Tok)
        or form[1][0].text.lower() != expected
    ):
        _fail(form, f"expected ({expected} <name>) after define")
    name = _name(form[1][1])
    return name, form[2:]


def _section_head(section) -> str:
    if not isinstance(section, list) or not section or not isinstance(section[0], _Tok):
        _fail(section, "expected a (:section ...) form")
    return section[0].text.lower()


def parse_domain(text: str) -> PddlDomain:
    name, sections = _parse_define(text, "domain")
    requirements: tuple[str, ...] = ()
    types: tuple[TypedName, ...] = ()
    constants: tuple[TypedName, ...] = ()
    predicates: list[Predicate] = []
    functions: list[str] = []
    actions: list[PddlAction] = []
    for section in sections:
        head = _section_head(section)
        if head in _UNSUPPORTED_SECTIONS:
            line, col = _where(section)
            raise UnsupportedFeature(f"'{head}' at line {line} is not supported")
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
                if isinstance(form, _Tok) and form.text == "-":
                    continue  # tolerate a trailing "- number" annotation
                if isinstance(form, _Tok) and form.text.lower() == "number":
                    continue
                functions.append(_function_name(form, ":functions"))
        elif head == ":action":
            actions.append(_parse_action(section))
        else:
            line, col = _where(section)
            raise PddlSyntaxError(f"unknown section '{head}'", line, col)
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
    if len(section) < 2 or not isinstance(section[1], _Tok):
        _fail(section, ":action needs a name")
    name = section[1].text
    parameters: tuple[TypedName, ...] = ()
    precondition: Expr | None = None
    effect: Expr | None = None
    i = 2
    while i < len(section):
        key = section[i]
        if not isinstance(key, _Tok) or not key.text.startswith(":"):
            _fail(key, "expected :parameters, :precondition or :effect")
        if i + 1 >= len(section):
            raise PddlSyntaxError(f"'{key.text}' has no value", key.line, key.col)
        value = section[i + 1]
        keyword = key.text.lower()
        if keyword == ":parameters":
            if not isinstance(value, list):
                _fail(value, ":parameters needs a (?x - type ...) list")
            parameters = _typed_names(value, ":parameters")
        elif keyword == ":precondition":
            precondition = _expr_from(value, effect=False)
        elif keyword == ":effect":
            effect = _expr_from(value, effect=True)
        else:
            raise UnsupportedFeature(f"action keyword '{key.text}' is not supported")
        i += 2
    return PddlAction(name, parameters, precondition, effect)


def parse_problem(text: str) -> PddlProblem:
    name, sections = _parse_define(text, "problem")
    domain_name = ""
    objects: tuple[TypedName, ...] = ()
    init: list[Atom | NumericInit] = []
    goal: Expr | None = None
    minimize: str | None = None
    for section in sections:
        head = _section_head(section)
        if head == ":domain":
            domain_name = _name(section[1])
        elif head == ":requirements":
            continue
        elif head == ":objects":
            objects = _typed_names(section[1:], ":objects")
        elif head == ":init":
            for form in section[1:]:
                if not isinstance(form, list) or not form:
                    _fail(form, "init entries must be ground atoms")
                if isinstance(form[0], _Tok) and form[0].text == "=":
                    if len(form) != 3 or not isinstance(form[2], _Tok):
                        _fail(form, "expected (= (function) value)")
                    try:
                        value = int(form[2].text)
                    except ValueError:
                        raise PddlSyntaxError(
                            "function values must be integers",
                            form[2].line,
                            form[2].col,
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
                or not isinstance(section[1], _Tok)
                or section[1].text.lower() != "minimize"
            ):
                raise UnsupportedFeature("only 'minimize (total-cost)' metrics are supported")
            minimize = _function_name(section[2], ":metric")
        else:
            line, col = _where(section)
            raise PddlSyntaxError(f"unknown section '{head}'", line, col)
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
    steps = []
    for form in _read_forms(_tokenize(text)):
        if isinstance(form, _Tok):
            if _STEP_PREFIX.match(form.text):
                continue
            raise PddlSyntaxError(
                f"unexpected token {form.text!r} in plan", form.line, form.col
            )
        if not form or not isinstance(form[0], _Tok):
            _fail(form, "plan steps must be (action args...) forms")
        args = []
        for arg in form[1:]:
            if not isinstance(arg, _Tok):
                _fail(arg, "plan arguments must be names")
            args.append(arg.text)
        steps.append(PlanStep(form[0].text, tuple(args)))
    return Plan(steps=tuple(steps), cost=cost)
