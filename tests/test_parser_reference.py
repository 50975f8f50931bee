"""The string-token parser agrees with the reference parser it replaced.

On every text, ``parse_domain``, ``parse_problem`` and ``parse_plan``
either return an AST equal to the reference's, or raise the same
exception type with the same message, line and column. The texts are
seeded random ASTs as written, dressed with ``\\r\\n`` line ends, tabs and
``;`` comments that hold parentheses, and then each broken by a single
token deletion, duplication or swap.

Two differences are intended. The reference reports an empty form ``()``
at line 0, column 0, and the parser reports the form's ``(``. And where
the reference reads the name of a ``(:domain)`` that has none and fails
with ``IndexError``, the parser raises ``PddlSyntaxError`` at that form.
"""

from __future__ import annotations

import random
import re

from prodplan.errors import PddlSyntaxError
from prodplan.pddl import (
    parse_domain,
    parse_plan,
    parse_problem,
    write_domain,
    write_plan,
    write_problem,
)

import reference_parser as reference
from astgen import random_domain, random_plan, random_problem

_PARSERS = (
    (parse_domain, reference.parse_domain),
    (parse_problem, reference.parse_problem),
    (parse_plan, reference.parse_plan),
)
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")
_POSITION_SUFFIX = re.compile(r" \(line -?\d+, column -?\d+\)$")


def _dress(text: str, rng: random.Random) -> str:
    """The same tokens with other spacing: tabs, CRLF and comments."""
    pieces = []
    for piece in re.split(r"( |\n)", text):
        if piece == " ":
            piece = rng.choice((" ", " ", "\t", " \t "))
        elif piece == "\n":
            piece = rng.choice(("\n", "\r\n", " ; a ( in a comment\n", "\t;) ((\r\n", "\n\n"))
        pieces.append(piece)
    head = rng.choice(("", "; header (not a form\n", "\t\r\n"))
    return head + "".join(pieces)


def _spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in _TOKEN.finditer(text) if m.group()[0] != ";"]


def _mutants(text: str, rng: random.Random) -> list[str]:
    """One single-token deletion, duplication and swap of ``text``."""
    spans = _spans(text)
    if len(spans) < 2:
        return []
    s, e = rng.choice(spans)
    deleted = text[:s] + text[e:]
    s, e = rng.choice(spans)
    duplicated = text[:e] + " " + text[s:e] + text[e:]
    (s1, e1), (s2, e2) = sorted(rng.sample(spans, 2))
    swapped = text[:s1] + text[s2:e2] + text[e1:s2] + text[s1:e1] + text[e2:]
    return [deleted, duplicated, swapped]


def _outcome(parse, text: str):
    try:
        return ("ast", parse(text))
    except Exception as err:  # any escaping exception is compared as well
        return ("error", type(err), str(err), getattr(err, "line", None), getattr(err, "column", None))


def _opens_empty_form(text: str, line: int, column: int) -> bool:
    """Whether ``text`` has a '(' at (line, column) whose next token is ')'."""
    lines = text.split("\n")
    if not 1 <= line <= len(lines):
        return False
    offset = sum(len(lines[i]) + 1 for i in range(line - 1)) + column - 1
    spans = _spans(text)
    starts = [s for s, _ in spans]
    if offset not in starts:
        return False
    i = starts.index(offset)
    return text[offset] == "(" and i + 1 < len(spans) and text[spans[i + 1][0]] == ")"


def _assert_same_outcome(text: str) -> None:
    for parse, parse_reference in _PARSERS:
        ours, theirs = _outcome(parse, text), _outcome(parse_reference, text)
        if theirs[0] == "error" and theirs[1] is PddlSyntaxError and theirs[3:] == (0, 0):
            assert ours[0] == "error" and ours[1] is PddlSyntaxError, (text, ours, theirs)
            assert _POSITION_SUFFIX.sub("", ours[2]) == _POSITION_SUFFIX.sub("", theirs[2])
            assert _opens_empty_form(text, ours[3], ours[4]), (text, ours)
        elif theirs[0] == "error" and theirs[1] is IndexError:
            assert ours[0] == "error" and ours[1] is PddlSyntaxError, (text, ours, theirs)
            assert ours[2].startswith(":domain needs a name"), (text, ours)
        else:
            assert ours == theirs, (text, ours, theirs)


def test_parser_matches_the_reference_on_random_and_mutated_text():
    rng = random.Random(20261018)
    for _ in range(40):
        domain = random_domain(rng)
        texts = [
            write_domain(domain),
            write_problem(random_problem(rng, domain)),
            write_plan(random_plan(rng)),
        ]
        for text in texts:
            dressed = _dress(text, rng)
            for variant in (text, dressed, *_mutants(text, rng), *_mutants(dressed, rng)):
                _assert_same_outcome(variant)


def test_parser_matches_the_reference_on_hand_written_errors():
    texts = [
        "",
        "(define (domain d)",
        "(define (domain d)))",
        "(define (domain d)) ; )\n\r\n\t  )\n",
        "(define (domain d) (:requirements :strips :fluents))",
        "(define (domain d) (:derived (p) (q)))",
        "(define (domain d) (:action A :parameters (?x -)))",
        "(define (domain d) (:action A :effect (increase (total-cost) x1)))",
        "(define (domain d) (:action A :precondition (increase (total-cost) 1)))",
        "(define (domain d) (:action A :precondition (and (P) (or (Q))))",
        "(define (domain d) (:action A :vars (?x)))",
        "(define (domain d) (:functions (total-cost) - number (f ?x)))",
        "(define (problem p) (:domain d) (:init (= (total-cost) zero)))",
        "(define (problem p) (:domain d) (:init (and (P))))",
        "(define (problem p) (:domain d) (:goal (P) (Q)))",
        "(define (problem p) (:domain d) (:init ()))",
        "(define (problem p) (:domain d) (:goal ()))",
        "(define (problem p) (:domain))",
        "(define (domain d) (:predicates ()))",
        "()",
        "(define (domain d) ())",
        "1: (move a b)\n2: move",
        "(move (a) b)",
    ]
    for text in texts:
        _assert_same_outcome(text)
