"""Cooperations on alphabets, their extension to words, and string dynamics.

A cooperation table sends each symbol to a weighted sum of symbol pairs.
It extends to nonempty words by acting on the last letter only, which
makes the extension compatible with concatenation on the left:
``coop(uv) = u coop(v)``. Out of any such pair (product, cooperation) two
derived binary operations arise (splice the cooperation value in front of
the right factor, or after the left factor), and they satisfy the
right-handed one-sided axioms exactly; so do the operations derived from
any right Baxter-Rota operator.

Rewriting dynamics iterate (concatenate after cooperating): with
stochastic weights (every symbol of the alphabet has rules, whose weights
are >= 0 and sum to one) every step preserves total mass exactly, since
weights are rationals. A symbol without rules sums to 0, so mass reaching
it would vanish.

File formats (bit-exact; a weight is ``p/q`` or a decimal, never exponent
notation):
  grammar:  one rule per line, ``A -> B C : p/q``; ``#`` comments
  graph:    lines ``arc v w p/q``
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .linalg import LinComb, as_scalar, bilinear, linear, parse_rational
from .trees import Frozen

Word = tuple[str, ...]
WordElement = LinComb  # over Word keys


class GrammarError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CoopTable(Frozen):
    """Weighted substitution rules: symbol -> sum of (weight, pair)."""

    __slots__ = ("alphabet", "rules")

    def __init__(
        self,
        alphabet: frozenset[str],
        rules: Mapping[str, tuple[tuple[Fraction, tuple[str, str]], ...]],
    ):
        for sym, options in rules.items():
            if sym not in alphabet:
                raise GrammarError(f"rule head {sym!r} not in alphabet")
            for _, (b, c) in options:
                if b not in alphabet or c not in alphabet:
                    raise GrammarError(f"rule for {sym!r} uses unknown symbols")
        self._set(alphabet, rules)

    def check_stochastic(self):
        """Every symbol's weights form a distribution; the first that does
        not is named, the rule heads in file order before the symbols
        without rules in sorted order."""
        for sym in [*self.rules, *sorted(self.alphabet.difference(self.rules))]:
            options = self.rules.get(sym, ())
            if not _is_distribution(options):
                weights = ", ".join(str(w) for w, _ in options) or "no rules"
                raise GrammarError(
                    f"weights for {sym!r} must be >= 0 and sum to 1, got {weights}; "
                    "pass free-weights mode to allow this"
                )


def _is_distribution(options) -> bool:
    """Every rule weight is >= 0 and the weights sum to 1."""
    return all(w >= 0 for w, _ in options) and sum(w for w, _ in options) == 1


def delta_sharp(tbl: CoopTable, x: WordElement) -> LinComb:
    """Extend the letter cooperation to words: act on the last letter only.

    Words whose last symbol has no rules contribute zero.
    """
    acc = []
    for word, c in x.items():
        prefix, last = word[:-1], word[-1]
        for w, (b, s) in tbl.rules.get(last, ()):
            acc.append(((prefix + (b,), (s,)), c * w))
    return LinComb(acc)


def word_elem(word: Sequence[str]) -> WordElement:
    return LinComb.basis(tuple(word))


def mu(te: LinComb) -> WordElement:
    """Concatenate the two tensor slots."""
    return LinComb(((a + b), c) for (a, b), c in te.items())


concat = bilinear(operator.add)


def bowtie(tbl: CoopTable, x: WordElement, y: WordElement) -> WordElement:
    """x |><| y: cooperate-and-splice on the left factor, then append y."""
    return concat(mu(delta_sharp(tbl, x)), y)


def prec_A(tbl: CoopTable, x: WordElement, y: WordElement) -> WordElement:
    """x <| y: append the cooperated-and-spliced right factor."""
    return concat(x, mu(delta_sharp(tbl, y)))


Endo = Callable[[Word], WordElement]


def as_endo(zeta: Endo | Mapping[Word, WordElement]) -> Endo:
    if callable(zeta):
        return zeta
    table = dict(zeta)

    def lookup(word: Word) -> WordElement:
        try:
            return table[word]
        except KeyError:
            raise KeyError(f"endomorphism table has no image for {word}") from None

    return lookup


def baxter_check(zeta: Endo | Mapping, samples: Sequence[Word]) -> tuple[Word, Word] | None:
    """First witness pair violating zeta(x) zeta(y) = zeta(zeta(x) y), or None.

    The law is sampled, not proven; callers should report the sample size.
    """
    zeta = as_endo(zeta)
    for wx in samples:
        zx = zeta(wx)
        for wy in samples:
            lhs = concat(zx, zeta(wy))
            rhs = linear(zeta)(concat(zx, word_elem(wy)))
            if lhs != rhs:
                return (wx, wy)
    return None


def baxter_derived_ops(
    zeta: Endo | Mapping,
    x: WordElement,
    y: WordElement,
    samples: Sequence[Word] = (),
) -> tuple[WordElement, WordElement]:
    """(x *_z y, x <_z y) = (zeta(x) y, x zeta(y)); checks the law on samples."""
    zeta = as_endo(zeta)
    if samples:
        witness = baxter_check(zeta, samples)
        if witness is not None:
            raise ValueError(f"Baxter-Rota law fails on sampled pair {witness}")
    z = linear(zeta)
    return concat(z(x), y), concat(x, z(y))


class WeightedGraph(Frozen):
    """Locally finite weighted digraph with injective (source, target) arcs."""

    __slots__ = ("vertices", "arcs")

    def __init__(self, vertices: frozenset[str], arcs: tuple[tuple[str, str, Fraction], ...] = ()):
        seen = set()
        for v, w, _ in arcs:
            if v not in vertices or w not in vertices:
                raise GrammarError(f"arc {v}->{w} uses unknown vertex")
            if (v, w) in seen:
                raise GrammarError(f"duplicate arc {v}->{w}")
            seen.add((v, w))
        self._set(vertices, arcs)


def graph_coop(g: WeightedGraph) -> CoopTable:
    """Cooperation sending v to the weighted sum of v (x) target over arcs.

    Every vertex must have an outgoing arc (sinks are rejected).
    """
    rules: dict[str, list[tuple[Fraction, tuple[str, str]]]] = {v: [] for v in g.vertices}
    for v, w, weight in g.arcs:
        rules[v].append((as_scalar(weight), (v, w)))
    for v, options in rules.items():
        if not options:
            raise GrammarError(f"vertex {v!r} is a sink (no outgoing arcs)")
    return CoopTable(g.vertices, {v: tuple(opts) for v, opts in rules.items()})


def dynamics_step(tbl: CoopTable, state: WordElement) -> WordElement:
    """One rewriting step: cooperate on the last letter, then concatenate."""
    return mu(delta_sharp(tbl, state))


def dynamics_run(tbl: CoopTable, start: str, steps: int) -> list[WordElement]:
    """The states after 0, 1, ..., steps rewriting steps from the one-letter
    word ``start``."""
    if start not in tbl.alphabet:
        raise GrammarError(f"start symbol {start!r} not in alphabet")
    states = [word_elem((start,))]
    for _ in range(steps):
        states.append(dynamics_step(tbl, states[-1]))
    return states


def total_mass(state: WordElement) -> Fraction:
    return sum((c for _, c in state.items()), Fraction(0))


def parse_grammar(text: str, probability: bool = True) -> CoopTable:
    """Parse ``A -> B C : p/q`` lines; '#' starts a comment."""
    rules: dict[str, list[tuple[Fraction, tuple[str, str]]]] = {}
    symbols: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head_part, rest = line.split("->")
            body_part, weight_part = rest.split(":")
            head = head_part.strip()
            body = body_part.split()
            weight = parse_rational(weight_part.strip())
        except (ValueError, ZeroDivisionError):
            raise GrammarError(f"expected 'A -> B C : p/q', got {raw!r}", lineno) from None
        if len(body) != 2 or not head:
            raise GrammarError(f"rules rewrite one symbol into two, got {raw!r}", lineno)
        symbols.add(head)
        symbols.update(body)
        rules.setdefault(head, []).append((weight, (body[0], body[1])))
    if not rules:
        raise GrammarError("no rules found")
    tbl = CoopTable(frozenset(symbols), {h: tuple(opts) for h, opts in rules.items()})
    if probability:
        tbl.check_stochastic()
    return tbl


def parse_graph(text: str) -> WeightedGraph:
    """Parse ``arc v w p/q`` lines; '#' starts a comment."""
    vertices: set[str] = set()
    arcs: list[tuple[str, str, Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4 or fields[0] != "arc":
            raise GrammarError(f"expected 'arc v w p/q', got {raw!r}", lineno)
        try:
            weight = parse_rational(fields[3])
        except (ValueError, ZeroDivisionError):
            raise GrammarError(f"bad weight {fields[3]!r}", lineno) from None
        vertices.update(fields[1:3])
        arcs.append((fields[1], fields[2], weight))
    return WeightedGraph(frozenset(vertices), tuple(arcs))


def format_word(word: Word) -> str:
    return "".join(word) if all(len(s) == 1 for s in word) else ".".join(word)


def distribution_rows(state: WordElement) -> list[tuple[str, Fraction]]:
    """(word, mass) rows sorted by mass descending, then lexicographically."""
    rows = [(format_word(w), c) for w, c in state.items()]
    return sorted(rows, key=lambda row: (-row[1], row[0]))


def distribution_json(rows: list[tuple[str, Fraction]]) -> list[dict]:
    """The JSON form of ``distribution_rows``, in its order."""
    return [{"word": w, "mass": str(m)} for w, m in rows]
