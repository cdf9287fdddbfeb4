import random
from fractions import Fraction

import pytest

from dipterous.linalg import LinComb, linear
from dipterous.dynamics import (
    CoopTable,
    GrammarError,
    WeightedGraph,
    baxter_check,
    baxter_derived_ops,
    bowtie,
    concat,
    delta_sharp,
    distribution_json,
    distribution_rows,
    dynamics_run,
    dynamics_step,
    graph_coop,
    mu,
    parse_grammar,
    parse_graph,
    prec_A,
    total_mass,
    word_elem,
)

SIMPLE = CoopTable(
    frozenset("sab"),
    {"s": ((Fraction(1), ("a", "b")),)},
)


def test_delta_sharp_single_letter():
    out = delta_sharp(SIMPLE, word_elem(("s",)))
    assert out == LinComb({(("a",), ("b",)): 1})


def test_delta_sharp_prefixes_left_slot():
    out = delta_sharp(SIMPLE, word_elem(("a", "s")))
    assert out == LinComb({(("a", "a"), ("b",)): 1})


def test_delta_sharp_missing_rule_contributes_zero():
    assert delta_sharp(SIMPLE, word_elem(("a",))).is_zero()
    mixed = word_elem(("s",)) + word_elem(("a",))
    assert delta_sharp(SIMPLE, mixed) == LinComb({(("a",), ("b",)): 1})


def _random_table(rng: random.Random, n_symbols: int = 4) -> CoopTable:
    symbols = [chr(ord("a") + i) for i in range(n_symbols)]
    rules = {}
    for s in symbols:
        k = rng.randint(1, 3)
        weights = [Fraction(1, k)] * k
        rules[s] = tuple(
            (w, (rng.choice(symbols), rng.choice(symbols))) for w in weights
        )
    return CoopTable(frozenset(symbols), rules)


def _random_word(rng: random.Random, tbl: CoopTable, max_len: int = 4):
    return tuple(rng.choice(sorted(tbl.alphabet)) for _ in range(rng.randint(1, max_len)))


def test_last_letter_law_on_seeded_words():
    rng = random.Random(20240901)
    tbl = _random_table(rng)
    for _ in range(200):
        u = word_elem(_random_word(rng, tbl))
        v = word_elem(_random_word(rng, tbl))
        lhs = delta_sharp(tbl, concat(u, v))
        rhs = LinComb(
            ((next(iter(u.terms)) + a, b), c)
            for (a, b), c in delta_sharp(tbl, v).items()
        )
        assert lhs == rhs


def test_bowtie_and_prec_examples():
    s, t = word_elem(("s",)), word_elem(("t", ))
    tbl = CoopTable(frozenset("sabt"), {"s": ((Fraction(1), ("a", "b")),)})
    assert bowtie(tbl, s, t) == word_elem(("a", "b", "t"))
    assert prec_A(tbl, t, s) == word_elem(("t", "a", "b"))


def test_right_l_dipterous_axioms_on_seeded_triples():
    rng = random.Random(7)
    tbl = _random_table(rng)
    for _ in range(200):
        x = word_elem(_random_word(rng, tbl))
        y = word_elem(_random_word(rng, tbl))
        z = word_elem(_random_word(rng, tbl))
        star = lambda a, b: bowtie(tbl, a, b)
        prec = lambda a, b: prec_A(tbl, a, b)
        # (x < y) < z = x < (y |><| z) and (x |><| y) < z = x |><| (y < z)
        assert prec(prec(x, y), z) == prec(x, star(y, z))
        assert prec(star(x, y), z) == star(x, prec(y, z))
        assert star(star(x, y), z) == star(x, star(y, z))


def test_baxter_identity_endomorphism():
    ident = lambda w: word_elem(w)
    samples = [("a",), ("a", "a")]
    assert baxter_check(ident, samples) is None
    x, y = word_elem(("a",)), word_elem(("a", "a"))
    sx, px = baxter_derived_ops(ident, x, y, samples)
    assert sx == concat(x, y) and px == concat(x, y)


def test_baxter_from_cooperation_matches_derived_ops():
    rng = random.Random(99)
    tbl = _random_table(rng)
    zeta = lambda w: mu(delta_sharp(tbl, word_elem(w)))
    samples = [_random_word(rng, tbl) for _ in range(12)]
    assert baxter_check(zeta, samples) is None
    for _ in range(30):
        x = word_elem(_random_word(rng, tbl))
        y = word_elem(_random_word(rng, tbl))
        got_star, got_prec = baxter_derived_ops(zeta, x, y)
        assert got_star == bowtie(tbl, x, y)
        assert got_prec == prec_A(tbl, x, y)


def test_baxter_violation_reports_witness():
    # reversing a word is not compatible with one-sided composition
    def bad(word):
        return word_elem(tuple(reversed(word))) if len(word) > 1 else word_elem(word + word)

    samples = [("a",), ("a", "b")]
    witness = baxter_check(bad, samples)
    assert witness is not None
    with pytest.raises(ValueError):
        baxter_derived_ops(bad, word_elem(("a",)), word_elem(("b",)), samples)


def test_endo_table_lookup():
    from dipterous.dynamics import as_endo

    table = {("a",): word_elem(("a", "a"))}
    zeta = as_endo(table)
    assert linear(zeta)(word_elem(("a",))) == word_elem(("a", "a"))
    with pytest.raises(KeyError):
        zeta(("b",))


def test_graph_coop():
    g = WeightedGraph(
        frozenset("vwu"),
        (
            ("v", "w", Fraction(1, 2)),
            ("v", "u", Fraction(1, 2)),
            ("w", "v", Fraction(1)),
            ("u", "u", Fraction(1)),
        ),
    )
    tbl = graph_coop(g)
    out = delta_sharp(tbl, word_elem(("v",)))
    assert out == LinComb({(("v",), ("w",)): Fraction(1, 2), (("v",), ("u",)): Fraction(1, 2)})
    assert tbl.is_stochastic()


def test_graph_loop():
    g = WeightedGraph(frozenset("v"), (("v", "v", Fraction(1)),))
    tbl = graph_coop(g)
    assert delta_sharp(tbl, word_elem(("v",))) == LinComb({(("v",), ("v",)): 1})


def test_graph_sink_rejected():
    g = WeightedGraph(frozenset("vw"), (("v", "w", Fraction(1)),))
    with pytest.raises(GrammarError):
        graph_coop(g)


def test_graph_duplicate_arc_rejected():
    with pytest.raises(GrammarError):
        WeightedGraph(frozenset("vw"), (("v", "w", Fraction(1)), ("v", "w", Fraction(2))))


def test_dynamics_one_step_example():
    tbl = parse_grammar("s -> s a : 1/2\ns -> a s : 1/2\na -> a a : 1\n")
    state = dynamics_run(tbl, "s", 1)
    assert state == LinComb({("s", "a"): Fraction(1, 2), ("a", "s"): Fraction(1, 2)})


def test_dynamics_zero_steps():
    tbl = parse_grammar("s -> s s : 1\n")
    assert dynamics_run(tbl, "s", 0) == word_elem(("s",))


def test_deterministic_rule_grows_one_letter_per_step():
    tbl = parse_grammar("s -> s a : 1\na -> a a : 1\n")
    state = dynamics_run(tbl, "s", 3)
    assert len(state) == 1
    ((word, mass),) = state.items()
    assert len(word) == 4 and mass == 1


def test_mass_conserved_ten_steps_seeded_grammars():
    rng = random.Random(1234)
    for _ in range(5):
        tbl = _random_table(rng, n_symbols=rng.randint(2, 5))
        assert tbl.is_stochastic()
        start = sorted(tbl.alphabet)[0]
        state = word_elem((start,))
        for _ in range(10):
            state = dynamics_step(tbl, state)
            assert total_mass(state) == 1


def test_parse_grammar_errors_carry_line_numbers():
    with pytest.raises(GrammarError) as err:
        parse_grammar("s -> a b : 1/2\nnot a rule\n")
    assert "line 2" in str(err.value)
    with pytest.raises(GrammarError):
        parse_grammar("s -> a : 1\n")
    with pytest.raises(GrammarError):
        parse_grammar("")


def test_parse_grammar_stochastic_check():
    text = "s -> a b : 1/3\n"
    with pytest.raises(GrammarError):
        parse_grammar(text)
    tbl = parse_grammar(text, probability=False)
    assert not tbl.is_stochastic()


def test_negative_weights_are_not_stochastic():
    # Each symbol's weights sum to 1, but A's include a negative one.
    text = "A -> A A : 3/2\nA -> B B : -1/2\nB -> B B : 1\n"
    with pytest.raises(GrammarError) as err:
        parse_grammar(text)
    assert "'A'" in str(err.value)
    tbl = parse_grammar(text, probability=False)
    assert not tbl.is_stochastic()
    assert dynamics_run(tbl, "A", 1) == LinComb({("A", "A"): Fraction(3, 2), ("B", "B"): Fraction(-1, 2)})


def test_parse_grammar_comments_and_unknown_symbols():
    tbl = parse_grammar("# comment line\ns -> a b : 1  # trailing\na -> a a : 1\nb -> b b : 1\n")
    assert tbl.alphabet == frozenset("sab")


def test_parse_graph():
    g = parse_graph("# graph\narc v w 1/2\narc v u 1/2\narc w w 1\narc u u 1\n")
    assert g.vertices == frozenset("vwu")
    with pytest.raises(GrammarError):
        parse_graph("arc v w\n")


def test_distribution_rows_sorted_by_mass_then_word():
    state = LinComb(
        {
            ("a", "b"): Fraction(1, 4),
            ("b", "a"): Fraction(1, 2),
            ("a", "a"): Fraction(1, 4),
        }
    )
    rows = distribution_rows(state)
    assert rows == [("ba", Fraction(1, 2)), ("aa", Fraction(1, 4)), ("ab", Fraction(1, 4))]
    assert distribution_json(state)[0] == {"word": "ba", "mass": "1/2"}
