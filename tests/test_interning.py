import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from dipterous.freealg import DiptBasis, basis_from_str, dipt_basis_of_degree, star_basis, word_str
from dipterous.homology import ChainKey, QNBasis, SYM_STAR, chain_basis
from dipterous.trees import (
    LEAF,
    Forest,
    PlanarTree,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    parse_tree,
)

from two_letters import dipt_basis_2

ROOT = Path(__file__).resolve().parents[1]


def test_equal_keys_are_one_object():
    assert PlanarTree(children=(LEAF, LEAF)) is PlanarTree((PlanarTree(), PlanarTree()))
    f = Forest((PlanarTree((LEAF, LEAF)), LEAF))
    assert Forest(trees=tuple(f.trees)) is f
    g = DiptBasis(Forest((LEAF,)), (0,))
    assert star_basis(g, g) is DiptBasis(Forest((LEAF, LEAF)), (0, 0))
    assert ChainKey(SYM_STAR, (g, g)) is ChainKey(symbol=SYM_STAR, slots=(g, g))
    assert QNBasis((0, 1)) is QNBasis(word=(0, 1), tag=None)


def test_parse_returns_the_interned_key():
    for f in enumerate_forests(5):
        assert parse_forest(str(f)) is f
        for t in f.trees:
            assert parse_tree(str(t)) is t
    for b in dipt_basis_2(4):
        assert basis_from_str(str(b)) is b


def test_copies_and_pickles_are_the_interned_key():
    b = dipt_basis_of_degree(4)[3]
    assert copy.copy(b) is b
    assert copy.deepcopy(b) is b
    assert pickle.loads(pickle.dumps(b)) is b


def test_degree_is_stored():
    b = basis_from_str("[(| (| |)) |] @ abca")
    assert (b.forest.trees[0].degree, b.forest.degree, b.degree) == (3, 4, 4)
    assert ChainKey(SYM_STAR, (b, b)).weight == 8
    assert QNBasis((0, 1), 2).degree == 3


@pytest.mark.parametrize(
    "key, name",
    [
        (LEAF, "children"),
        (Forest((LEAF,)), "trees"),
        (DiptBasis(Forest((LEAF,)), (0,)), "word"),
        (DiptBasis(Forest((LEAF,)), (0,)), "degree"),
        (ChainKey(None, (DiptBasis(Forest((LEAF,)), (0,)),)), "symbol"),
        (QNBasis((0,)), "tag"),
        (DiptBasis(Forest((LEAF,)), (0,)), "text"),
        (PlanarTree((LEAF, LEAF)), "text"),
        (Forest((LEAF,)), "text"),
    ],
)
def test_setting_an_attribute_raises(key, name):
    with pytest.raises(FrozenInstanceError):
        setattr(key, name, None)
    with pytest.raises(FrozenInstanceError):
        delattr(key, name)
    with pytest.raises(AttributeError):
        key.extra = 1


def test_dipt_basis_text_is_stored():
    b = basis_from_str("[(| (| |)) |] @ abca")
    assert str(b) is str(b)
    assert repr(b) == str(b)
    # Stored, not a field: copies and pickles still return the interned key.
    assert "text" not in DiptBasis._fields
    assert copy.copy(b) is b
    assert pickle.loads(pickle.dumps(b)) is b
    for n in range(1, 6):
        for b in dipt_basis_2(n):
            assert str(b) == f"{b.forest} @ {word_str(b.word)}"


def _encode_tree(t: PlanarTree) -> str:
    if not t.children:
        return "|"
    return "(" + " ".join(_encode_tree(c) for c in t.children) + ")"


def _encode_forest(f: Forest) -> str:
    return "[" + " ".join(_encode_tree(t) for t in f.trees) + "]"


def test_tree_and_forest_text_is_stored():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert str(t) is t.text
            assert str(t) == _encode_tree(t)
            assert parse_tree(str(t)) is t
        for f in enumerate_forests(n):
            assert str(f) is f.text
            assert str(f) == _encode_forest(f)
            assert parse_forest(str(f)) is f
    # Stored, not a field: copies and pickles still return the interned key.
    for key in (PlanarTree((LEAF, LEAF)), Forest((LEAF, LEAF))):
        assert "text" not in type(key)._fields
        assert copy.copy(key) is key
        assert pickle.loads(pickle.dumps(key)) is key


def test_bad_shapes_raise_the_same_errors():
    g = DiptBasis(Forest((LEAF,)), (0,))
    cases = [
        (lambda: PlanarTree((LEAF,)), "unary nodes are not in the Schroeder basis"),
        (lambda: Forest(()), "forests are nonempty"),
        (lambda: DiptBasis(Forest((LEAF, LEAF)), (0,)), "word length must equal the forest leaf count"),
        (lambda: ChainKey(SYM_STAR, ()), "chains need at least one slot"),
        (lambda: ChainKey(SYM_STAR, (g,)), "the symbol is carried exactly in arity >= 2"),
        (lambda: ChainKey(None, (g, g)), "the symbol is carried exactly in arity >= 2"),
        (lambda: ChainKey("x", (g, g)), "unknown symbol 'x'"),
        (lambda: QNBasis(()), "words are nonempty"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()
        # A rejected shape leaves nothing behind: it raises again.
        with pytest.raises(ValueError):
            build()


def test_repr_is_the_field_form():
    assert repr(PlanarTree((LEAF, LEAF))) == (
        "PlanarTree(children=(PlanarTree(children=()), PlanarTree(children=())))"
    )
    assert repr(Forest((LEAF,))) == "Forest(trees=(PlanarTree(children=()),))"
    assert repr(QNBasis((0,), 1)) == "QNBasis(word=(0,), tag=1)"
    assert repr(DiptBasis(Forest((LEAF,)), (0,))) == "[|] @ a"


def test_cached_bases_are_shared_tuples():
    # Each enumeration hands every caller its one cached tuple; a tuple
    # cannot be changed, so no caller can corrupt the cache.
    for enumerate_basis, args in ((dipt_basis_of_degree, (3,)), (chain_basis, (2, 4))):
        basis = enumerate_basis(*args)
        assert type(basis) is tuple and enumerate_basis(*args) is basis
        assert list(basis) == sorted(basis, key=str)
    assert len(dipt_basis_of_degree(3)) == 6


def _cli_stdout(args, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "dipterous.cli", *args],
        env=env,
        capture_output=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["homology", "--weight-cap", "5", "--json"],
        ["antipode", "4", "--max-degree", "4", "--json"],
        ["verify", "coassoc", "--json"],
    ],
)
def test_output_does_not_depend_on_hash_seed(args):
    assert _cli_stdout(args, 1) == _cli_stdout(args, 77)
