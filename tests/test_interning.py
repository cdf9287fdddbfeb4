import copy
import os
import pickle
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from dipterous.freealg import (
    DiptBasis,
    LDiptBasis,
    PermNapBasis,
    basis_from_str,
    dipt_basis_of_degree,
    ldipt_basis_of_degree,
    ldipt_generator,
    star_basis,
    word_str,
)
from dipterous.homology import ChainKey, QNBasis, SYM_STAR, chain_basis
from dipterous.trees import (
    BLEAF,
    LEAF,
    Y1,
    BinaryTree,
    Forest,
    FrozenInstanceError,
    Interned,
    NapTree,
    PlanarTree,
    enumerate_binary,
    enumerate_forests,
    enumerate_nap,
    enumerate_trees,
    parse_forest,
    parse_tree,
)
from dipterous.verify import _perm_nap_elements

from two_letters import LETTERS, dipt_basis_2, qn_basis_2

ROOT = Path(__file__).resolve().parents[1]


def test_equal_keys_are_one_object():
    assert PlanarTree(children=(LEAF, LEAF)) is PlanarTree((PlanarTree(), PlanarTree()))
    f = Forest((PlanarTree((LEAF, LEAF)), LEAF))
    assert Forest(trees=tuple(f.trees)) is f
    g = DiptBasis(Forest((LEAF,)), (0,))
    assert star_basis(g, g) is DiptBasis(Forest((LEAF, LEAF)), (0, 0))
    assert ChainKey(SYM_STAR, (g, g)) is ChainKey(symbol=SYM_STAR, slots=(g, g))
    assert QNBasis((0, 1)) is QNBasis(word=(0, 1), tag=None)
    assert BinaryTree(BLEAF, BLEAF) is Y1
    assert BinaryTree(left=Y1, right=BLEAF) is BinaryTree(Y1, BinaryTree())
    assert ldipt_generator(0) is LDiptBasis(Y1, (0,))
    a, w = NapTree("a"), NapTree("w")
    assert NapTree("v", (w, a)) is NapTree("v", (a, w))
    assert NapTree("v", (w, a)).children == (a, w)
    assert PermNapBasis(w, (w, a)) is PermNapBasis(head=w, tail=(a, w))
    assert PermNapBasis(w, (w, a)).tail == (a, w)


def test_parse_returns_the_interned_key():
    for f in enumerate_forests(5):
        assert parse_forest(str(f)) is f
        for t in f.trees:
            assert parse_tree(str(t)) is t
    for b in dipt_basis_2(4):
        assert basis_from_str(str(b)) is b


def test_copies_and_pickles_are_the_interned_key():
    v = NapTree("v", (NapTree("w"), NapTree("v")))
    for b in (
        dipt_basis_of_degree(4)[3],
        BinaryTree(Y1, BLEAF),
        LDiptBasis(BinaryTree(Y1, Y1), (0, 1, 0)),
        v,
        PermNapBasis(v, (NapTree("w"), v)),
    ):
        assert copy.copy(b) is b
        assert copy.deepcopy(b) is b
        assert pickle.loads(pickle.dumps(b)) is b


def test_degree_is_stored():
    b = basis_from_str("[(| (| |)) |] @ abca")
    assert (b.forest.trees[0].degree, b.forest.degree, b.degree) == (3, 4, 4)
    assert ChainKey(SYM_STAR, (b, b)).weight == 8
    assert QNBasis((0, 1), 2).degree == 3
    assert (BLEAF.degree, BinaryTree(Y1, BLEAF).degree) == (0, 2)
    assert LDiptBasis(BinaryTree(Y1, Y1), (0, 1, 0)).degree == 3
    assert NapTree("v", (NapTree("w", (NapTree("v"),)), NapTree("v"))).degree == 4


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
        (Y1, "left"),
        (Y1, "degree"),
        (NapTree("v"), "children"),
        (LDiptBasis(Y1, (0,)), "text"),
        (PermNapBasis(NapTree("v")), "tail"),
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
            assert str(b) == _text_reference(b)


def _text_reference(k) -> str:
    """The encoding of a key, recomputed from its fields on every call."""
    if isinstance(k, PlanarTree):
        if not k.children:
            return "|"
        return "(" + " ".join(_text_reference(c) for c in k.children) + ")"
    if isinstance(k, Forest):
        return "[" + " ".join(_text_reference(t) for t in k.trees) + "]"
    if isinstance(k, DiptBasis):
        return f"{_text_reference(k.forest)} @ {word_str(k.word)}"
    if isinstance(k, BinaryTree):
        if k.is_leaf:
            return "|"
        return f"({_text_reference(k.left)} {_text_reference(k.right)})"
    if isinstance(k, NapTree):
        if not k.children:
            return k.label
        return k.label + "[" + ",".join(_text_reference(c) for c in k.children) + "]"
    if isinstance(k, LDiptBasis):
        return f"{_text_reference(k.tree)} @ {word_str(k.word)}"
    if isinstance(k, PermNapBasis):
        tail = ",".join(_text_reference(t) for t in k.tail) if k.tail else "1"
        return f"{_text_reference(k.head)} @ {tail}"
    if isinstance(k, QNBasis):
        tag = "1" if k.tag is None else word_str((k.tag,))
        return f"{word_str(k.word)} @ {tag}"
    if isinstance(k, ChainKey):
        if k.symbol is None:
            return _text_reference(k.slots[0])
        return f"{k.symbol}<" + " ; ".join(_text_reference(s) for s in k.slots) + ">"
    raise TypeError(f"no reference encoding for {type(k).__name__}")


def test_tree_and_forest_text_is_stored():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert str(t) is t.text
            assert str(t) == _text_reference(t)
            assert parse_tree(str(t)) is t
        for f in enumerate_forests(n):
            assert str(f) is f.text
            assert str(f) == _text_reference(f)
            assert parse_forest(str(f)) is f
    # Stored, not a field: copies and pickles still return the interned key.
    for key in (PlanarTree((LEAF, LEAF)), Forest((LEAF, LEAF))):
        assert "text" not in type(key)._fields
        assert copy.copy(key) is key
        assert pickle.loads(pickle.dumps(key)) is key


def test_stored_text_matches_the_reference():
    keys = [
        *(t for n in range(6) for t in enumerate_binary(n)),
        *(
            LDiptBasis(t, w)
            for n in range(1, 5)
            for t in enumerate_binary(n)
            for w in product(LETTERS, repeat=n)
        ),
        *(t for n in range(1, 6) for t in enumerate_nap(n, ("v", "w"))),
        *(k for n in range(1, 5) for x in _perm_nap_elements(n) for k, _ in x.items()),
        *(k for n in range(1, 6) for k in qn_basis_2(n)),
        *(k for w in range(1, 6) for arity in range(1, w + 1) for k in chain_basis(arity, w)),
    ]
    assert {type(k) for k in keys} == {
        BinaryTree, LDiptBasis, NapTree, PermNapBasis, QNBasis, ChainKey
    }
    for k in keys:
        assert str(k) is k.text
        assert str(k) == _text_reference(k)


def test_every_key_class_is_interned():
    key_classes = Interned.__subclasses__()
    assert len(key_classes) == 9
    assert set(key_classes) == {
        PlanarTree, Forest, BinaryTree, NapTree, DiptBasis, LDiptBasis, PermNapBasis, QNBasis, ChainKey
    }
    for cls in key_classes:
        assert cls.__slots__[-1] == "text"


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
        (lambda: BinaryTree(BLEAF), "binary nodes have exactly two children"),
        (lambda: BinaryTree(None, Y1), "binary nodes have exactly two children"),
        (lambda: LDiptBasis(BLEAF, ()), "the bare leaf is not a basis element"),
        (lambda: LDiptBasis(Y1, (0, 0)), "word length must equal the internal degree"),
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
    assert repr(Y1) == (
        "BinaryTree(left=BinaryTree(left=None, right=None), right=BinaryTree(left=None, right=None))"
    )
    assert repr(LDiptBasis(Y1, (1,))) == f"LDiptBasis(tree={Y1!r}, word=(1,))"
    v = NapTree("v", (NapTree("w"),))
    assert repr(v) == "NapTree(label='v', children=(NapTree(label='w', children=()),))"
    assert repr(PermNapBasis(v)) == f"PermNapBasis(head={v!r}, tail=())"


def test_cached_bases_are_shared_tuples():
    # Each enumeration hands every caller its one cached tuple; a tuple
    # cannot be changed, so no caller can corrupt the cache.
    # The degree-n bases keep the text order of enumerate_forests and
    # enumerate_binary.
    pieces = [(dipt_basis_of_degree, (n,)) for n in range(1, 8)] + [(chain_basis, (2, 4))]
    pieces += [(ldipt_basis_of_degree, (n,)) for n in range(1, 8)]
    for enumerate_basis, args in pieces:
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
