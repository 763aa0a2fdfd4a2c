"""Cross-module consistency: the presentation generator and the pinch
reducer implement the same relation convention.

Every relator of pi1_presentation must reduce to the identity; tree-orbit
letters die; non-tree orbit letters survive; vertex letters survive
(vertex groups embed in pi1 for genuine graphs of groups).
"""

import zoo
from gogroups.gog import DiagramClass, classify, pi1_presentation
from gogroups.words import is_trivial, validate_loop_word, word_from_presentation_letters


def graph_of_groups_fixtures():
    return [
        zoo.torus(),
        zoo.klein(),
        zoo.bs12(),
        zoo.two_loop_trivial(),
        zoo.amalgam23(),
        zoo.trefoil(),
        zoo.star3(),
        zoo.dyadic(3),
        zoo.dyadic(5),
        zoo.finite_star(),
        zoo.chain48(),
        zoo.chain39(),
        zoo.k4_leaf(),
        zoo.klein4_star(),
        zoo.torus_whisker(),
        zoo.torus_whisker(back_matrix=[[2]]),
    ]


def with_stored_trees():
    """Each fixture, then each with a non-default stored tree and base."""
    fixtures = graph_of_groups_fixtures()
    return fixtures + [zoo.rebased(g) for g in fixtures]


def test_every_relator_is_trivial():
    # tree relators and letter loops come from the same tree, stored or not
    for g in with_stored_trees():
        assert classify(g) is DiagramClass.GRAPH_OF_GROUPS
        pres = pi1_presentation(g)
        for rel in pres.relators:
            w = word_from_presentation_letters(g, list(rel), pres=pres)
            assert is_trivial(g, w), (g.base, rel)


def test_tree_letters_die_and_others_survive():
    for g in with_stored_trees():
        pres = pi1_presentation(g)
        tree = g.tree_orbits()
        for letter in pres.generators:
            # letter loops are built along the tree and not validated there
            for sign in (1, -1):
                loop = word_from_presentation_letters(g, [(letter.name, sign)], pres=pres)
                validate_loop_word(g, loop)
            w = word_from_presentation_letters(g, [(letter.name, 1)], pres=pres)
            if letter.kind == "edge":
                expect_trivial = letter.owner in tree
            else:
                group = g.vgroup[letter.owner]
                expect_trivial = group.is_identity(group.generators()[letter.index])
            assert is_trivial(g, w) == expect_trivial, letter
