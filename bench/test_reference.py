"""Small tests of the reference checkers. They use no part of `jus`.

Run with `python3 -m pytest bench/test_reference.py` or
`python3 bench/test_reference.py`.
"""

import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as R  # noqa: E402

P1, P2 = R.P(1), R.P(2)


def two_world():
    """The package's canonical example: at w, x1 justifies disbelief that
    P1 is believed because of an announcement."""
    return R.Model(["w", "v"], ["w"], v0={("w", 1): True}, v1={("v", P1): False},
                   evidence={("w", R.X(1)): {"w"}, ("w", R.UP(P1)): {"w", "v"}})


def test_evaluator_two_world():
    ev = R.Evaluator(two_world())
    claim = R.J(R.X(1), R.NOT(R.J(R.UP(P1), P1)))
    assert ev.holds("w", claim)
    assert not ev.holds("w", R.UPD(P1, claim))
    assert ev.holds("w", R.UPD(P1, R.J(R.UP(P1), P1)))
    assert ev.evidence("w", R.UP(P1), (P1,)) == {"w"}
    assert ev.evidence("w", R.UP(P1)) == {"w", "v"}


def test_evaluator_non_normal_reads_v1_for_whole_formula():
    m = R.Model(["w", "u"], ["w"], v0={("w", 1): True},
                v1={("u", R.IMP(P1, P1)): False, ("u", P2): True})
    ev = R.Evaluator(m)
    assert ev.truth(R.IMP(P1, P1)) == {"w"}
    assert ev.truth(P2) == {"u"}
    # announcements never change a non-normal world's answer
    assert ev.truth(R.UPD(P1, P2)) == frozenset()


def test_evaluator_application_by_components():
    m = R.Model(["w"], ["w"], v0={("w", 1): True, ("w", 2): True},
                evidence={("w", R.X(2)): set()})
    ev = R.Evaluator(m)
    app = R.APP(R.X(1), P1, R.C(1))
    # x1 : (P1 -> P2) and c1 : P1 both hold with "all" evidence in a
    # one-world model where both are true
    assert ev.holds("w", R.J(app, P2))
    m2 = R.Model(["w"], ["w"], v0={("w", 1): False, ("w", 2): True})
    assert not R.Evaluator(m2).holds("w", R.J(app, P2))
    # canonical application evidence: intersection, cut to wmp
    assert ev.evidence("w", R.APP(R.X(2), P1, R.C(1))) == frozenset()


def test_evaluator_empty_default_and_cs():
    m = R.Model(["w", "v"], ["w", "v"], v0={("w", 1): True}, default="empty")
    ev = R.Evaluator(m)
    assert ev.holds("w", R.J(R.C(1), P2))
    m2 = R.Model(["w", "v"], ["w", "v"], v0={("w", 1): True})
    ev2 = R.Evaluator(m2)
    assert ev2.cs_violations([(R.C(1), P1)]) == [("w", R.C(1), P1), ("v", R.C(1), P1)]
    assert ev2.cs_violations([(R.C(1), R.IMP(P1, P1))]) == []


def test_update_evidence_rederived_each_announcement():
    m = R.Model(["w", "v"], ["w", "v"], v0={("w", 1): True})
    ev = R.Evaluator(m)
    up = R.UP(P1)
    assert ev.evidence("w", up, (P1,)) == {"w"}
    assert ev.evidence("w", up, (P1, P2)) == {"w"}
    assert ev.evidence("w", up, (P2,)) == {"w", "v"}


def test_wmp():
    a, b = P1, P2
    m = R.Model(["w", "u1", "u2"], ["w"],
                v1={("u1", a): True, ("u1", R.IMP(a, b)): True,
                    ("u2", a): True, ("u2", R.IMP(a, b)): True, ("u2", b): True})
    assert R.wmp(m) == {"w", "u2"}


def test_show_read_round_trip():
    f = R.UPD(R.NOT(P1), R.J(R.APP(R.X(1), R.IMP(P1, P2), R.UP(P2)),
                             R.IMP(R.J(R.C(3), P1), R.NOT(P2))))
    text = R.show(f)
    assert text == "[~P1] (x1 *[(P1 -> P2)] up(P2)) : (c3 : P1 -> ~P2)"
    assert R.read(text) == f
    assert R.read_term("up(P1)") == R.UP(P1)
    m = two_world()
    back = R.model_from_json(m.to_json())
    assert back.evidence == m.evidence and back.v1 == m.v1 and back.v0 == m.v0


def test_tautology():
    assert R.is_tautology(R.IMP(P1, P1))
    assert R.is_tautology(R.IMP(R.IMP(R.IMP(P1, P2), P1), P1))  # Peirce
    assert not R.is_tautology(R.IMP(P1, P2))
    j = R.J(R.X(1), P1)
    assert R.is_tautology(R.IFF(R.AND(j, P2), R.AND(P2, j)))
    # justification atoms are opaque: x1 : P1 -> P1 is no tautology
    assert not R.is_tautology(R.IMP(j, P1))


def _brute_orbits(n_props, n_atoms, n_support, k, m):
    """Canonical forms by explicit renaming, for tiny shapes only."""
    worlds = list(range(k + m))
    subsets = [frozenset(c) for r in range(k + m + 1)
               for c in itertools.combinations(worlds, r)]
    cells = ([("v0", w, p) for w in range(k) for p in range(n_props)]
             + [("v1", w, g) for w in range(k, k + m) for g in range(n_support)])
    ev_cells = [(w, t) for w in range(k) for t in range(n_atoms)]
    perms = [sn + tuple(k + j for j in so)
             for sn in itertools.permutations(range(k))
             for so in itertools.permutations(range(m))]
    seen = set()
    for bits in itertools.product((False, True), repeat=len(cells)):
        for ev in itertools.product(subsets, repeat=len(ev_cells)):
            forms = []
            for pi in perms:
                renamed_bits = dict(((c[0], pi[c[1]], c[2]), b) for c, b in zip(cells, bits))
                renamed_ev = dict(((pi[w], t), frozenset(pi[u] for u in s))
                                  for (w, t), s in zip(ev_cells, ev))
                forms.append((tuple(renamed_bits[c] for c in cells),
                              tuple(tuple(sorted(renamed_ev[c])) for c in ev_cells)))
            seen.add(min(forms))
    return len(seen)


def test_orbit_count_matches_brute_force():
    for args in [(1, 1, 1, 2, 0), (1, 1, 1, 1, 1), (1, 1, 2, 2, 1), (0, 1, 1, 3, 0),
                 (2, 0, 1, 2, 1)]:
        assert R.count_shape(*args) == _brute_orbits(*args), args


def test_orbit_count_known_signatures():
    # (up(P1) : P2 -> [P1] up(P1) : P2): 2 props, 1 atom, 5 support formulas
    assert R.count_orbits(2, 1, 5, 2, 1) == 656
    assert R.count_orbits(2, 1, 5, 3, 2) == 39920
    # (x1 : P1 -> [P2] x1 : P1) at 2 worlds; [P1] up(P1) : P1 at 3 worlds
    assert R.count_orbits(2, 2, 5, 2, 1) == 4144
    assert R.count_orbits(1, 1, 3, 3, 2) == 2488


def test_normal_world_evaluations():
    # one-world models have one normal world each
    assert R.normal_world_evaluations(1, 1, 1, 1, 0) == R.count_orbits(1, 1, 1, 1, 0)
    assert R.normal_world_evaluations(1, 0, 0, 2, 0) == 1 * 2 + 2 * 3


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
    print("%d reference tests passed" % len(tests))
