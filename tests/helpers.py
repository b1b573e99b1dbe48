"""Shared fixtures-in-spirit: the group corpus and small utilities."""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stdout

import numpy as np

from burnside import cli, cyclotomic, permgroup
from burnside.permgroup import PermGroup, Permutation


def full_cycle(d: int) -> Permutation:
    return permgroup.cycle(range(d), d)


def composite_degrees(low: int, high: int) -> list[int]:
    return [
        d
        for d in range(low, high + 1)
        if any(d % q == 0 for q in range(2, d))
    ]


def cyclic_regular_corpus(max_degree: int = 100) -> list[tuple[PermGroup, Permutation]]:
    """Transitive groups of composite degree with the canonical regular
    d-cycle: dihedral, cyclic-regular, symmetric and affine families."""
    corpus: list[tuple[PermGroup, Permutation]] = []
    for d in composite_degrees(4, 28):
        corpus.append((permgroup.dihedral(d), full_cycle(d)))
    for d in composite_degrees(4, 30):
        corpus.append((permgroup.cyclic(d), full_cycle(d)))
    for d in [4, 6, 8, 9, 10]:
        corpus.append((permgroup.symmetric(d), full_cycle(d)))
    for d, s in [(9, 2), (15, 2), (16, 3), (21, 2), (25, 2), (27, 2), (33, 2), (49, 3), (55, 2), (100, 3)]:
        if d <= max_degree:
            corpus.append((permgroup.affine(d, s), full_cycle(d)))
    return [(G, g) for G, g in corpus if G.degree <= max_degree]


def random_relabelling(rng: random.Random, G: PermGroup, *perms: Permutation):
    """G and the given permutations with the points relabelled by a random
    sigma: every permutation x becomes sigma^-1 x sigma."""
    images = list(range(G.degree))
    rng.shuffle(images)
    sigma = Permutation(tuple(images))
    sigma_inv = permgroup.inverse(sigma)

    def conj(x: Permutation) -> Permutation:
        return permgroup.compose(permgroup.compose(sigma_inv, x), sigma)

    K = PermGroup(G.degree, tuple(map(conj, G.generators)), name=G.name)
    return (K, *map(conj, perms))


def class_of(classes, j):
    """The class among `classes` that holds the index j."""
    return next(cl for cl in classes if j in cl)


def exhaustive_first_blocks(G: PermGroup) -> permgroup.BlockSystem | None:
    """Reference block search: glue 0 to every beta = 1, 2, ... in turn and
    return the first non-trivial system."""
    for beta in range(1, G.degree):
        system = permgroup.minimal_blocks(G, 0, beta)
        if not system.is_trivial:
            return system
    return None


def orbit_sum(M, orbit_index: int, j: int) -> cyclotomic.CycSum:
    """Reference for one entry of the suborbit-sum matrix M: the sum of
    z^(i*j) over suborbit `orbit_index`, as a formal sum."""
    return cyclotomic.from_indices(M.d, [(i * j) % M.d for i in M.suborbits[orbit_index]])


def scalar_column_classes(suborbits, moduli) -> tuple[tuple[int, ...], ...]:
    """Reference for the column classes of the suborbit sums over the
    regular Z_n1 x .. x Z_nk, n = `moduli`, whose points and columns are
    both labelled by the mixed-radix index of their coordinates (a
    `permgroup.relabel` labelling): the point x adds z^(sum_k x_k j_k L/n_k)
    to column j, z of order L = lcm(moduli).  Every column is reduced one
    sum at a time by `reduced_coeffs` and grouped by tuple equality."""
    L = math.lcm(*moduli)
    coords = np.array(list(itertools.product(*map(range, moduli))))  # label c: its coordinates
    exps = coords * (L // np.array(moduli)) @ coords.T % L  # [point, column]
    groups: dict = {}
    for c, e in enumerate(exps.T.tolist()):
        column = tuple(
            cyclotomic.reduced_coeffs(cyclotomic.from_indices(L, [e[i] for i in o]))
            for o in suborbits
        )
        groups.setdefault(column, []).append(c)
    return tuple(sorted((tuple(g) for g in groups.values()), key=lambda cl: cl[0]))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process, capturing stdout."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.run(argv)
    return code, buffer.getvalue()


def masked_report_lines(text: str) -> list[str]:
    """JSON lines with the timing field zeroed, for determinism diffs."""
    out = []
    for line in text.splitlines():
        obj = json.loads(line)
        if "millis" in obj:
            obj["millis"] = 0
        out.append(json.dumps(obj, sort_keys=True))
    return out
