"""Built-in verification catalog: groups, involutions per group, and fixtures."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm

from .errors import ComputationError
from .groups import Group, abelian_group, build_group, sign_characters, symmetric_group
from .involutions import LINEAR, AlgebraElement, Involution
from .linalg import null_space

CATALOG_SPECS: tuple[str, ...] = tuple(
    [f"cyclic:{n}" for n in range(1, 31)]
    + [f"dihedral:{n}" for n in range(2, 16)]
    + [f"dicyclic:{n}" for n in range(2, 9)]
    + ["symmetric:3", "symmetric:4"]
    + ["alternating:4", "alternating:5"]
    + ["abelian:2,2", "abelian:2,2,2"]
    + ["product:cyclic:2,dicyclic:2"]
)


def catalog_groups(selector: str | None = None, max_order: int | None = None) -> list[Group]:
    """Catalog groups, optionally filtered by exact-name selector and order cap."""
    specs = CATALOG_SPECS
    if selector is not None:
        if selector in specs:
            specs = (selector,)
        else:
            specs = tuple(s for s in specs if selector in s)
    groups = [build_group(s) for s in specs]
    if max_order is not None:
        groups = [g for g in groups if g.order <= max_order]
    return groups


def builtin_involutions(group: Group) -> list[tuple[str, Involution]]:
    """Canonical plus every oriented involution g -> alpha(g) g^-1, alpha: G -> {1,-1}."""
    out = [("canonical", Involution.canonical(group))]
    for alpha in sign_characters(group):
        label = "oriented:" + "".join("+" if a == 1 else "-" for a in alpha)
        out.append((label, Involution.oriented(group, alpha)))
    return out


def klein_swap_involution() -> tuple[Group, Involution]:
    """C2 x C2 with the automorphism swapping the two generators.

    On an abelian group an order-2 automorphism is an involution of the group
    algebra; this one transposes two of the four rational components, so the
    pair branch of the classification is reachable from a group-induced spec.
    """
    group = abelian_group([2, 2])
    # indices: 0 = (0,0), 1 = (0,1), 2 = (1,0), 3 = (1,1); swap the generators
    mapping = [0, 2, 1, 3]
    return group, Involution.anti_automorphism(group, mapping)


def klein_swap_linear_involution() -> tuple[Group, Involution]:
    """The same component swap packaged as a general linear involution matrix."""
    group, ga = klein_swap_involution()
    return group, Involution(group, LINEAR, ga.scaled_columns)


def c3c3_swap_involution() -> tuple[Group, Involution]:
    """C3 x C3 with the factor swap composed with inversion.

    The swap exchanges two 2-dimensional rational components while the
    composition with inversion keeps the map an algebra involution with a
    nontrivial action on the remaining components' centers.
    """
    group = abelian_group([3, 3])
    inv = group.inv

    def swap(g: int) -> int:
        a, b = divmod(g, 3)
        return b * 3 + a

    mapping = [inv[swap(g)] for g in range(group.order)]
    return group, Involution.anti_automorphism(group, mapping)


def algebra_unit_inverse(u: AlgebraElement) -> AlgebraElement:
    """Inverse of a unit of QG from the kernel of the integer rows [D L_u | -D e_1].

    Column z of L_u holds u z, and D is the lcm of u's denominators, so the kernel
    holds the (x, t) with u x = t.  A right inverse is a two-sided one in QG, so u is
    a unit exactly when some kernel vector has t != 0; then L_u is invertible and the
    kernel is that one vector B_0, with t = L, and otherwise t = 0 on all of it, B_0
    included.  So u^-1 = B_0[:n] / L."""
    group = u.group
    n = group.order
    mult = group.mult
    inv = group.inv
    d = reduce(lcm, (c.denominator for c in u.coeffs), 1)
    du = [c.numerator * (d // c.denominator) for c in u.coeffs]
    # L_u[h][z] = u[h z^-1]
    rows = [[du[mult[h][inv[z]]] for z in range(n)] + [-d if h == 0 else 0] for h in range(n)]
    den, (b0, *_) = null_space(rows, n + 1)
    if not b0[n]:
        raise ComputationError("element is not a unit of the group algebra")
    return AlgebraElement(group, [Fraction(x, den) for x in b0[:n]])


def conjugated_canonical_involution(group: Group, unit: AlgebraElement) -> Involution:
    """sigma_u(x) = u^-1 sigma(x) u for a canonically-symmetric unit u.

    Requires sigma(u) = u (canonical sigma), which makes sigma_u an involution;
    the resulting matrix is generally not induced by any group map.
    """
    n = group.order
    if any(unit.coeffs[g] != unit.coeffs[group.inv[g]] for g in range(n)):
        raise ComputationError("conjugating unit must be fixed by the canonical involution")
    uinv = algebra_unit_inverse(unit)
    cols = []
    for g in range(n):
        image = uinv * AlgebraElement.basis(group, group.inv[g]) * unit
        cols.append(image.coeffs)
    matrix = [[cols[g][h] for g in range(n)] for h in range(n)]
    return Involution.linear(group, matrix)


def s3_conjugated_fixture() -> tuple[Group, Involution]:
    """S3 with the canonical involution conjugated by the unit 1 + 2*(0 1)."""
    group = symmetric_group(3)
    transposition = next(
        g for g in range(1, group.order)
        if group.mult[g][g] == 0
    )
    coeffs = [0] * group.order
    coeffs[0], coeffs[transposition] = 1, 2
    return group, conjugated_canonical_involution(group, AlgebraElement(group, coeffs))


def linear_fixtures() -> list[tuple[str, Group, Involution]]:
    """Constructed involutions exercising the linear variant and the pair branch."""
    fixtures = []
    g, inv = s3_conjugated_fixture()
    fixtures.append(("fixture:s3-conjugated-linear", g, inv))
    g, inv = klein_swap_involution()
    fixtures.append(("fixture:klein-component-swap", g, inv))
    g, inv = klein_swap_linear_involution()
    fixtures.append(("fixture:klein-component-swap-linear", g, inv))
    g, inv = c3c3_swap_involution()
    fixtures.append(("fixture:c3c3-component-swap", g, inv))
    return fixtures
