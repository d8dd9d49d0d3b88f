"""Seeded workload inputs and the code that runs one benchmark item.

An item is one request a user of the package would make: a genus
computed and checked, an identity suite entry, or a brute-force oracle
comparison.  Items are plain JSON lists so that the parent process can
draw them and hand them to a fresh interpreter:

    ["jacobi", class, sign, ell, orders]    phi_g_ell + weak Jacobi check
    ["decomposition", class, sign, ell, orders]
    ["coincidences", ell, orders]           every coincidence row at ell
    ["eta", class, orders]                  the central eta-product identity
    ["sigma", orders]                       the orbifold character identities
    ["oracle-ts", class, which, orders]     brute_ts against ts_g
    ["oracle-phi", class, sign, orders]     brute_phi against phi_g

Running an item returns its output digest (sha256 of the text a user
would read: `compute --format text` bytes for a series, report lines
for a check) and the verdict of every check it made.
"""

from __future__ import annotations

import hashlib
import random

from conway_genera import genera, oracle, sigma
from conway_genera.series import QSeries

WORKLOADS = ("sweep", "deep", "oracle")
LAMBENCIES = (2, 3, 4, 5, 7)

# sweep: the suite defaults of `verify --suite jacobi/higher-lambency/coincidences`
SWEEP_JACOBI_ORDERS = 6
SWEEP_DECOMPOSITION_ORDERS = 4
SWEEP_COINCIDENCE_ORDERS = 5
# deep: few, long products
DEEP_ETA_ORDERS = 24
DEEP_SIGMA_ORDERS = 20
DEEP_GENUS_ORDERS = 10
# oracle: the degree-2 comparison of `verify --suite oracle`
ORACLE_ORDERS = 3
ORACLE_DEGREE = 2
#: classes in every oracle draw.  14C and 15D (eigenvalue orders 56 and
#: 60) are the costliest, about 3.2 and 3.9 s: drawing one of the two
#: would move a draw's cost by 6%.  5C fails its brute_phi check (ROADMAP
#: item 4); always drawn, it shows in every invocation, and `failed` does
#: not depend on the seed.
ORACLE_ALWAYS = ("5C", "14C", "15D")
#: (lowest, highest eigenvalue order, D nonzero at ell 2); the draw takes
#: one class from each.  Strata group classes of similar cost.
ORACLE_STRATA = ((2, 12, False), (14, 24, False), (2, 16, True), (22, 24, True),
                 (36, 40, True))


def signs(rec, ell: int) -> tuple[int, ...]:
    """D signs that give distinct genera (one when D vanishes)."""
    return (1,) if rec.d_magnitude[ell].is_zero else (1, -1)


def item_key(item) -> str:
    """A readable name that carries every input of the item."""
    kind, *rest = item
    if kind in ("jacobi", "decomposition"):
        name, sign, ell, orders = rest
        return f"{kind}[{name}, D sign {sign:+d}, ell {ell}, {orders} orders]"
    if kind == "coincidences":
        ell, orders = rest
        return f"coincidences[ell {ell}, {orders} orders]"
    if kind == "eta":
        name, orders = rest
        return f"eta[{name}, {orders} orders]"
    if kind == "sigma":
        return f"sigma[{rest[0]} orders]"
    if kind == "oracle-ts":
        name, which, orders = rest
        return f"oracle-ts[{name}, {which}, {orders} orders]"
    if kind == "oracle-phi":
        name, sign, orders = rest
        return f"oracle-phi[{name}, D sign {sign:+d}, ell 2, {orders} orders]"
    raise ValueError(f"unknown item kind {kind!r}")


# -- the inputs each workload can draw from -----------------------------------


def sweep_items(data) -> list[list]:
    """Every tabulated genus, every higher-lambency decomposition, every
    coincidence row."""
    items = [["jacobi", rec.co0_name, sign, ell, SWEEP_JACOBI_ORDERS]
             for ell in LAMBENCIES for rec in data.for_lambency(ell)
             for sign in signs(rec, ell)]
    items += [["decomposition", rec.co0_name, sign, ell, SWEEP_DECOMPOSITION_ORDERS]
              for ell in LAMBENCIES[1:] for rec in data.for_lambency(ell)
              for sign in signs(rec, ell)]
    items += [["coincidences", ell, SWEEP_COINCIDENCE_ORDERS]
              for ell in sorted({rel.lambency for rel in data.relations})]
    return items


def deep_fixed_items(data) -> list[list]:
    """The deep items every run has: all eta identities and the sigma suite."""
    return ([["eta", name, DEEP_ETA_ORDERS] for name in data.classes]
            + [["sigma", DEEP_SIGMA_ORDERS]])


def deep_genus_items(data) -> list[list]:
    """Every (class, sign, ell) genus the deep draw can pick."""
    return [["jacobi", rec.co0_name, sign, ell, DEEP_GENUS_ORDERS]
            for ell in LAMBENCIES for rec in data.for_lambency(ell)
            for sign in signs(rec, ell)]


def oracle_class_items(rec) -> list[list]:
    out = [["oracle-ts", rec.co0_name, which, ORACLE_ORDERS] for which in ("g", "g_tw")]
    out += [["oracle-phi", rec.co0_name, sign, ORACLE_ORDERS] for sign in signs(rec, 2)]
    return out


def oracle_strata(data) -> list[list]:
    """Class records outside ORACLE_ALWAYS, grouped by eigenvalue order and
    by whether D vanishes."""
    groups = [[] for _ in ORACLE_STRATA]
    for rec in data.classes.values():
        if rec.co0_name in ORACLE_ALWAYS:
            continue
        order = oracle.EigenSystem(rec.fs_g).order
        d_nonzero = not rec.d_magnitude[2].is_zero
        slot = next(i for i, (lo, hi, d) in enumerate(ORACLE_STRATA)
                    if lo <= order <= hi and d == d_nonzero)
        groups[slot].append(rec)
    return groups


def universe(workload: str, data) -> list[list]:
    """Every item any seed of the workload can draw."""
    if workload == "sweep":
        return sweep_items(data)
    if workload == "deep":
        return deep_fixed_items(data) + deep_genus_items(data)
    if workload == "oracle":
        return [item for rec in data.classes.values() for item in oracle_class_items(rec)]
    raise ValueError(f"unknown workload {workload!r}")


def draw(workload: str, data, seed: int) -> list[list]:
    """The items of every run of a benchmark invocation with `seed`.

    sweep: all of sweep_items, in a seeded order.
    deep: every eta identity, the sigma suite, and one genus per
    lambency for a drawn class and sign, in a seeded order.
    oracle: the classes of ORACLE_ALWAYS and one drawn class from each
    stratum of ORACLE_STRATA, with both D signs where D is nonzero.
    Every other class is in some stratum.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        items = sweep_items(data)
    elif workload == "deep":
        items = deep_fixed_items(data)
        for ell in LAMBENCIES:
            rec = rng.choice(data.for_lambency(ell))
            items.append(["jacobi", rec.co0_name, rng.choice(signs(rec, ell)), ell,
                          DEEP_GENUS_ORDERS])
    elif workload == "oracle":
        names = set(ORACLE_ALWAYS) | {rng.choice(group).co0_name
                                      for group in oracle_strata(data)}
        # in table order: peak RSS depends on the order classes run in
        return [item for rec in data.classes.values() if rec.co0_name in names
                for item in oracle_class_items(rec)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


# -- running one item -------------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _checks(reports) -> list[list[str]]:
    return [[r.name, r.status] for r in reports]


def _report_text(reports) -> str:
    return "".join(r.line() + "\n" for r in reports)


def _cyclo_text(value) -> str:
    return f"{value.order}:" + ",".join(str(x) for x in value.vec)


def _flatten_brute(brute: dict) -> dict:
    """{(grid, y half-index): CycloNumber} from brute_ts or brute_phi output."""
    flat = {}
    for grid, value in brute.items():
        if isinstance(value, dict):
            for charge, v in value.items():
                flat[(grid, 2 * charge)] = v
        else:
            flat[(grid, 0)] = value
    return flat


def _oracle_check(name: str, brute: dict, closed) -> tuple[str, list[list[str]]]:
    """Compare a brute-force trace with a closed form inside Q(zeta_N)."""
    flat = _flatten_brute(brute)
    order = next(iter(flat.values())).order
    limit = max(grid for grid, _ in flat)
    if isinstance(closed, QSeries):
        closed_keys = {(k, 0) for k in closed.coeffs if k <= limit}
        coeff = lambda key: closed.coeff(key[0])
    else:
        closed_keys = {k for k in closed.coeffs if k[0] <= limit}
        coeff = lambda key: closed.coeff(*key)
    zero = oracle.CycloNumber.zero(order)
    status = "pass"
    for key in sorted(set(flat) | closed_keys):
        if key[1] % 2 or oracle.embed_radical(coeff(key), order) != flat.get(key, zero):
            status = "fail"
            break
    text = "".join(f"{g} {y} {_cyclo_text(v)}\n" for (g, y), v in sorted(flat.items()))
    return _digest(text + closed.dump() + "\n"), [[name, status]]


def run_item(data, item) -> dict:
    """Compute one item; returns {"key", "digest", "checks"}."""
    kind, *rest = item
    key = item_key(item)
    if kind == "jacobi":
        name, sign, ell, orders = rest
        phi = genera.phi_g_ell(genera.GenusRequest(data.record(name), sign, ell, orders))
        report = genera.verify_jacobi_invariance(phi, ell - 1, key)
        digest, checks = _digest(phi.dump() + "\n"), _checks([report])
    elif kind == "decomposition":
        name, sign, ell, orders = rest
        reports = [genera.verify_decomposition_ell(
            genera.GenusRequest(data.record(name), sign, ell, orders))]
        digest, checks = _digest(_report_text(reports)), _checks(reports)
    elif kind == "coincidences":
        ell, orders = rest
        reports = genera.verify_coincidences(data, orders, lambency=ell)
        digest, checks = _digest(_report_text(reports)), _checks(reports)
    elif kind == "eta":
        name, orders = rest
        reports = [genera.verify_eta_identity(data.record(name), orders)]
        digest, checks = _digest(_report_text(reports)), _checks(reports)
    elif kind == "sigma":
        reports = sigma.verify_sigma_isomorphism(rest[0])
        digest, checks = _digest(_report_text(reports)), _checks(reports)
    elif kind == "oracle-ts":
        name, which, orders = rest
        rec = data.record(name)
        digest, checks = _oracle_check(
            key, oracle.brute_ts(rec, which, ORACLE_DEGREE),
            genera.ts_g(rec, which, "chi", orders))
    elif kind == "oracle-phi":
        name, sign, orders = rest
        rec = data.record(name)
        digest, checks = _oracle_check(
            key, oracle.brute_phi(rec, sign, 2, ORACLE_DEGREE),
            genera.phi_g(rec, sign, orders))
    else:
        raise ValueError(f"unknown item kind {kind!r}")
    return {"key": key, "digest": digest, "checks": checks}
