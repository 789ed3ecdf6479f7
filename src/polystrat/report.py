"""Stratification report assembly and spec-file ingestion.

A spec file is JSON: dimension, parameters (name/value pairs), normals
and offsets as scalar-expression strings, an optional quasilattice
(the string "normals" or explicit generator rows), and options (b
overrides keyed by comma-joined index sets of singular faces, epsilon,
tolerances, sample counts, seed).

The report is JSON with sorted keys; exact values are canonical
scalar strings, floating residuals are fixed 12-significant-digit
strings, so identical spec and seed give byte-identical output.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction

from .ambient import Quasilattice, admissible_index_sets, classify_choice, \
    find_flag_index_set
from .charts import cone_embedding, cone_neighborhood, lift_point, \
    moment_values, psi_equations, regular_chart, regular_slice, \
    sample_cone_points, sample_polytope_points, sample_regular_domain, \
    sample_singular_domain, singular_chart, singular_slice, torus_action
from .groups import gamma_group, gamma_face_group, split_gamma, \
    stabilizer_dim
from .links import link_tree
from .polytope import HPolytope
from .scalars import ParamRegistry, ScalarError

ALL_SECTIONS = ("faces", "charts", "groups", "links", "verify")
DEFAULT_SAMPLES = 100
DEFAULT_TOL = {"residual": 1e-9, "embedding": 1e-8}
SPEC_KEYS = ("dimension", "parameters", "normals", "offsets", "quasilattice",
             "options")


class SpecError(ValueError):
    """Malformed spec file (schema or scalar grammar)."""


def fnum(x) -> str:
    return f"{float(x):.11e}"


def _require(data, key, kind, where="spec"):
    if key not in data:
        raise SpecError(f"{where} is missing required key {key!r}")
    val = data[key]
    if kind is not None and not isinstance(val, kind):
        raise SpecError(f"{where}.{key} has the wrong type")
    return val


def _known_keys(data, known, where):
    for key in data:
        if key not in known:
            raise SpecError(f"unknown key {key!r} in {where}")


def _options(given=None):
    """given over the defaults, whose keys are the only options."""
    return {"samples": DEFAULT_SAMPLES, "seed": 0, "epsilon": Fraction(1),
            "tolerances": dict(DEFAULT_TOL), "b": {}, **(given or {})}


def _scalar(reg, x, where):
    """One scalar of the spec: an expression string or a finite number."""
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise SpecError(f"{where} entries must be strings or numbers, "
                        f"not {x!r}")
    try:
        return reg.scalar(x)
    except (ArithmeticError, ValueError) as e:
        raise SpecError(f"bad scalar {x!r} in {where}: {e}") from e


def parse_spec(data: dict):
    """Build (polytope, quasilattice, options) from a spec dictionary."""
    if not isinstance(data, dict):
        raise SpecError("spec must be a JSON object")
    _known_keys(data, SPEC_KEYS, "spec")
    n = _require(data, "dimension", int)
    if isinstance(n, bool) or n < 1:
        raise SpecError("spec.dimension must be a positive integer")
    params = data.get("parameters", [])
    if not isinstance(params, list):
        raise SpecError("spec.parameters must be a list")
    names, values = [], {}
    for entry in params:
        if not isinstance(entry, dict) or \
                not isinstance(entry.get("name"), str):
            raise SpecError("parameters must be objects with a string name "
                            "and a value")
        _known_keys(entry, ("name", "value"), f"parameter {entry['name']!r}")
        names.append(entry["name"])
        if "value" in entry:
            try:
                values[entry["name"]] = Fraction(str(entry["value"]))
            except (ValueError, ZeroDivisionError) as e:
                raise SpecError(f"bad value for parameter "
                                f"{entry['name']!r}: {e}") from e
    try:
        reg = ParamRegistry(names, values)
    except ScalarError as e:
        raise SpecError(str(e)) from e
    normals = _require(data, "normals", list)
    offsets = _require(data, "offsets", list)
    if any(not isinstance(row, list) or len(row) != n for row in normals):
        raise SpecError(f"normals must be rows of {n} expressions")
    if len(offsets) != len(normals):
        raise SpecError("offsets must match the number of normals")
    try:
        p = HPolytope(reg, [[_scalar(reg, x, "normals") for x in row]
                            for row in normals],
                      [_scalar(reg, x, "offsets") for x in offsets])
    except ScalarError as e:
        raise SpecError(f"bad scalar expression: {e}") from e

    qspec = data.get("quasilattice", "normals")
    if qspec == "normals":
        q = Quasilattice.from_normals(p)
    elif isinstance(qspec, list) and all(isinstance(row, list)
                                         and len(row) == n for row in qspec):
        rows = [[_scalar(reg, x, "quasilattice") for x in row]
                for row in qspec]
        try:
            q = Quasilattice(reg, rows)
        except ValueError as e:
            raise SpecError(f"bad quasilattice: {e}") from e
    else:
        raise SpecError(f'quasilattice must be "normals" or generator rows '
                        f"of {n} entries")

    raw = data.get("options", {})
    if not isinstance(raw, dict):
        raise SpecError("options must be an object")
    options = _options()
    _known_keys(raw, options, "options")
    try:
        options["epsilon"] = Fraction(str(raw.get("epsilon", 1)))
    except (ValueError, ZeroDivisionError) as e:
        raise SpecError(f"bad options.epsilon: {e}") from e
    options.update({k: raw[k] for k in ("samples", "seed") if k in raw})
    # exact type checks: bool is a subclass of int
    if type(options["samples"]) is not int or options["samples"] < 1:
        raise SpecError("options.samples must be a positive integer")
    if type(options["seed"]) is not int:
        raise SpecError("options.seed must be an integer")
    if options["epsilon"] <= 0:
        raise SpecError("options.epsilon must be positive")
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise SpecError("options.tolerances must be an object")
    _known_keys(tolerances, DEFAULT_TOL, "options.tolerances")
    for k, v in tolerances.items():
        if isinstance(v, bool):
            raise SpecError(f"bad tolerance {k!r}: a boolean")
        try:
            options["tolerances"][k] = tol = float(v)
        except (TypeError, ValueError) as e:
            raise SpecError(f"bad tolerance {k!r}: {e}") from e
        if not (math.isfinite(tol) and tol >= 0):
            raise SpecError(f"tolerance {k!r} must be finite and "
                            "nonnegative")
    b_raw = raw.get("b", {})
    if not isinstance(b_raw, dict):
        raise SpecError("options.b must be an object")
    for key, vals in b_raw.items():
        try:
            face = tuple(sorted(int(t) for t in key.split(",")))
        except ValueError as e:
            raise SpecError(f"bad face key {key!r} in options.b") from e
        if not isinstance(vals, list):
            raise SpecError(f"options.b entry for {key!r} must be a list")
        b = tuple(_scalar(reg, v, f"options.b[{key!r}]") for v in vals)
        try:
            positive = all(s.sign() > 0 for s in b)
        except (ArithmeticError, ValueError) as e:
            raise SpecError(f"bad b entry for {key!r}: {e}") from e
        target = p.face_lattice.by_index_set.get(face)
        if target is None or not target.singular:
            raise SpecError(f"options.b key {key!r} is not a singular face")
        if len(b) != len(face):
            raise SpecError(f"options.b entry for {key!r} must list "
                            f"{len(face)} coefficients")
        if not positive:
            raise SpecError(f"options.b entry for {key!r} must be positive "
                            "at the evaluation point")
        options["b"][face] = b
    return p, q, options


# -- section builders ----------------------------------------------------

def _faces_section(p: HPolytope):
    lat = p.face_lattice
    faces = []
    for f in lat.faces:
        entry = {
            "index_set": list(f.index_set),
            "dim": f.dim,
            "r": f.r,
            "singular": f.singular,
        }
        if f.singular:
            entry["stratum_dimension"] = 2 * f.dim
        faces.append(entry)
    return {
        "dimension": p.n,
        "constraints": p.d,
        "simple": p.is_simple,
        "f_vector": list(lat.f_vector()),
        "regular_stratum_dimension": 2 * p.n,
        "vertices": [{"coords": [str(c) for c in v.coords],
                      "active": list(v.active)} for v in p.vertices],
        "faces": faces,
    }


def _regular_charts(p: HPolytope):
    return [regular_chart(p, i_set) for i_set in admissible_index_sets(p)]


def _charts_section(p: HPolytope, q: Quasilattice):
    out = []
    for chart in _regular_charts(p):
        i_set = chart.index_set
        gamma = gamma_group(p, q, i_set)
        st = gamma.structure()
        eqs = psi_equations(p, chart.basis)
        slacks = p.vertex_slacks(chart.vertex_id)
        out.append({
            "index_set": list(i_set),
            "vertex_index_set": list(chart.basis.vertex_index_set),
            "a_matrix": [[str(x) for x in row]
                         for row in chart.basis.a_matrix],
            "kernel_labels": list(chart.basis.kernel_labels),
            "kernel_vectors": [[str(x) for x in vec]
                               for vec in chart.basis.kernel],
            "psi_constants": [str(c) for _vec, c in eqs],
            "slacks": {str(r): str(slacks[r - 1]) for r in chart.out_labels},
            # empty on a validated polytope; see regular_chart
            "pi1_rank": 0,
            "i_star": [],
            "gamma_generators": [[str(x) for x in gen]
                                 for gen in gamma.generators],
            "gamma_structure": st.label,
        })
    return out


def _group_json(g):
    st = g.structure()
    return {
        "support": list(g.support),
        "generators": [[str(x) for x in gen] for gen in g.generators],
        "essential_support": list(g.essential_support),
        "structure": st.label,
    }


def _groups_section(p: HPolytope, q: Quasilattice):
    choice = classify_choice(p, q)
    per_face = []
    for face in p.face_lattice.singular_faces():
        i_set, _vid = find_flag_index_set(p, face)
        split = split_gamma(p, q, face, i_set)
        face_group = gamma_face_group(p, q, face, i_set)
        per_face.append({
            "face": list(face.index_set),
            "index_set": list(i_set),
            "stabilizer_dim": stabilizer_dim(face, p.n),
            "face_group": _group_json(face_group),
            "quotient_group": _group_json(split.complement_part),
        })
    return {
        "rational": choice.rational,
        "delzant_like": choice.delzant_like,
        "label": choice.label,
    }, per_face


def _link_node_json(p: HPolytope, node, options, with_constants=True):
    lp = node.link
    lat = lp.polytope.face_lattice
    transfer = []
    for g in lat.faces:
        transfer.append({
            "link_face": list(g.index_set),
            "parent_face": list(lp.to_parent[g.index_set]),
            "dim": g.dim,
            "singular": g.singular,
        })
    entry = {
        "face": list(node.face_index_set),
        "chain": [list(c) for c in node.chain],
        "dimension": lp.polytope.n,
        "h_rep": {
            "normals": [[str(x.evaluate()) for x in row]
                        for row in lp.polytope.normals],
            "offsets": [str(x.evaluate()) for x in lp.polytope.offsets],
        },
        "f_vector": list(lat.f_vector()),
        "transfer": transfer,
        "fibration": {
            "y_tilde": [str(x) for x in node.fibration.y_tilde],
            "closed": node.fibration.closed,
            "split_ok": node.fibration.split_ok,
        },
        "children": [_link_node_json(lp.polytope, c, options,
                                     with_constants=False)
                     for c in node.children],
    }
    if with_constants:
        face = p.face_lattice.face(node.face_index_set)
        chart = singular_chart(p, face)
        nb = cone_neighborhood(p, chart, b=options["b"].get(face.index_set))
        entry["embedding_constants"] = {
            "flag_index_set": list(chart.index_set),
            "b": [str(x) for x in nb.b],
            "box": [[str(lo), str(hi)]
                    for lo, hi in zip(nb.box_lo, nb.box_hi)],
            "c": None if nb.c is None else str(nb.c),
            "epsilon": str(nb.epsilon),
        }
    return entry


def _links_section(p: HPolytope, options):
    return [_link_node_json(p, node, options)
            for node in link_tree(p, options)]


# -- verification --------------------------------------------------------

def _residual(psi, phi=(), mu=()):
    """Largest of |Psi| and |Phi - mu| over the components, 0 if none."""
    return max([abs(v) for v in psi]
               + [abs(a - float(m)) for a, m in zip(phi, mu)], default=0.0)


def run_verification(p: HPolytope, options, rng):
    n_samples = options["samples"]
    charts = _regular_charts(p)
    base = charts[0].basis

    lift_res = 0.0
    for mu in sample_polytope_points(p, n_samples, rng, strict=False):
        z = lift_point(p, mu)
        _ups, psi, phi = moment_values(p, z, base)
        lift_res = max(lift_res, _residual(psi, phi, mu))

    reg_res = 0.0
    per = max(1, math.ceil(n_samples / len(charts)))
    for chart in charts:
        for mu, u in sample_regular_domain(p, chart, per, rng):
            z = regular_slice(p, chart, u)
            _ups, psi, phi = moment_values(p, z, chart.basis)
            reg_res = max(reg_res, _residual(psi, phi, mu))

    tor_res = 0.0
    for chart in charts:
        for mu in sample_polytope_points(p, per, rng, strict=True):
            slacks = p.slacks(mu)
            u = [math.sqrt(float(slacks[h - 1])) for h in chart.index_set]
            z = regular_slice(p, chart, u)
            x = [Fraction(rng.randrange(-64, 65), 16) for _ in range(p.n)]
            z2 = torus_action(p, chart.index_set, [float(v) for v in x], z)
            _u1, psi1, phi1 = moment_values(p, z, chart.basis)
            _u2, psi2, phi2 = moment_values(p, z2, chart.basis)
            tor_res = max(tor_res,
                          max(abs(a - b) for a, b in zip(phi1, phi2)),
                          max((abs(a - b) for a, b in zip(psi1, psi2)),
                              default=0.0))

    sing = p.face_lattice.singular_faces()
    sing_res = None
    emb_res = None
    if sing:
        sing_res = 0.0
        emb_res = 0.0
        per = max(1, math.ceil(n_samples / len(sing)))
        for face in sing:
            chart = singular_chart(p, face)
            for mu, w in sample_singular_domain(p, chart, per, rng):
                z = singular_slice(p, chart, w)
                _ups, psi, phi = moment_values(p, z, chart.basis)
                sing_res = max(sing_res, _residual(psi, phi, mu))
            nb = cone_neighborhood(p, chart,
                                   b=options["b"].get(face.index_set))
            zfs = sample_cone_points(p, chart, nb, per, rng)
            for zf in zfs:
                w = []
                for lo, hi in zip(nb.box_lo, nb.box_hi):
                    t = lo + (hi - lo) * Fraction(rng.randrange(1, 64), 64)
                    w.append(math.sqrt(float(t))
                             * cmath.exp(2j * math.pi * rng.random()))
                z = cone_embedding(p, chart, nb, w, zf)
                _ups, psi, _phi = moment_values(p, z, chart.basis)
                emb_res = max(emb_res, _residual(psi))

    tol = options["tolerances"]
    ok = bool(lift_res <= tol["residual"] and reg_res <= tol["residual"]
              and tor_res <= tol["residual"]
              and (sing_res is None or sing_res <= tol["residual"])
              and (emb_res is None or emb_res <= tol["embedding"]))
    block = {
        "samples": n_samples,
        "seed": options["seed"],
        "tolerances": {k: fnum(v) for k, v in sorted(tol.items())},
        "max_lift_residual": fnum(lift_res),
        "max_regular_slice_residual": fnum(reg_res),
        "max_torus_residual": fnum(tor_res),
        "max_singular_slice_residual":
            None if sing_res is None else fnum(sing_res),
        "max_embedding_residual":
            None if emb_res is None else fnum(emb_res),
        "pass": ok,
    }
    return block, ok


# -- assembly ------------------------------------------------------------

def build_report(p: HPolytope, q: Quasilattice | None = None,
                 options: dict | None = None, sections=ALL_SECTIONS,
                 seed: int | None = None):
    """Assemble the report dict; returns (report, verification_ok)."""
    if q is None:
        q = Quasilattice.from_normals(p)
    options = _options(options)
    if seed is not None:
        options["seed"] = seed
    report = {"schema": "polystrat-report/1"}
    ok = True
    if "faces" in sections:
        report["polytope"] = _faces_section(p)
    if "charts" in sections:
        report["charts"] = _charts_section(p, q)
    if "groups" in sections:
        choice, per_face = _groups_section(p, q)
        report["choice"] = choice
        report["groups"] = {"per_singular_face": per_face}
    if "links" in sections:
        report["links"] = _links_section(p, options)
    if "verify" in sections:
        rng = random.Random(options["seed"])
        block, ok = run_verification(p, options, rng)
        report["verification"] = block
    return report, ok


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# -- DOT export ----------------------------------------------------------

def dot_export(p: HPolytope, options=None) -> str:
    """Face lattice (covering edges) and link forest in DOT format."""
    options = _options(options)
    lat = p.face_lattice
    lines = ["digraph stratification {", '  rankdir="BT";']
    lines.append('  subgraph cluster_faces {')
    lines.append('    label="face lattice";')

    def fid(f):
        return "F_" + ("_".join(map(str, f.index_set)) or "top")

    for f in lat.faces:
        label = f"I={{{','.join(map(str, f.index_set))}}}\\ndim {f.dim}"
        style = ' color="red" peripheries="2"' if f.singular else ""
        lines.append(f'    {fid(f)} [label="{label}"{style}];')
    for f in lat.faces:
        for g in lat.superfaces(f):
            if g.dim == f.dim + 1:
                lines.append(f"    {fid(f)} -> {fid(g)};")
    lines.append("  }")

    forest = link_tree(p, options)
    if forest:
        lines.append("  subgraph cluster_links {")
        lines.append('    label="link forest";')
        counter = [0]

        def emit(node, parent_id):
            counter[0] += 1
            nid = f"L_{counter[0]}"
            chain = " / ".join("{" + ",".join(map(str, c)) + "}"
                               for c in node.chain)
            lines.append(
                f'    {nid} [label="{chain}\\nlink dim '
                f'{node.link.polytope.n}"];')
            if parent_id:
                lines.append(f"    {parent_id} -> {nid};")
            for c in node.children:
                emit(c, nid)

        for root in forest:
            emit(root, None)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
