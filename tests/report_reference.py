"""A reference for ``SolutionReport.json_text``: the ``solve --json``
payload built as a dict tree from the report's fields, which
``json.dumps(payload, indent=2)`` then writes; the package itself never
needs it."""

from fractions import Fraction


def exact(value):
    """A Fraction or a QuadExt as {"rational", "radical", "radicand"}."""
    if isinstance(value, Fraction):
        return {"rational": str(value), "radical": "0", "radicand": 0}
    return {"rational": str(value.rational_part),
            "radical": str(value.radical_part), "radicand": value.radicand}


def solve_payload(report, count):
    """The solve payload of report, with count values."""
    closed, transform = report.closed_form, report.transform
    return {
        "closed_form": {
            "text": str(closed),
            "terms": [{
                "coefficient": exact(t.coefficient),
                "root": exact(t.root),
                "multiplicity": t.multiplicity,
            } for t in closed.terms],
            "deltas": {str(j): exact(c) for j, c in closed.deltas.items()},
        },
        "transform": {
            "text": transform.render("e^s"),
            "num": list(map(exact, transform.num.fractions)),
            "den": list(map(exact, transform.den.fractions)),
        },
        "values": report.value_texts(count),
        "verified_upto": report.verified_upto,
    }
