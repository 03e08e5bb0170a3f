"""The per-class Series and Poly renderers, kept as a test reference.

This is the printing code the package used before Series and Poly text
went through one term formatter, ring.render_terms.  The field classes'
split_sign, render and is_zero hooks it called are kept here as functions.
"""


def is_zero(field, a) -> bool:
    return a % field.p == 0 if field.p is not None else not a


def split_sign(field, a):
    if field.p is not None:
        # residues are printed canonically, never with a sign
        return (False, a)
    return (a < 0, -a if a < 0 else a)


def render_scalar(field, a) -> str:
    return str(a)


def render_series(s, show_prec: bool = False) -> str:
    field = s.ring.field
    parts = []
    for k, v in enumerate(s.coeffs):
        if is_zero(field, v):
            continue
        neg, mag = split_sign(field, v)
        if k == 0:
            body = render_scalar(field, mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == field.one else f"{render_scalar(field, mag)}*{xs}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    if not parts:
        return f"O(x^{s.prec})" if show_prec else "0"
    text = "".join(parts)
    if show_prec:
        text += f" + O(x^{s.prec})"
    return text


def render_poly(p) -> str:
    field = p.ring.field
    items = []
    for exps, coeff in p.terms.items():
        for k, v in enumerate(coeff.coeffs):
            if is_zero(field, v):
                continue
            items.append((tuple(reversed(exps)), k, exps, v))
    if not items:
        return "0"
    items.sort(key=lambda it: (it[0], it[1]))
    parts = []
    for _, k, exps, v in items:
        neg, mag = split_sign(field, v)
        factors = []
        if k == 1:
            factors.append("x")
        elif k > 1:
            factors.append(f"x^{k}")
        for nm, e in zip(p.space.names, exps):
            if e == 1:
                factors.append(nm)
            elif e > 1:
                factors.append(f"{nm}^{e}")
        if not factors:
            body = render_scalar(field, mag)
        elif mag == field.one:
            body = "*".join(factors)
        else:
            body = render_scalar(field, mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)
