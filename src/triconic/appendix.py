"""Loader and evaluator for the long barycentric term-list data files.

Each data file stores one construction's polynomial(s) as rows
[coeff, e1, ..., en] over a declared variable order.  Evaluation is a
generic monomial sum over a column axis, many points in one call, each
column bit for bit a loop over the rows; checks normalize a sum by the
largest evaluated monomial magnitude because raw values reach 1e15 at unit
scale.  The checks themselves (propositions A1-A6) live in verify, which
builds each block's object on arrays, geometrically, and evaluates the
polynomial at every trial's barycentrics at once.
"""

from __future__ import annotations

import functools
import json
import math
from importlib import resources

import numpy as np

BLOCK_NAMES = (
    "a_ellipse",
    "major_vertices",
    "x3prime_center",
    "phyp_member",
    "pstar_conic",
    "x5452_coordinate",
)


class TermList(list):
    """A term list, rows [coeff, e1, ..., en], with the arrays eval_terms
    reads: the highest exponent of each variable, and for each variable
    (after the coefficients) the index of every row's factor in a flat
    table [coeffs, v1**0 .. v1**top1, v2**0 .. v2**top2, ...]."""

    def __init__(self, rows):
        super().__init__(rows)
        table = np.array(self, dtype=float).reshape(len(self), -1)
        exps = table[:, 1:].astype(np.intp)
        self.coeffs = table[:, 0]
        self.tops = [int(col.max(initial=0)) for col in exps.T]
        starts = np.cumsum([len(self)] + [top + 1 for top in self.tops])[:-1]
        self.index = np.vstack([np.arange(len(self)), (exps + starts).T])


# Columns per chunk of eval_terms.  A column takes its rows' gathered factors
# and products, under 20 KB on the largest block (A1's), so the working set
# stays under 10 MB however many columns a call has.
_TERM_CHUNK = 512


@functools.lru_cache(maxsize=None)
def load_block(name: str) -> dict:
    if name not in BLOCK_NAMES:
        raise KeyError(f"unknown appendix block {name!r}")
    path = resources.files(__package__).joinpath(f"data/appendix/{name}.json")
    block = json.loads(path.read_text())
    block["polys"] = {poly: TermList(rows) for poly, rows in block["polys"].items()}
    return block


def eval_terms(rows, variables, values: dict):
    """(sum, max |term|) of a term list at the given variable values: floats
    for floats, and for arrays or lists, whose shapes broadcast together,
    arrays of that shape, each entry a column evaluated on its own.

    A term is its coefficient times the variables' powers, multiplied in
    variable order; each power comes from a table of Python `v ** e` (numpy's
    power can differ in the last bit), and a zero exponent multiplies by
    exactly 1.0.  The terms are added in row order (np.cumsum, which does
    not pair), so each column is bit for bit a loop over the rows at its
    values, whatever the number of columns (they run in chunks of
    _TERM_CHUNK, to bound the memory).  Term lists from load_block
    carry their arrays; any other list of rows is converted on each call.
    """
    terms = rows if isinstance(rows, TermList) else TermList(rows)
    arrays = [np.asarray(values[var], dtype=float) for var in variables]
    shape = np.broadcast_shapes(*(v.shape for v in arrays))
    n = math.prod(shape)
    table = [np.broadcast_to(terms.coeffs[:, None], (len(terms), n))]
    for v, top in zip(arrays, terms.tops):
        # The powers of a variable's own values, then broadcast to every column.
        flat = v.ravel().tolist()
        powers = np.array([[x ** e for x in flat] for e in range(top + 1)])
        powers = powers.reshape((top + 1,) + (1,) * (len(shape) - v.ndim) + v.shape)
        table.append(np.broadcast_to(powers, (top + 1, *shape)).reshape(top + 1, n))
    total, biggest = np.empty(n), np.empty(n)
    for lo in range(0, n, _TERM_CHUNK):
        cut = slice(lo, lo + _TERM_CHUNK)
        # Reducing over the outer axis multiplies each row's factors in order.
        products = np.multiply.reduce(np.concatenate([t[:, cut] for t in table])[terms.index], axis=0)
        # The leading 0.0 is the loop's start: it turns an all -0.0 sum into 0.0.
        total[cut] = np.cumsum(np.concatenate((np.zeros((1, products.shape[1])), products)), axis=0)[-1]
        biggest[cut] = np.fmax.reduce(np.abs(products), axis=0, initial=0.0)
    if not shape:
        return float(total[0]), float(biggest[0])
    return total.reshape(shape), biggest.reshape(shape)
