"""Document values of package values, for the tests that read certificates.

`cli.canonical_json` takes package values and writes their text in one
walk. `plain` is the mapping it must agree with, made as a separate plain
copy: a field element is its coefficient list, low degree first; a point is
one such list per coordinate, made element by element, and so is a block
lift (`trace_system.BlockLift`) once its runs are expanded; any other record
(`quadcert.record`) is the object of its fields, a tuple field an array of
the plain values of its items; lists and dicts are mapped item by item, and
an int, str, bool or None is its own value. Any other value raises
TypeError, a tuple outside a record field included.

`written` reads a value back from the text the writer ships.
"""

import json

from _points import expanded
from quadcert.cli import canonical_json
from quadcert.gf import FieldElement
from quadcert.quadric import AmbientPoint
from quadcert.record import Record
from quadcert.trace_system import BlockLift


def plain(value):
    """The document value of `value` (module docstring)."""
    if value is None or type(value) in (bool, int, str):
        return value
    if type(value) is list:
        return [plain(item) for item in value]
    if type(value) is dict:
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, FieldElement):
        return list(value.coeffs)
    if isinstance(value, AmbientPoint):
        return [list(value.ctx.element_at(code).coeffs) for code in value.codes]
    if isinstance(value, BlockLift):
        return plain(expanded(value))
    if isinstance(value, Record):
        fields = {name: getattr(value, name) for name in value.__slots__}
        return {
            name: [plain(item) for item in field] if type(field) is tuple else plain(field)
            for name, field in fields.items()
        }
    raise TypeError(f"a {type(value).__name__} has no document value")


def written(value):
    """The value that `canonical_json(value)` writes, read back."""
    return json.loads(canonical_json(value))
