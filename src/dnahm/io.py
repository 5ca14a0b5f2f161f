"""JSON and CSV serialization for chains, metrics, surfaces and tables.

Complex entries are always [re, im] pairs; matrices are row-major nested
lists of pairs. Documents carry a format_version field. Each field is
converted as one array: one ``tolist`` to write it and one ``np.asarray``
to read it.

JSON goes through orjson both ways. The writer emits strict, compact JSON:
each double in its shortest round-trip spelling (``1e16``, ``-0.0``), and a
non-finite float as ``null``. The reader rounds correctly, so finite doubles
round-trip bit-exactly, also through any other correctly rounding reader;
an integer token beyond 64 bits reads as the nearest double. Only a
document orjson refuses (a ``NaN`` or ``Infinity`` token, a number beyond
the doubles) is parsed again by the standard library, so that the field
checks can name the offending entry; a document neither parser reads is a
FormatError.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np
import orjson

from .errors import FormatError
# unused here, but perfbench/test_smoke.py counts the dnahm namespaces that
# bind cmatrix by name and pins that count
from .linalg import cmatrix  # noqa: F401
from .model import BAChain, DNChain

FORMAT_VERSION = "1"

Chain = Union[DNChain, BAChain]


def matrix_to_pairs(m) -> list:
    """Nested [re, im] lists of a complex matrix, or of a stack of them, in one tolist."""
    m = np.asarray(m)
    return np.stack((m.real, m.imag), -1).tolist()


def _complex(arr: np.ndarray) -> np.ndarray:
    """The complex128 view of float [re, im] pairs in the last axis, every bit kept."""
    return np.ascontiguousarray(arr).view(np.complex128)[..., 0]


def _list_field(doc: dict, field: str) -> list:
    if field not in doc:
        raise FormatError(f"document missing field '{field}'")
    if not isinstance(doc[field], list):
        raise FormatError(f"'{field}' must be a list, got {type(doc[field]).__name__}")
    return doc[field]


def _int_field(doc: dict, field: str, default: Optional[int] = None) -> int:
    """A field holding a JSON integer (a bool is not one); ``default`` when absent.

    Its magnitude is at most 2**53, so that site indices built from it stay
    within the 64-bit integers the writer can spell.
    """
    if field not in doc:
        if default is None:
            raise FormatError(f"document missing field '{field}'")
        return default
    value = doc[field]
    if type(value) is not int:
        raise FormatError(f"'{field}' must be an integer, got {type(value).__name__}")
    if abs(value) > 2**53:
        raise FormatError(f"'{field}' must be an integer of magnitude at most 2**53")
    return value


def _matrices(items: list, k: int, label: str) -> np.ndarray:
    """A read-only (n, k, k) complex128 stack parsed from n [re, im] matrices.

    The whole list is converted and checked at once. Only when that fails
    are the items examined one by one, so that the FormatError names the
    first bad one; ``label.format(i)`` is item i's name, e.g. "sites[3].A".
    A k whose k x k matrix numpy cannot hold is refused before any allocation.
    """
    if 16 * k * k > np.iinfo(np.intp).max:
        raise FormatError(
            f"'k' = {k} is too large: a k x k complex matrix exceeds numpy's array size"
        )
    shape = (k, k, 2)
    try:
        arr = np.asarray(items, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.shape != (len(items), *shape):
        for i, item in enumerate(items):
            try:
                got = np.asarray(item, dtype=float).shape
            except (TypeError, ValueError, OverflowError):
                raise FormatError(f"{label.format(i)}: not a nested numeric array") from None
            if got != shape:
                raise FormatError(
                    f"{label.format(i)}: expected {k} x {k} x [re, im], got shape {got}"
                )
        arr = np.empty((0, *shape))  # only an empty list gets here
    if not np.isfinite(arr).all():
        i, row, col, _ = np.argwhere(~np.isfinite(arr))[0]
        raise FormatError(f"{label.format(i)}: entry [{row}][{col}] is not finite")
    m = _complex(arr)
    m.setflags(write=False)
    return m


def _object_fields(doc: dict, field: str, keys: tuple[str, ...], k: int) -> list[np.ndarray]:
    """One stack per key of a list of objects: sites -> [A stack, B stack, D stack]."""
    items = _list_field(doc, field)
    for i, item in enumerate(items):
        if not isinstance(item, dict) or not all(key in item for key in keys):
            raise FormatError(f"{field}[{i}]: expected an object with fields {', '.join(keys)}")
    return [_matrices([item[key] for item in items], k, f"{field}[{{}}].{key}") for key in keys]


def chain_to_document(
    chain: Chain,
    metric=None,
    metadata: Optional[dict] = None,
) -> dict:
    doc: dict = {"format_version": FORMAT_VERSION, "k": chain.k}
    if isinstance(chain, DNChain):
        doc["form"] = "dn"
        doc["origin"] = chain.r0
        a, b, d, plus, minus = (
            matrix_to_pairs(m) for m in (chain.A, chain.B, chain.D, chain.Pplus, chain.Pminus)
        )
        doc["sites"] = [{"A": x, "B": y, "D": z} for x, y, z in zip(a, b, d)]
        doc["links"] = [{"Pplus": x, "Pminus": y} for x, y in zip(plus, minus)]
    else:
        doc["form"] = "ba"
        doc["origin"] = chain.origin
        doc["betas"] = matrix_to_pairs(chain.betas)
        doc["gammas"] = matrix_to_pairs(chain.gammas)
    if metric is not None:
        doc["metric"] = matrix_to_pairs(metric)
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def document_to_chain(doc: dict) -> tuple[Chain, Optional[np.ndarray]]:
    """Parse a chain document; returns (chain, metric-or-None).

    Each matrix field is parsed as one stacked array; the metric is a
    read-only (n, k, k) stack.
    """
    if not isinstance(doc, dict):
        raise FormatError("chain document must be a JSON object")
    form = doc.get("form")
    k = _int_field(doc, "k")
    origin = _int_field(doc, "origin", 0)
    if k < 1:
        raise FormatError(f"chain document needs k >= 1, got {k}")
    metric = None
    if "metric" in doc:
        metric = _matrices(_list_field(doc, "metric"), k, "metric[{}]")
    if form == "ba":
        betas = _matrices(_list_field(doc, "betas"), k, "betas[{}]")
        gammas = _matrices(_list_field(doc, "gammas"), k, "gammas[{}]")
        try:
            return BAChain(k=k, betas=betas, gammas=gammas, origin=origin), metric
        except Exception as exc:
            raise FormatError(f"inconsistent ba document: {exc}") from exc
    if form == "dn":
        a, b, d = _object_fields(doc, "sites", ("A", "B", "D"), k)
        plus, minus = _object_fields(doc, "links", ("Pplus", "Pminus"), k)
        try:
            return DNChain(k, a, b, d, plus, minus, origin), metric
        except Exception as exc:
            raise FormatError(f"inconsistent dn document: {exc}") from exc
    raise FormatError(f"unknown chain form {form!r} (expected 'dn' or 'ba')")


def metric_from_document(doc: dict) -> np.ndarray:
    """Per-site metric matrices, a read-only (n, k, k) stack for the document's 'k'.

    A document without 'k' takes the row count of its first matrix; the
    chain the metric is used with checks that the size fits.
    """
    if not isinstance(doc, dict):
        raise FormatError("metric document must be a JSON object")
    items = _list_field(doc, "metric")
    try:
        k = _int_field(doc, "k") if "k" in doc else len(items[0]) if items else 1
    except TypeError as exc:
        raise FormatError(f"metric document: no matrix size k ({exc})") from exc
    return _matrices(items, k, "metric[{}]")


def save_json(path, doc: dict) -> None:
    """Write ``doc`` as one line of compact JSON; numpy scalars and arrays serialise too."""
    Path(path).write_bytes(
        orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)
    )


def load_json(path) -> dict:
    """The parsed JSON document at ``path``; FormatError when it cannot be read."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read JSON from {path}: {exc}") from exc
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    try:  # only for the diagnostics: NaN, Infinity and 1e400 parse here
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"cannot read JSON from {path}: {exc}") from exc


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
