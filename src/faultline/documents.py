"""Input documents: a small JSON schema declaring alphabets, substitutions,
and an optional DPV, plus the bundled example documents.

Validation is strict: unknown fields are rejected everywhere, and every name
reference must resolve.  Parsing happens before any computation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .dpv import DPVSubstitution
from .errors import ValidationError
from .fault import DEFAULT_MAX_STATES, DEFAULT_ROUNDS
from .render import DEFAULT_MAX_TILES
from .substitution import Substitution

_DOC_KEYS = {"alphabets", "substitutions", "dpv", "options"}
_SUB_KEYS = {"alphabet", "rules"}
_DPV_KEYS = {"vertical", "horizontal", "row_sigma"}
_INT_OPTIONS = {"rounds", "max_states", "max_tiles"}
_OPTION_KEYS = _INT_OPTIONS | {"modulus_letter"}

DEFAULT_OPTIONS = {
    "rounds": DEFAULT_ROUNDS,
    "max_states": DEFAULT_MAX_STATES,
    "max_tiles": DEFAULT_MAX_TILES,
    "modulus_letter": None,
}


@dataclass(frozen=True)
class Document:
    alphabets: dict
    substitutions: dict
    dpv: Optional[DPVSubstitution]
    options: dict

    def substitution(self, name):
        if name not in self.substitutions:
            raise ValidationError(f"unknown substitution {name!r}")
        return self.substitutions[name]


def _require_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown fields in {where}: {sorted(unknown)}")


def check_count(where, val, least=1):
    """``val`` if it is an integer (not a bool) >= ``least``; otherwise a
    ValidationError naming ``where``."""
    if not isinstance(val, int) or isinstance(val, bool) or val < least:
        raise ValidationError(f"{where} must be an integer >= {least}, got {val!r}")
    return val


def _section(raw, key):
    """The object under ``key`` of a document, {} when absent or empty."""
    obj = raw.get(key) or {}
    if not isinstance(obj, dict):
        raise ValidationError(f"{key} must be an object")
    return obj


def _known(name, table):
    """``name`` names an entry of ``table``; a list or an object, which JSON
    allows there too, names none."""
    return isinstance(name, str) and name in table


def _check_options(opts, alphabets):
    for key in sorted(_INT_OPTIONS & set(opts)):
        check_count(f"options.{key}", opts[key])
    letter = opts.get("modulus_letter")
    if letter is not None and not any(letter in letters for letters in alphabets.values()):
        raise ValidationError(f"options.modulus_letter must be null or a letter name, "
                              f"got {letter!r}")


def _parse_word(raw, where):
    if isinstance(raw, str):
        return list(raw)
    if isinstance(raw, list) and all(isinstance(x, str) for x in raw):
        return list(raw)
    raise ValidationError(f"{where} must be a string or a list of letter names")


def load_document(source):
    """Parse and validate an input document (path, JSON text, or dict)."""
    if isinstance(source, dict):
        raw = source
    else:
        text = source
        if not str(source).lstrip().startswith("{"):
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ValidationError(f"cannot read {source}: {exc.strerror}") from None
            except UnicodeDecodeError:
                raise ValidationError(f"cannot read {source}: not UTF-8 text") from None
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
    _require_keys(raw, _DOC_KEYS, "document")

    alphabets = {}
    for name, letters in _section(raw, "alphabets").items():
        if (not isinstance(letters, list) or not letters
                or not all(isinstance(x, str) and x for x in letters)
                or len(set(letters)) != len(letters)):
            raise ValidationError(f"alphabet {name!r} must be a list of unique nonempty names")
        alphabets[name] = tuple(letters)
    if not alphabets:
        raise ValidationError("document declares no alphabets")

    substitutions = {}
    for name, spec in _section(raw, "substitutions").items():
        _require_keys(spec, _SUB_KEYS, f"substitution {name!r}")
        if not _known(spec.get("alphabet"), alphabets):
            raise ValidationError(f"substitution {name!r} references unknown alphabet "
                                  f"{spec.get('alphabet')!r}")
        letters = alphabets[spec["alphabet"]]
        rules = spec.get("rules")
        if not isinstance(rules, dict) or set(rules) != set(letters):
            raise ValidationError(f"substitution {name!r} must give exactly one rule per letter")
        parsed = {k: _parse_word(v, f"rule {name}.{k}") for k, v in rules.items()}
        substitutions[name] = Substitution(letters, parsed)
    if not substitutions:
        raise ValidationError("document declares no substitutions")

    dpv = None
    if "dpv" in raw and raw["dpv"] is not None:
        spec = raw["dpv"]
        _require_keys(spec, _DPV_KEYS, "dpv")
        vname = spec.get("vertical")
        if not _known(vname, substitutions):
            raise ValidationError(f"dpv.vertical references unknown substitution {vname!r}")
        hnames = spec.get("horizontal")
        if (not isinstance(hnames, list) or not hnames
                or not all(_known(h, substitutions) for h in hnames)):
            raise ValidationError("dpv.horizontal must list known substitutions")
        rho = substitutions[vname]
        row_sigma_raw = spec.get("row_sigma")
        if not isinstance(row_sigma_raw, dict) or set(row_sigma_raw) != set(rho.alphabet):
            raise ValidationError("dpv.row_sigma must give one row list per vertical letter")
        row_sigma = []
        for letter in rho.alphabet:
            entries = row_sigma_raw[letter]
            if not isinstance(entries, list):
                raise ValidationError(f"dpv.row_sigma[{letter!r}] must be a list")
            idx = []
            for e in entries:
                if isinstance(e, int):
                    if not 0 <= e < len(hnames):
                        raise ValidationError(f"dpv.row_sigma[{letter!r}] index {e} out of range")
                    idx.append(e)
                elif isinstance(e, str) and e in hnames:
                    idx.append(hnames.index(e))
                else:
                    raise ValidationError(
                        f"dpv.row_sigma[{letter!r}] entries must be horizontal names or indices"
                    )
            row_sigma.append(tuple(idx))
        dpv = DPVSubstitution(
            vertical=rho,
            horizontal=tuple(substitutions[h] for h in hnames),
            row_sigma=tuple(row_sigma),
        )

    options = dict(DEFAULT_OPTIONS)
    if "options" in raw and raw["options"] is not None:
        _require_keys(raw["options"], _OPTION_KEYS, "options")
        _check_options(raw["options"], alphabets)
        options.update(raw["options"])

    return Document(
        alphabets=alphabets,
        substitutions=substitutions,
        dpv=dpv,
        options=options,
    )


def bundled_names():
    return ("doubling_swap", "period_doubling", "row_thirds")


def _bundled_text(name, suffix):
    if name not in bundled_names():
        raise ValidationError(f"unknown bundled document {name!r}; "
                              f"available: {', '.join(bundled_names())}")
    return resources.files("faultline").joinpath("data", name + suffix).read_text("utf-8")


def bundled_document(name):
    return load_document(_bundled_text(name, ".json"))


def bundled_expected(name):
    """Expected cohomology figures of a bundled document, as pinned in
    ``data/<name>.expected.json`` (see ``cli.cohomology_summary``)."""
    return json.loads(_bundled_text(name, ".expected.json"))
