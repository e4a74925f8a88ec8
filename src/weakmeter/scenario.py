"""Declarative scenario documents: parsing, validation, execution, serialization.

Scenario files are strict YAML (unknown keys are errors).  Angles are given
in units of pi so closed-form test points stay exactly representable; they
are converted to radians at binding time.  Output is deterministic:
identical inputs produce bit-identical CSV and record streams.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np
import yaml

from .dynamics import COUPLINGS, VARIANTS, CouplingSpec, kick_factors, transfer_readouts
from .errors import (
    ParameterRangeError,
    ScenarioSyntaxError,
    UnknownIdError,
    UnknownKeyError,
    WeakmeterError,
)
from .meter import check_meter, make_meter
from .optics import STATE_IDS, check_state, named_state
from .weakvalue import check_overlap, lifted_observable, observable_ids, weak_value_tables

# CPython's own SHA-256, as hashlib falls back to: hashlib would map OpenSSL's
# libcrypto for one digest per run.  Resolved once here, never per call.
try:
    from _sha2 import sha256 as _sha256  # 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "DEFAULTS",
    "ScenarioLoader",
    "ScenarioDoc",
    "load_yaml",
    "ResultRecord",
    "parse_scenario",
    "scenario_to_text",
    "apply_override",
    "run_scenario",
    "records_to_csv",
    "records_to_jsonl",
    "CSV_COLUMNS",
]

DEFAULTS = {
    "meter": {"N": 64, "delta": 4.0},
    # the variant is the one coupling default that CouplingSpec does not declare
    "coupling": {"variant": "noiseless_kick"} | {
        f.name: f.default for f in dataclasses.fields(CouplingSpec)
        if f.default is not dataclasses.MISSING},
}

_TOP_KEYS = ("name", "preselect", "postselect", "coupling", "meter", "observables", "sweep")
_COUPLING_KEYS = tuple(DEFAULTS["coupling"])
_METER_KEYS = ("N", "delta")
_SWEEP_KEYS = ("start", "stop", "steps", "values")
_ANGLE_KEYS = tuple(dict.fromkeys(angle for angles in STATE_IDS.values() for angle in angles))
# residuals above this mark the exponential-shift fit as unreliable
MAX_FIT_RESIDUAL = 1e-2


_FLOAT_TAG = "tag:yaml.org,2002:float"
_STR_TAG = "tag:yaml.org,2002:str"
_MERGE_TAG = "tag:yaml.org,2002:merge"
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$")


def _loader(base: type) -> type:
    """The scenario loader on ``base``, a PyYAML safe loader class."""

    class ScenarioLoader(base):
        """Safe loader that also reads YAML 1.2 exponent floats such as 2e-3 and 1e308.

        YAML 1.1 needs a dot and a signed exponent, so it reads those as strings.
        """

        def construct_object(self, node, deep=False):
            try:
                return super().construct_object(node, deep)
            except (ValueError, AttributeError) as exc:  # e.g. 2020-13-45, !!int x
                if not isinstance(node, yaml.ScalarNode):
                    raise
                kind = node.tag.rsplit(":", 1)[-1]
                raise yaml.constructor.ConstructorError(
                    None, None, f"{node.value!r} is not a valid {kind}",
                    node.start_mark) from exc

        def construct_mapping(self, node, deep=False):
            """Reject a key the mapping names twice, at the second key's line.

            Only the mapping's own keys count: a key brought in by a ``<<``
            merge may be overridden by an explicit one, as YAML allows.
            """
            seen = {}
            for key_node, _ in node.value:
                if key_node.tag == _MERGE_TAG:
                    continue
                key = self.construct_object(key_node, deep=deep)
                try:
                    first = seen.setdefault(key, key_node)
                except TypeError:  # unhashable: the base class reports it
                    continue
                if first is not key_node:
                    line = first.start_mark.line + 1
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key!r}, first given on line {line}",
                        key_node.start_mark)
            return super().construct_mapping(node, deep)

    ScenarioLoader.add_implicit_resolver(_FLOAT_TAG, _EXPONENT_FLOAT, list("-+0123456789."))
    return ScenarioLoader


# libyaml's C parser when PyYAML ships it; the constructor and resolver are Python either way
ScenarioLoader = _loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))

# libyaml composes a document recursively in C and overflows the C stack some
# 20,000 collections deep.  Each level takes a character, so only a longer
# text is scanned for its depth before it is composed.
_SCAN_DEPTH_FROM = 10_000
_MAX_DEPTH = 100
_LINE_BREAK = re.compile("\r\n|[\n\r\x85\u2028\u2029]")


def _check_depth(text: str) -> None:
    if len(text) < _SCAN_DEPTH_FROM:
        return
    depth = 0
    for event in yaml.parse(text, Loader=ScenarioLoader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_DEPTH:
                raise yaml.parser.ParserError(
                    None, None, f"collections nest deeper than {_MAX_DEPTH} levels",
                    event.start_mark)
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def _bad_character(text: str, index: int, reason: str) -> ScenarioSyntaxError:
    """The error for the unreadable character at ``text[index]``, located as YAML counts lines."""
    breaks = list(_LINE_BREAK.finditer(text, 0, index))
    column = index - (breaks[-1].end() if breaks else 0)
    return ScenarioSyntaxError(f"unacceptable character #x{ord(text[index]):04x}: {reason}",
                               line=len(breaks) + 1, column=column + 1)


def _name_as_written(node, path: str | None) -> None:
    """Read a plain ``name`` such as ``1e3`` as the string it is.

    ``node`` is a document (``path`` None), whose top-level ``name`` the rule
    takes, or the value at a scenario ``path`` (a ``--set`` value).
    :func:`scenario_to_text` writes names as YAML 1.1 does, and YAML 1.1
    reads ``1e3`` as a string, so it writes such a name plain.
    """
    if path is None and isinstance(node, yaml.MappingNode):
        node = next((value for key, value in node.value
                     if isinstance(key, yaml.ScalarNode) and key.value == "name"), None)
    elif path != "name":
        return
    if (isinstance(node, yaml.ScalarNode) and node.tag == _FLOAT_TAG
            and not node.style and _EXPONENT_FLOAT.match(node.value)):
        node.tag = _STR_TAG


def load_yaml(text: str, path: str | None = None):
    """``text`` read by :class:`ScenarioLoader`; None if it holds no document.

    ``text`` is a whole document, or the value at the scenario ``path`` when
    one is given.  Every way the text can fail to load raises one
    :class:`ScenarioSyntaxError`, with line and column where the reader
    knows them.  A plain ``name`` that only the YAML 1.2 exponent rule reads
    as a number stays a string (:func:`_name_as_written`).
    """
    try:
        _check_depth(text)
        loader = ScenarioLoader(text)
        try:
            node = loader.get_single_node()
            if node is None:
                return None
            _name_as_written(node, path)
            return loader.construct_document(node)
        finally:
            loader.dispose()
    except yaml.reader.ReaderError as exc:
        # no mark: locate the character itself, the first of its kind the reader meets
        index = text.find(chr(exc.character))
        raise _bad_character(text, index, exc.reason) from exc
    except UnicodeEncodeError as exc:  # libyaml reads UTF-8, which has no lone surrogates
        raise _bad_character(text, exc.start, exc.reason) from exc
    except RecursionError as exc:  # the pure-Python composer
        raise ScenarioSyntaxError("collections nest too deeply") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ScenarioSyntaxError(str(getattr(exc, "problem", exc)),
                                      line=mark.line + 1, column=mark.column + 1) from exc
        raise ScenarioSyntaxError(" ".join(str(exc).split())) from exc


@dataclass(frozen=True)
class ScenarioDoc:
    """Validated scenario with all defaults filled (angles in units of pi)."""

    name: str
    preselect: dict
    postselect: dict
    coupling: dict
    meter: dict
    observables: tuple[str, ...]
    sweep: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "preselect": dict(self.preselect),
            "postselect": dict(self.postselect),
            "coupling": dict(self.coupling),
            "meter": dict(self.meter),
            "observables": list(self.observables),
            "sweep": {k: dict(v) for k, v in self.sweep.items()},
        }

    def config_hash(self) -> str:
        return _sha256(scenario_to_text(self).encode("utf-8")).hexdigest()


# Every string the canonical text writes as it is: ids, variants, arms, keys
# and sweep paths, each a plain YAML scalar (pinned in tests/test_scenario.py).
_SECTION_FIELDS = {"preselect": ("id",) + _ANGLE_KEYS, "postselect": ("id",) + _ANGLE_KEYS,
                   "coupling": _COUPLING_KEYS, "meter": _METER_KEYS}
_VERBATIM = frozenset(
    {*STATE_IDS, *VARIANTS, *observable_ids(), *(arm for _, arm in COUPLINGS if arm),
     *_TOP_KEYS, *_SWEEP_KEYS,
     *(leaf for leaves in _SECTION_FIELDS.values() for leaf in leaves),
     *(f"{section}.{leaf}" for section, leaves in _SECTION_FIELDS.items() for leaf in leaves)})


def _yaml_scalar(value) -> str:
    """``value`` as PyYAML's SafeRepresenter writes it, for the scalar types of the schema."""
    kind = type(value)
    if kind is float:
        if value != value:
            return ".nan"
        if value in (math.inf, -math.inf):
            return ".inf" if value > 0 else "-.inf"
        text = repr(value).lower()
        # a float tag needs the dot: 1e+17 is written 1.0e+17
        return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    if kind is str and value in _VERBATIM:
        return value
    raise yaml.representer.RepresenterError("cannot represent an object", value)


def _block(lines: list, key: str, value, indent: str) -> None:
    """Append ``key: value`` in PyYAML's block style, mapping keys sorted."""
    head = f"{indent}{_yaml_scalar(key)}:"
    kind = type(value)
    if kind is dict and value:
        lines.append(head)
        for sub in sorted(value):
            _block(lines, sub, value[sub], indent + "  ")
    elif kind is list and value:
        lines.append(head)
        lines.extend(f"{indent}- {_yaml_scalar(item)}" for item in value)
    elif kind is dict or kind is list:
        lines.append(f"{head} {'{}' if kind is dict else '[]'}")
    else:
        lines.append(f"{head} {_yaml_scalar(value)}")


# a name PyYAML writes plain when its resolver reads it as a string (not yes, null or No)
_PLAIN_NAME = r"[A-Za-z][A-Za-z0-9_-]*"


def _name_line(name: str) -> str:
    if (re.fullmatch(_PLAIN_NAME, name) and _STR_TAG
            == yaml.resolver.Resolver().resolve(yaml.ScalarNode, name, (True, False))):
        return f"name: {name}"
    return yaml.safe_dump({"name": name}, default_flow_style=False)[:-1]


def scenario_to_text(doc: ScenarioDoc) -> str:
    """The canonical text of ``doc``, whose sha256 is the config hash.

    It is ``yaml.safe_dump(doc.to_dict(), sort_keys=True,
    default_flow_style=False)`` byte for byte, written here from the
    validated schema: numbers as PyYAML's SafeRepresenter writes them, ids
    and paths as they are.  A name of an ASCII letter then letters, digits,
    ``_`` and ``-`` that PyYAML's resolver reads as a string is written
    plain; PyYAML renders any other name, so its quoting and line folding
    stay PyYAML's.  A value outside the schema raises
    ``yaml.representer.RepresenterError``.
    """
    data = doc.to_dict()
    lines: list = []
    for key in sorted(data):
        if key == "name":
            lines.append(_name_line(data[key]))
        else:
            _block(lines, key, data[key], "")
    return "\n".join(lines) + "\n"


def _reject_unknown(mapping: dict, allowed, where: str) -> None:
    unknown = [k for k in mapping if k not in allowed]
    if unknown:
        raise UnknownKeyError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterRangeError(f"{where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # false for NaN too
        raise ParameterRangeError(f"{where} must be finite, got {value!r}")
    return float(value)


def _validate_state(section, where: str) -> dict:
    if not isinstance(section, dict):
        raise ScenarioSyntaxError(f"{where} must be a mapping with an 'id'")
    if "id" not in section:
        raise ParameterRangeError(f"{where} needs an 'id' field")
    out = {"id": section["id"]}
    # only angle names reach a message as they are; any other key is reported as unknown
    out.update((str(k), _require_number(v, f"{where}.{k}")) for k, v in section.items()
               if k in _ANGLE_KEYS)
    check_state(out["id"], out, where)
    _reject_unknown(section, ("id",) + STATE_IDS[out["id"]], where)
    out["id"] = str(out["id"])  # a numpy string as the str the config text writes
    return out


def _validate_coupling(section) -> dict:
    if section is None:
        return dict(DEFAULTS["coupling"])
    if not isinstance(section, dict):
        raise ScenarioSyntaxError("coupling must be a mapping")
    _reject_unknown(section, _COUPLING_KEYS, "coupling")
    out = dict(DEFAULTS["coupling"])
    out.update(section)
    for key in ("g", "gprime", "t"):
        out[key] = _require_number(out[key], f"coupling.{key}")
    if out["kick_time"] is not None:
        out["kick_time"] = _require_number(out["kick_time"], "coupling.kick_time")
    # raises if a coupling rule fails; a numpy integer kick_sign comes back a plain int
    out["kick_sign"] = CouplingSpec(**out).kick_sign
    # numpy strings as the str the config text writes
    out["variant"] = str(out["variant"])
    if out["measure_arm"] is not None:
        out["measure_arm"] = str(out["measure_arm"])
    return out


def _validate_meter(section) -> dict:
    if section is None:
        return dict(DEFAULTS["meter"])
    if not isinstance(section, dict):
        raise ScenarioSyntaxError("meter must be a mapping")
    _reject_unknown(section, _METER_KEYS, "meter")
    out = dict(DEFAULTS["meter"])
    out.update(section)
    out["delta"] = _require_number(out["delta"], "meter.delta")
    check_meter(out["N"], out["delta"])
    out["N"] = int(out["N"])  # a numpy integer as the int the config text writes
    return out


def _validate_observables(section) -> tuple[str, ...]:
    if section is None:
        return ()
    if not isinstance(section, list):
        raise ScenarioSyntaxError("observables must be a list of catalog ids")
    valid = observable_ids()
    for index, obs in enumerate(section):
        if obs not in valid:
            raise UnknownIdError(
                f"unknown observable {obs!r} in observables; valid ids: {list(valid)}"
            )
        if obs in section[:index]:  # records hold one weak value per id
            raise ScenarioSyntaxError(f"observable {obs!r} is listed twice in observables")
    return tuple(str(obs) for obs in section)


# the sections a sweep path can address, in the order _validate checks them
_SECTION_RULES = {
    "preselect": lambda section: _validate_state(section, "preselect"),
    "postselect": lambda section: _validate_state(section, "postselect"),
    "coupling": _validate_coupling,
    "meter": _validate_meter,
}


def _resolve_path(data: dict, path: str):
    node = data
    parts = path.split(".") if isinstance(path, str) else ()  # a YAML key may be any scalar
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise UnknownKeyError(f"path {path!r} does not address a scenario field")
        node = node[part]
    if not parts or not isinstance(node, dict) or parts[-1] not in node:
        raise UnknownKeyError(f"path {path!r} does not address a scenario field")
    return node, parts[-1]


def _validate_sweep(section, doc_dict: dict) -> dict:
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ScenarioSyntaxError("sweep must map dotted parameter paths to ranges")
    out = {}
    for path, spec in section.items():
        node, leaf = _resolve_path(doc_dict, path)
        if not isinstance(node[leaf], (int, float)) or isinstance(node[leaf], bool):
            raise ParameterRangeError(f"sweep path {path!r} must address a numeric field")
        # an integer field (meter.N, coupling.kick_sign) keeps the ints it is given, of
        # any size (a float would round past 2**53); one out of range fails its points
        integral = isinstance(node[leaf], int)
        if not isinstance(spec, dict):
            raise ScenarioSyntaxError(f"sweep.{path} must be a mapping")
        _reject_unknown(spec, _SWEEP_KEYS, f"sweep.{path}")
        if "values" in spec:
            if set(spec) != {"values"}:
                raise ParameterRangeError(
                    f"sweep.{path}: give either values or start/stop/steps, not both"
                )
            values = spec["values"]
            if not isinstance(values, list) or not values:
                raise ParameterRangeError(f"sweep.{path}.values must be a nonempty list")
            out[str(path)] = {"values": [
                v if integral and type(v) is int else _require_number(v, f"sweep.{path}.values")
                for v in values]}
        else:
            missing = [k for k in ("start", "stop", "steps") if k not in spec]
            if missing:
                raise ParameterRangeError(f"sweep.{path} missing {missing}")
            steps = spec["steps"]
            if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
                raise ParameterRangeError(f"sweep.{path}.steps must be an integer >= 1")
            out[str(path)] = {
                "start": _require_number(spec["start"], f"sweep.{path}.start"),
                "stop": _require_number(spec["stop"], f"sweep.{path}.stop"),
                "steps": steps,
            }
    return out


def _validate(raw: dict) -> ScenarioDoc:
    if not isinstance(raw, dict):
        raise ScenarioSyntaxError("scenario document must be a mapping")
    _reject_unknown(raw, _TOP_KEYS, "scenario")
    if "name" not in raw or not isinstance(raw["name"], str) or not raw["name"]:
        raise ParameterRangeError("scenario needs a nonempty string 'name'")
    name = str(raw["name"])
    try:
        name.encode("utf-8")  # the config text and every output are UTF-8
    except UnicodeEncodeError:
        raise ParameterRangeError(f"scenario name {name!r} cannot be written as UTF-8") from None
    for required in ("preselect", "postselect"):
        if required not in raw:
            raise ParameterRangeError(f"scenario needs a {required!r} section")
    sections = {section: rule(raw.get(section)) for section, rule in _SECTION_RULES.items()}
    observables = _validate_observables(raw.get("observables"))
    # a sweep of the name or the observables is refused as non-numeric, not unknown
    sweep = _validate_sweep(raw.get("sweep"), {"name": name, "observables": observables,
                                               **sections})
    return ScenarioDoc(name=name, observables=observables, sweep=sweep, **sections)


def parse_scenario(text: str) -> ScenarioDoc:
    """Parse and strictly validate a scenario document.

    Omitted meter and coupling fields take :data:`DEFAULTS`; an unset
    kick_time fires the kick at the end of the noise window.
    """
    raw = load_yaml(text)
    if raw is None:
        raise ScenarioSyntaxError("scenario document is empty")
    return _validate(raw)


def apply_override(doc: ScenarioDoc, path: str, value) -> ScenarioDoc:
    """Set one dotted-path field (e.g. coupling.g) and re-validate strictly.

    A path that addresses no field of the validated document raises
    :class:`UnknownKeyError`.
    """
    data = doc.to_dict()
    node, leaf = _resolve_path(data, path)
    node[leaf] = value
    return _validate(data)


@dataclass(frozen=True)
class ResultRecord:
    """One sweep point: weak values, meter readout, pointer fit, provenance."""

    scenario: str
    point: dict
    weak_values: dict
    mean_q: float | None = None
    mean_p: float | None = None
    var_q: float | None = None
    var_p: float | None = None
    success_probability: float | None = None
    fit_value: complex | None = None
    fit_offset: complex | None = None
    fit_residual: float | None = None
    config_hash: str = ""
    error: str = ""


def _variant(doc: ScenarioDoc, section: str, point: dict):
    """``doc``'s section with the point's values set together and validated, or its error.

    An unswept section is the document's own.
    """
    values = {path.split(".")[1]: v for path, v in point.items() if path.split(".")[0] == section}
    if not values:
        return getattr(doc, section)
    try:
        return _SECTION_RULES[section](getattr(doc, section) | values)
    except WeakmeterError as exc:
        return exc


def _sweep_points(doc: ScenarioDoc):
    """Each point as ({path: value}, {section: key}), the last path varying fastest.

    Sweep paths address numeric fields of the sections only (checked at
    parse time), so a section's key is the point's values on the section's
    paths: an int as it is, a float by repr, so only bit-equal values share
    a key (-0.0 is not 0.0).  An unswept section's key is ().  An integer
    field takes integral values as int; any other value fails its own points.
    """
    grids, owners = [], []
    for path, spec in doc.sweep.items():
        values = list(spec["values"]) if "values" in spec else [
            float(v) for v in np.linspace(spec["start"], spec["stop"], spec["steps"])]
        section, leaf = path.split(".")
        if type(getattr(doc, section)[leaf]) is int:
            values = [int(v) if isinstance(v, int) or v.is_integer() else v for v in values]
        grids.append(values)
        owners.append(section)
    for values in itertools.product(*grids):
        yield dict(zip(doc.sweep, values)), {
            section: tuple(v if type(v) is int else repr(v)
                           for v, owner in zip(values, owners) if owner == section)
            for section in _SECTION_RULES}


def _record(name: str, point: dict, chash: str, weak_values: dict, result) -> ResultRecord:
    """A point's record from its (readout, fit) pair, or from the error that stopped it."""
    if isinstance(result, WeakmeterError):
        return ResultRecord(scenario=name, point=point, weak_values=weak_values,
                            config_hash=chash, error=f"{type(result).__name__}: {result}")
    readout, fit = result
    if isinstance(fit, WeakmeterError):  # the fit's error, with the readout's fields kept
        return dataclasses.replace(_record(name, point, chash, weak_values, fit), **vars(readout))
    error = ""
    if fit.residual > MAX_FIT_RESIDUAL:
        error = f"fit-residual: {fit.residual:.3e} exceeds {MAX_FIT_RESIDUAL:.0e}"
    return ResultRecord(
        scenario=name, point=point, weak_values=weak_values,
        mean_q=readout.mean_q, mean_p=readout.mean_p,
        var_q=readout.var_q, var_p=readout.var_p,
        success_probability=readout.success_probability,
        fit_value=fit.value, fit_offset=fit.offset, fit_residual=fit.residual,
        config_hash=chash, error=error,
    )


def _run_key(doc: ScenarioDoc, key: tuple, jobs: list, variants: dict, built: dict,
             chash: str, records: list) -> None:
    """Fill the records of the (index, point, pre, post) jobs of one group.

    ``key`` is (coupling key, meter key).  ``variants`` and ``built`` are
    :func:`run_scenario`'s tables; the group's coupling spec and meter go
    into ``built`` under their keys, each built once per call, and the meter
    only once a point is left to read.  Each point meets the checks of a
    single-point run in the same order: a degenerate overlap, an observable
    that does not fit the states, the kick's overflow, the grid's zone
    limit, annihilation, the fit's conditioning, then the residual flag.
    States on different spaces fail in the weak values, if any, else in
    post-selection.
    """
    coupling_key, meter_key = key
    coupling, meter = variants["coupling"][coupling_key], variants["meter"][meter_key]
    _, _, first_pre, first_post = jobs[0]
    system = first_pre.signature  # every state of the call is on the document's spaces
    ops, op_error = [], None  # the observables on the states' space, up to the first that fails
    for obs_id in doc.observables:
        try:
            ops.append(lifted_observable(obs_id, system,
                                         gprime_t=coupling["gprime"] * coupling["t"]))
        except WeakmeterError as exc:
            op_error = exc
            break
    pres = list({id(pre): pre for _, _, pre, _ in jobs}.values())  # distinct, first seen first
    posts = list({id(post): post for _, _, _, post in jobs}.values())
    pre_at = {id(pre): r for r, pre in enumerate(pres)}
    post_at = {id(post): p for p, post in enumerate(posts)}

    paired = ops or system == first_post.signature
    if paired:
        try:
            overlaps, tables = weak_value_tables(pres, posts, ops)
        except WeakmeterError as exc:  # pre- and post-states on different spaces
            for index, point, _, _ in jobs:
                records[index] = _record(doc.name, point, chash, {}, exc)
            return
        scales = np.outer([post.norm() for post in posts], [pre.norm() for pre in pres])
    pending = []
    for index, point, pre, post in jobs:
        r, p = pre_at[id(pre)], post_at[id(post)]
        weak_values = {}
        try:
            if paired:
                check_overlap(overlaps[p, r], scales[p, r])
                weak_values = {obs_id: complex(table[p, r])
                               for obs_id, table in zip(doc.observables, tables)}
            if op_error is not None:
                raise op_error
        except WeakmeterError as exc:
            records[index] = _record(doc.name, point, chash, weak_values, exc)
            continue
        pending.append((index, point, r, p, weak_values))
    if not pending:
        return

    specs, grids = built["coupling"], built["meter"]
    if coupling_key not in specs:
        specs[coupling_key] = CouplingSpec(**coupling)
    try:
        if meter_key not in grids:
            grids[meter_key] = make_meter(meter["N"], meter["delta"])
        # the key's factors and grid arrays live only in this call, one key at a time
        results = list(transfer_readouts(kick_factors(specs[coupling_key], system),
                                         grids[meter_key], pres, posts))
    except WeakmeterError as exc:  # no grid, a kick overflow or past the zone, spaces differ
        results = exc
    for index, point, r, p, weak_values in pending:
        result = results if isinstance(results, WeakmeterError) else results[r][p]
        records[index] = _record(doc.name, point, chash, weak_values, result)


def run_scenario(doc: ScenarioDoc) -> list[ResultRecord]:
    """Execute every sweep point; records come back in declaration order.

    Out-of-range swept values, degenerate post-selections and annihilated
    meters become per-record error fields; they never abort the remaining
    points.  A sweep varies numbers only, so the state ids, the coupling
    variant and arm, and with them the states' spaces, are the document's.
    Each section is validated, and each state, coupling spec and meter
    built, once per call and distinct value (:func:`_sweep_points`).
    Points are grouped by (coupling, meter): each group builds its kick
    factors once and reads every point from the transfer amplitudes
    <post| U(q) |pre> of its distinct states
    (:func:`weakmeter.dynamics.transfer_readouts`).
    """
    chash = doc.config_hash()
    orbital_dim = COUPLINGS[doc.coupling["variant"], doc.coupling["measure_arm"]].orbital_dim
    variants = {section: {} for section in _SECTION_RULES}  # key: validated section or its error
    built = {section: {} for section in _SECTION_RULES}  # key: state, coupling spec or meter
    records: list = []
    groups: dict = {}
    for index, (point, keys) in enumerate(_sweep_points(doc)):
        for section, key in keys.items():
            if key not in variants[section]:
                variants[section][key] = _variant(doc, section, point)
        # the first failing section in _SECTION_RULES order, else the first failing state
        error = next((variants[section][key] for section, key in keys.items()
                      if isinstance(variants[section][key], WeakmeterError)), None)
        if error is None:
            try:
                for section in ("preselect", "postselect"):
                    if keys[section] not in built[section]:
                        fields = variants[section][keys[section]]
                        built[section][keys[section]] = named_state(
                            fields["id"], orbital_dim=orbital_dim,
                            **{k: float(v) * np.pi for k, v in fields.items() if k != "id"})
            except WeakmeterError as exc:
                error = exc
        if error is not None:
            records.append(_record(doc.name, point, chash, {}, error))
            continue
        records.append(None)
        groups.setdefault((keys["coupling"], keys["meter"]), []).append(
            (index, point, built["preselect"][keys["preselect"]],
             built["postselect"][keys["postselect"]]))
    for key, jobs in groups.items():
        _run_key(doc, key, jobs, variants, built, chash, records)
    return records


CSV_COLUMNS = ("scenario", "observable", "wv_re", "wv_im", "mean_q", "mean_p",
               "success_prob", "fit_re", "fit_im", "residual", "error")


def _fmt(value) -> str:
    if value is None:
        return ""
    if type(value) is int:  # a swept integer field, every digit of it
        return str(value)
    return f"{value:.17g}"


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: quoted, with quotes doubled, only where it must be."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def records_to_csv(records, sweep_paths=()) -> str:
    """Flat CSV, one line per (record, observable); 17 significant digits.

    Sweep parameter columns (named by their dotted paths) sit between the
    scenario and observable columns.  A scenario name holding a comma, quote
    or line break is quoted RFC 4180 style.
    """
    paths = list(sweep_paths)
    header = ["scenario"] + paths + list(CSV_COLUMNS[1:])
    lines = [",".join(header)]
    for rec in records:
        base = [_csv_field(rec.scenario)] + [_fmt(rec.point.get(p)) for p in paths]
        tail = [
            _fmt(rec.mean_q), _fmt(rec.mean_p), _fmt(rec.success_probability),
            _fmt(rec.fit_value.real if rec.fit_value is not None else None),
            _fmt(rec.fit_value.imag if rec.fit_value is not None else None),
            _fmt(rec.fit_residual),
            '"' + rec.error.replace('"', "'") + '"' if rec.error else "",
        ]
        if rec.weak_values:
            for obs_id, value in rec.weak_values.items():
                row = base + [obs_id, _fmt(value.real), _fmt(value.imag)] + tail
                lines.append(",".join(row))
        else:
            lines.append(",".join(base + ["", "", ""] + tail))
    return "\n".join(lines) + "\n"


def _json_value(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def records_to_jsonl(records) -> str:
    """Structured record stream: one JSON object per line, a key per record field, sorted."""
    lines = []
    for rec in records:
        obj = {name: _json_value(value) for name, value in vars(rec).items()}
        obj["weak_values"] = {k: _json_value(v) for k, v in rec.weak_values.items()}
        lines.append(json.dumps(obj, sort_keys=True, allow_nan=True))
    return "\n".join(lines) + "\n"
