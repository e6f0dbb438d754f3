"""Line-oriented scenario configuration with a strict per-scenario schema.

Grammar (documented in the README):

    # comment (full-line or trailing)
    scenario = chooser          # exactly once, before any section

    [parameters]                # typed keys per scenario schema
    v = 1e-4
    band_1 = linspace(-1, 1, 20)   # float lists: comma-separated or linspace

    [sampling]
    n_times = 2048
    t_final = auto              # chooser only: resolves to 5/gamma

    [output]
    prefix = runs/demo

Unknown sections, unknown keys, duplicate keys, missing required keys and
malformed values are all rejected with line/key diagnostics, so a typo can
never silently fall back to a default.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DEFAULT_CONFIG_CAP, ConfigError, SizeLimitError

SWEEP_BASES = ("chooser", "telegraph")


@dataclass(frozen=True)
class FieldSpec:
    """Type and presence contract for a single config key."""

    kind: str  # float | int | floats | str | float_or_auto
    required: bool = False
    default: object = None
    choices: tuple[str, ...] | None = None
    # accepted range of a number, or of each entry of a float list
    minimum: float | None = None  # inclusive
    maximum: float | None = None  # inclusive
    above: float | None = None  # exclusive lower bound
    cap: int | None = None  # int kind: a larger value exceeds a size cap (exit 4)


_CHOOSER_PARAMS = {
    "v": FieldSpec("float", required=True),
    "w": FieldSpec("float", required=True),
    "u": FieldSpec("float", required=True),
    "n_band": FieldSpec("int", required=True, minimum=0),
    "delta": FieldSpec("float_or_auto", default=None, above=0.0),  # auto -> pi*|u|
    "alpha": FieldSpec("float", default=0.0),
}

SITE_KEYS = (  # each telegraph site's keys, in TelegraphSite's field order
    ("e_g1", "e_w1", "v_loc_1", "eps_grav_1", "band_1", "v_gw_1"),
    ("e_g2", "e_w2", "v_loc_2", "eps_grav_2", "band_2", "v_gw_2"),
)

_SITE_KINDS = ("float",) * 4 + ("floats", "float")  # each site field's kind

_TELEGRAPH_PARAMS = {  # the two sites' keys interleaved, field by field
    **{
        key: FieldSpec(kind, required=True)
        for pair, kind in zip(zip(*SITE_KEYS), _SITE_KINDS) for key in pair
    },
    "weight_site1": FieldSpec("float", default=0.5, minimum=0.0, maximum=1.0),
}

_SCHEMAS = {
    "chooser": {
        "parameters": _CHOOSER_PARAMS,
        "sampling": {
            "n_times": FieldSpec("int", default=2048, minimum=0, cap=DEFAULT_CONFIG_CAP),
            "t_final": FieldSpec("float_or_auto", default=None),  # auto -> 5/gamma
        },
    },
    "telegraph": {
        "parameters": _TELEGRAPH_PARAMS,
        "sampling": {
            "n_times": FieldSpec("int", default=2048, minimum=1, cap=DEFAULT_CONFIG_CAP),
            "t_final": FieldSpec("float", required=True),
        },
    },
    "gravonon-modes": {
        "parameters": {
            "positions": FieldSpec("floats", required=True),
            "envelope_width": FieldSpec("float", required=True, above=0.0),
            "vgrav": FieldSpec("floats", required=True),
            "theta": FieldSpec("float", default=1.0),
            "m_g": FieldSpec("float", default=1.0, above=0.0),
            "v_o": FieldSpec("float", default=0.0),
        },
        "sampling": {},
    },
    "meanfield": {
        "parameters": {
            "x_min": FieldSpec("float", required=True),
            "x_max": FieldSpec("float", required=True),
            "n_points": FieldSpec("int", required=True, minimum=16, cap=DEFAULT_CONFIG_CAP),
            "m": FieldSpec("float", default=1.0, above=0.0),
            "m_g": FieldSpec("float", default=1.0, above=0.0),
            "g_newton": FieldSpec("float", default=0.0),
            "d_spatial": FieldSpec("int", default=3),
            "v_o": FieldSpec("float", default=0.0),
            "softening": FieldSpec("float_or_auto", default=None),
            "packet_center": FieldSpec("float", required=True),
            "packet_width": FieldSpec("float", required=True, above=0.0),
            "packet_momentum": FieldSpec("float", default=0.0),
            "zeta_center": FieldSpec("float", default=0.0),
            # auto -> no zeta field
            "zeta_width": FieldSpec("float_or_auto", default=None, above=0.0),
            "zeta_momentum": FieldSpec("float", default=0.0),
        },
        "sampling": {
            "dt": FieldSpec("float", required=True),
            "n_steps": FieldSpec("int", required=True, minimum=0),
            "sample_every": FieldSpec("int", default=1, minimum=1),
        },
    },
    "dimensional": {
        "parameters": {
            "g_newton": FieldSpec("float", default=1e-40, above=0.0),
            "radii": FieldSpec("floats", default=(1e4, 1e3, 1e2, 10.0), above=0.0),
        },
        "sampling": {},
    },
}

SCENARIO_NAMES = (*_SCHEMAS, "sweep")

_SWEEP_FIXED = {
    "base": FieldSpec("str", required=True, choices=SWEEP_BASES),
    "grid_cap": FieldSpec("int", default=1024, cap=DEFAULT_CONFIG_CAP),
}


@dataclass
class ScenarioConfig:
    """Validated scenario description: what to run and where to write."""

    scenario: str
    parameters: dict = field(default_factory=dict)
    sampling: dict = field(default_factory=dict)
    output_prefix: str | None = None
    sweep_axes: dict = field(default_factory=dict)  # key -> list of floats


_LINSPACE_RE = re.compile(
    r"^linspace\(\s*([^,]+)\s*,\s*([^,]+)\s*,\s*([^,)]+)\s*\)$"
)


def _parse_float(token, line, key):
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"expected a number, got {token!r}", line=line, key=key)
    if not math.isfinite(value):
        raise ConfigError(f"value must be finite, got {token!r}", line=line, key=key)
    return value


def _parse_int(token, line, key):
    try:
        return int(token, 10)
    except ValueError:
        raise ConfigError(f"expected an integer, got {token!r}", line=line, key=key)


def _parse_floats(token, line, key):
    if token == "":
        return []
    match = _LINSPACE_RE.match(token)
    if match:
        lo = _parse_float(match.group(1), line, key)
        hi = _parse_float(match.group(2), line, key)
        count = _parse_int(match.group(3), line, key)
        if count < 0:
            raise ConfigError("linspace count must be nonnegative", line=line, key=key)
        if count > DEFAULT_CONFIG_CAP:  # checked before anything is allocated
            raise SizeLimitError(f"[line {line}, key '{key}'] linspace count {count} "
                                 f"exceeds cap of {DEFAULT_CONFIG_CAP}")
        with np.errstate(all="ignore"):  # an entry that overflows is refused below
            values = np.linspace(lo, hi, count)
        if not np.isfinite(values).all():
            raise ConfigError(
                f"linspace entries must be finite, got {token!r}", line=line, key=key
            )
        return values.tolist()
    return [_parse_float(part.strip(), line, key) for part in token.split(",")]


def _check_range(spec: FieldSpec, value, line, key):
    if spec.above is not None and value <= spec.above:
        raise ConfigError(f"must exceed {spec.above}, got {value}", line=line, key=key)
    if spec.minimum is not None and value < spec.minimum:
        raise ConfigError(f"must be at least {spec.minimum}, got {value}", line=line, key=key)
    if spec.maximum is not None and value > spec.maximum:
        raise ConfigError(f"must be at most {spec.maximum}, got {value}", line=line, key=key)


def _parse_value(spec: FieldSpec, token, line, key):
    if spec.kind == "str":
        if spec.choices is not None and token not in spec.choices:
            raise ConfigError(
                f"expected one of {', '.join(spec.choices)}, got {token!r}",
                line=line,
                key=key,
            )
        return token
    if spec.kind == "float_or_auto" and token == "auto":
        return None
    if spec.kind == "floats":
        value = _parse_floats(token, line, key)
    elif spec.kind == "int":
        value = _parse_int(token, line, key)
        if spec.cap is not None and value > spec.cap:  # before allocating
            raise SizeLimitError(f"[line {line}, key '{key}'] count {value} "
                                 f"exceeds cap of {spec.cap}")
    else:
        value = _parse_float(token, line, key)
    for number in value if spec.kind == "floats" else [value]:
        _check_range(spec, number, line, key)
    return value


def _tokenize(text):
    """Yield (line_number, kind, payload) for sections and key=value entries."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            yield number, "section", line[1:-1].strip()
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            yield number, "entry", (key.strip(), value.strip())
            continue
        raise ConfigError(f"unparseable line: {raw.strip()!r}", line=number)


def _sweep_schema(base):
    """Sweep parameter schema: fixed keys, base keys, and sweep_<key> axes.

    Base-scenario keys lose their required flag here; a scalar float key may
    instead be provided as a sweep axis, whose every value must lie in the
    key's range, and the combined presence check runs after the axes are
    separated out. Integer and list keys have no axis.
    """
    schema = dict(_SWEEP_FIXED)
    for key, spec in _SCHEMAS[base]["parameters"].items():
        schema[key] = replace(spec, required=False)
        if spec.kind in ("float", "float_or_auto"):
            schema["sweep_" + key] = replace(schema[key], kind="floats", default=None)
    return schema


def _apply_schema(schema, entries, section):
    resolved = {}
    for key, (token, line) in entries.items():
        if key not in schema:
            raise ConfigError(
                f"unknown key in section [{section}]", line=line, key=key
            )
        resolved[key] = _parse_value(schema[key], token, line, key)
    for key, spec in schema.items():
        if key in resolved:
            continue
        if spec.required:
            raise ConfigError(f"missing required key in section [{section}]", key=key)
        if spec.default is not None or spec.kind == "float_or_auto":
            resolved[key] = (
                list(spec.default)
                if isinstance(spec.default, tuple)
                else spec.default
            )
    return resolved


def parse_config(text) -> ScenarioConfig:
    """Parse and validate config text against the scenario's schema."""
    scenario = None
    scenario_line = None
    sections: dict[str, dict] = {}
    current = None
    for number, kind, payload in _tokenize(text):
        if kind == "section":
            if payload not in ("parameters", "sampling", "output"):
                raise ConfigError(f"unknown section [{payload}]", line=number)
            if payload in sections:
                raise ConfigError(f"duplicate section [{payload}]", line=number)
            sections[payload] = {}
            current = payload
            continue
        key, token = payload
        if current is None:
            if key != "scenario":
                raise ConfigError(
                    "only 'scenario' may appear before the first section",
                    line=number,
                    key=key,
                )
            if scenario is not None:
                raise ConfigError("duplicate 'scenario' key", line=number, key=key)
            if token not in SCENARIO_NAMES:
                raise ConfigError(
                    f"unknown scenario {token!r}; expected one of "
                    + ", ".join(SCENARIO_NAMES),
                    line=number,
                    key=key,
                )
            scenario = token
            scenario_line = number
            continue
        if key in sections[current]:
            raise ConfigError(
                f"duplicate key in section [{current}]", line=number, key=key
            )
        sections[current][key] = (token, number)

    if scenario is None:
        raise ConfigError("missing 'scenario' key", line=scenario_line, key="scenario")

    if scenario == "sweep":
        base_entry = sections.get("parameters", {}).get("base")
        if base_entry is None:
            raise ConfigError(
                "missing required key in section [parameters]", key="base"
            )
        base = _parse_value(_SWEEP_FIXED["base"], base_entry[0], base_entry[1], "base")
        param_schema = _sweep_schema(base)
        sampling_schema = _SCHEMAS[base]["sampling"]
    else:
        param_schema = _SCHEMAS[scenario]["parameters"]
        sampling_schema = _SCHEMAS[scenario]["sampling"]

    parameters = _apply_schema(param_schema, sections.get("parameters", {}), "parameters")
    sampling = _apply_schema(sampling_schema, sections.get("sampling", {}), "sampling")

    output_entries = sections.get("output", {})
    output = _apply_schema({"prefix": FieldSpec("str")}, output_entries, "output")
    prefix = output.get("prefix")

    sweep_axes = {}
    if scenario == "sweep":
        for key in sorted(parameters):
            if key.startswith("sweep_") and parameters[key] is not None:
                target = key[len("sweep_"):]
                if target in sections.get("parameters", {}):
                    line = sections["parameters"][key][1]
                    raise ConfigError(
                        f"{target!r} is both fixed and swept", line=line, key=key
                    )
                sweep_axes[target] = parameters.pop(key)
            elif key.startswith("sweep_"):
                parameters.pop(key)
        if not sweep_axes:
            raise ConfigError(
                "sweep scenario needs at least one sweep_<key> axis", key="sweep_*"
            )
        # base-required keys must be either fixed or swept
        for key, spec in _SCHEMAS[parameters["base"]]["parameters"].items():
            if spec.required and key not in parameters and key not in sweep_axes:
                raise ConfigError(
                    "missing required key in section [parameters]", key=key
                )

    return ScenarioConfig(
        scenario=scenario,
        parameters=parameters,
        sampling=sampling,
        output_prefix=prefix,
        sweep_axes=sweep_axes,
    )


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
