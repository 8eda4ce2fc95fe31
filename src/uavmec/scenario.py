"""Scenario definition, validation, JSON (de)serialization, and generation.

A scenario bundles the UE layout and tasks, the UAV fleet limits, the
channel constants, and the seed used to generate it. Files are JSON with
an explicit ``schema_version``; all quantities are stored in SI base units
with the unit carried in the key name.

Random generation uses numpy's default bit generator (PCG64) seeded
explicitly, so identical seeds reproduce identical scenarios on any
platform.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import ChannelParams

SCHEMA_VERSION = 1

# Fixed per-bit CPU demand used by the default task spec (cycles/bit).
DEFAULT_CYCLES_PER_BIT = 300.0
DEFAULT_DATA_BITS = 1e6        # task input size; not pinned by our parameter set
DEFAULT_TX_POWER_W = 0.1       # 20 dBm
DEFAULT_CPU_HZ = 2e9


class ScenarioError(ValueError):
    """Raised for invalid scenario files or invariant violations."""


def check_integer(value, name, least):
    """``value`` if it is an integer (not a bool) >= ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ScenarioError(f"{name} must be an integer >= {least}, "
                            f"got {value!r}")
    return value


@dataclass(frozen=True)
class Box:
    """Allowed UAV motion range (horizontal rectangle x altitude band)."""

    x_min: float = 0.0
    x_max: float = 100.0
    y_min: float = 0.0
    y_max: float = 100.0
    h_min: float = 40.0
    h_max: float = 80.0

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ScenarioError("box requires x_min < x_max")
        if not self.y_min < self.y_max:
            raise ScenarioError("box requires y_min < y_max")
        if not 0 < self.h_min:
            raise ScenarioError("box requires h_min > 0")
        if not self.h_min <= self.h_max:
            raise ScenarioError("box requires h_min <= h_max")

    def contains_horizontal(self, x, y, tol=1e-9):
        return (self.x_min - tol <= x <= self.x_max + tol
                and self.y_min - tol <= y <= self.y_max + tol)


@dataclass(frozen=True)
class Ue:
    """One ground device: position, task size, CPU demand, uplink power."""

    x: float
    y: float
    data_bits: float
    cycles: float
    tx_power_w: float = DEFAULT_TX_POWER_W

    def __post_init__(self):
        if not self.data_bits > 0:
            raise ScenarioError("data_bits must be > 0")
        if not self.cycles > 0:
            raise ScenarioError("cycles must be > 0")
        if not self.tx_power_w > 0:
            raise ScenarioError("tx_power_w must be > 0")


@dataclass(frozen=True)
class FleetConfig:
    num_uavs: int = 3
    cpu_hz: float = DEFAULT_CPU_HZ
    box: Box = field(default_factory=Box)

    def __post_init__(self):
        check_integer(self.num_uavs, "num_uavs", 1)
        if not self.cpu_hz > 0:
            raise ScenarioError("cpu_hz must be > 0")


@dataclass(frozen=True)
class TaskSpec:
    """How to draw task sizes: fixed data_bits, or uniform in a range."""

    data_bits_min: float = DEFAULT_DATA_BITS
    data_bits_max: float = DEFAULT_DATA_BITS
    cycles_per_bit: float = DEFAULT_CYCLES_PER_BIT
    tx_power_w: float = DEFAULT_TX_POWER_W

    def __post_init__(self):
        if not 0 < self.data_bits_min <= self.data_bits_max:
            raise ScenarioError("task spec requires 0 < data_bits_min <= data_bits_max")
        if not self.cycles_per_bit > 0:
            raise ScenarioError("cycles_per_bit must be > 0")
        if not self.tx_power_w > 0:
            raise ScenarioError("tx_power_w must be > 0")


@dataclass(frozen=True)
class Scenario:
    ues: tuple
    fleet: FleetConfig
    channel: ChannelParams
    seed: int

    def __post_init__(self):
        if len(self.ues) == 0:
            raise ScenarioError("scenario needs at least one UE")
        box = self.fleet.box
        for i, ue in enumerate(self.ues):
            if not box.contains_horizontal(ue.x, ue.y):
                raise ScenarioError(f"ue[{i}] position outside the area box")
        # struct-of-arrays view of the UEs, built once and read-only
        for name, values in (
                ("_positions", [[u.x, u.y] for u in self.ues]),
                ("_data_bits", [u.data_bits for u in self.ues]),
                ("_cycles", [u.cycles for u in self.ues]),
                ("_tx_powers", [u.tx_power_w for u in self.ues])):
            arr = np.array(values)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_ues(self):
        return len(self.ues)

    @property
    def positions(self):
        """(N, 2) array of UE positions."""
        return self._positions

    @property
    def data_bits(self):
        return self._data_bits

    @property
    def cycles(self):
        return self._cycles

    @property
    def tx_powers(self):
        return self._tx_powers


def generate(seed, n_ues, fleet: FleetConfig | None = None,
             channel: ChannelParams | None = None,
             task_spec: TaskSpec | None = None) -> Scenario:
    """Draw a scenario: UE positions i.i.d. uniform over the horizontal box,
    task sizes per task_spec, cycles = cycles_per_bit * data_bits."""
    check_integer(seed, "seed", 0)
    check_integer(n_ues, "n_ues", 1)
    fleet = fleet or FleetConfig()
    channel = channel or ChannelParams()
    task_spec = task_spec or TaskSpec()
    rng = np.random.default_rng(seed)
    box = fleet.box
    xs = rng.uniform(box.x_min, box.x_max, size=n_ues)
    ys = rng.uniform(box.y_min, box.y_max, size=n_ues)
    if task_spec.data_bits_min == task_spec.data_bits_max:
        bits = np.full(n_ues, task_spec.data_bits_min)
    else:
        bits = rng.uniform(task_spec.data_bits_min, task_spec.data_bits_max,
                           size=n_ues)
    ues = tuple(
        Ue(x=float(xs[i]), y=float(ys[i]), data_bits=float(bits[i]),
           cycles=float(task_spec.cycles_per_bit * bits[i]),
           tx_power_w=task_spec.tx_power_w)
        for i in range(n_ues)
    )
    return Scenario(ues=ues, fleet=fleet, channel=channel, seed=int(seed))


def _to_dict(scenario: Scenario) -> dict:
    ch = scenario.channel
    box = scenario.fleet.box
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": scenario.seed,
        "channel": {f.name: getattr(ch, f.name) for f in fields(ch)},
        "fleet": {
            "num_uavs": scenario.fleet.num_uavs,
            "cpu_hz": scenario.fleet.cpu_hz,
            "box": {f"{f.name}_m": getattr(box, f.name) for f in fields(box)},
        },
        "ues": [
            {"x_m": u.x, "y_m": u.y, "data_bits": u.data_bits,
             "cycles": u.cycles, "tx_power_w": u.tx_power_w}
            for u in scenario.ues
        ],
    }


def _get(d, key, where):
    if key not in d:
        raise ScenarioError(f"missing field '{key}' in {where}")
    return d[key]


def _object(d, key, where):
    value = _get(d, key, where)
    if not isinstance(value, dict):
        raise ScenarioError(f"field '{key}' in {where} must be an object")
    return value


def _check_number(value, key, where):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ScenarioError(f"field '{key}' in {where} must be a finite "
                            f"number, got {value!r}")
    return value


def _number(d, key, where):
    return _check_number(_get(d, key, where), key, where)


def _integer(d, key, where, least):
    return check_integer(_get(d, key, where), f"field '{key}' in {where}",
                         least)


def _from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    version = _integer(doc, "schema_version", "document root", 1)
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version}")
    ch = _object(doc, "channel", "document root")
    constants = {f.name: _number(ch, f.name, "channel")
                 for f in fields(ChannelParams)}
    # older writers also stored two unused Rician constants: checked, ignored
    for key in ("rician_a1", "rician_a2"):
        _check_number(ch.get(key, 1.0), key, "channel")
    try:
        channel = ChannelParams(**constants)
    except ValueError as exc:
        raise ScenarioError(f"channel: {exc}") from exc
    fl = _object(doc, "fleet", "document root")
    bx = _object(fl, "box", "fleet")
    box = Box(**{f.name: _number(bx, f"{f.name}_m", "fleet.box")
                 for f in fields(Box)})
    fleet = FleetConfig(num_uavs=_integer(fl, "num_uavs", "fleet", 1),
                        cpu_hz=_number(fl, "cpu_hz", "fleet"), box=box)
    ues = _get(doc, "ues", "document root")
    if not isinstance(ues, list):
        raise ScenarioError("field 'ues' in document root must be a list")
    parsed = []
    for i, u in enumerate(ues):
        where = f"ues[{i}]"
        if not isinstance(u, dict):
            raise ScenarioError(f"{where} must be an object")
        try:
            parsed.append(Ue(x=_number(u, "x_m", where),
                             y=_number(u, "y_m", where),
                             data_bits=_number(u, "data_bits", where),
                             cycles=_number(u, "cycles", where),
                             tx_power_w=_number(u, "tx_power_w", where)))
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    return Scenario(ues=tuple(parsed), fleet=fleet, channel=channel,
                    seed=_integer(doc, "seed", "document root", 0))


def save(scenario: Scenario, path):
    with open(path, "w") as fh:
        json.dump(_to_dict(scenario), fh, indent=2)
        fh.write("\n")


def load(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"parse error in {path}: line {exc.lineno}: {exc.msg}") from exc
    return _from_dict(doc)
