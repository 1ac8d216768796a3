"""Scenario registry: declarative experiment metadata.

Every experiment module declares a :class:`Scenario` — a name, a typed
parameter spec with defaults, a run function and an optional report
renderer — and self-registers at import time. Everything downstream is generated from
this one table:

* ``repro.cli`` builds its subcommands (flags, help, defaults) from the
  param specs instead of hand-rolled parser functions,
* ``repro.experiments.runner`` expands (scenario x seed x param) grids
  over it and executes the cells on a process pool,
* the smoke-test suite iterates every registered scenario at its
  declared smallest parameters.

Each scenario is declared once: its registered ``run`` function takes
exactly the scenario's :class:`Param` names as keywords, none with a
default — a default lives only in its ``Param``, so the CLI, sweeps,
the HTTP API and library callers (``registry.get(name).execute(...)``)
all run the same workload. Seeds are uniform by construction: every
scenario declares a ``seeds`` parameter (a list of ints), so every
subcommand accepts ``--seeds 0 1 2`` and the single-seed alias
``--seed N``; the run function loops over the seeds itself.

The same table is the API surface of the ``repro serve`` daemon
(:mod:`repro.server`): :meth:`Param.schema` / :meth:`Scenario.schema`
export each spec as a JSON-schema fragment (``GET /v1/scenarios``
returns it verbatim, ``repro.server.docgen`` renders it into
``docs/API.md``), and :meth:`Scenario.validate_submission` checks a
decoded JSON submission against the spec — same defaults, same choices,
same list shaping as the CLI, so the HTTP surface can never drift from
the command line.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

#: Module-level registry, keyed by scenario name.
_SCENARIOS: Dict[str, "Scenario"] = {}

#: Canonical presentation order (CLI subcommands, listings). Scenarios
#: not named here are appended in registration order.
_ORDER = ("fig2", "fig3", "churn", "stretch", "loopfree", "proxy",
          "loadbalance", "ablations", "occupancy", "scale", "ping")

#: The experiment modules that self-register scenarios, in the order
#: their subcommands should appear.
_MODULES = (
    "repro.experiments.fig2_latency",
    "repro.experiments.fig3_repair",
    "repro.experiments.churn",
    "repro.experiments.stretch",
    "repro.experiments.loopfree",
    "repro.experiments.broadcast",
    "repro.experiments.loadbalance",
    "repro.experiments.ablations",
    "repro.experiments.occupancy",
    "repro.experiments.scale",
)

_loaded = False

#: Python param types -> JSON-schema scalar type names.
_JSON_TYPES = {int: "integer", float: "number", str: "string",
               bool: "boolean"}

#: JSON-schema scalar type names -> accepted decoded-JSON types.
#: ``bool`` is an ``int`` subclass in Python, so integer/number checks
#: must reject it explicitly; numbers accept ints (JSON has one number
#: type) and coerce them to float.
_ACCEPTS = {"integer": (int,), "number": (int, float), "string": (str,),
            "boolean": (bool,)}


class SubmissionError(ValueError):
    """A job submission does not match the registry's param specs.

    Carries the offending field path (``"sizes"``, ``"set.protocols"``)
    so API error payloads can point at the exact input field.
    """

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path
        self.reason = message


@dataclass(frozen=True)
class Param:
    """One typed scenario parameter, mirrored as a CLI flag."""

    name: str
    type: Callable[[str], Any] = int
    default: Any = None
    nargs: Optional[str] = None
    choices: Optional[Tuple[Any, ...]] = None
    help: str = ""
    #: May be used as a sweep axis (``--set name=v1,v2``).
    sweep: bool = True

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    @property
    def is_list(self) -> bool:
        return self.nargs == "+"

    def parse(self, token: str) -> Any:
        """Coerce one textual value (a sweep-axis token) to this type."""
        value = self.type(token)
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"--{self.name}: {value!r} not in {list(self.choices)}")
        return value

    @property
    def json_type(self) -> str:
        """The JSON-schema scalar type of one item of this parameter."""
        return _JSON_TYPES.get(self.type, "string")

    def schema(self) -> Dict[str, Any]:
        """This parameter as a JSON-schema fragment.

        List parameters (``nargs="+"``) become non-empty arrays; a
        ``None`` default means null is a meaningful value (e.g.
        ``stp_scale``: null = IEEE default timers) and widens the type
        to include ``"null"``.
        """
        item: Dict[str, Any] = {"type": self.json_type}
        if self.choices is not None:
            item["enum"] = list(self.choices)
        out: Dict[str, Any] = (
            {"type": "array", "items": item, "minItems": 1}
            if self.is_list else item)
        if self.default is None:
            out = {"anyOf": [out, {"type": "null"}]}
        if self.help:
            out["description"] = self.help
        out["default"] = copy.copy(self.default)
        return out

    def validate(self, value: Any, field_path: Optional[str] = None
                 ) -> Any:
        """Check one decoded-JSON *value* against this spec.

        Returns the value coerced to the param's Python shape (numbers
        to float for float params, sequences to lists) or raises
        :class:`SubmissionError` naming *field_path*.
        """
        path = field_path if field_path is not None else self.name
        if value is None:
            if self.default is None:
                return None
            raise SubmissionError(path, "null not allowed "
                                        f"(expected {self.json_type})")
        if self.is_list:
            if not isinstance(value, (list, tuple)):
                raise SubmissionError(
                    path, f"expected an array of {self.json_type}")
            if not value:
                raise SubmissionError(path, "array must be non-empty")
            return [self._validate_item(item, f"{path}[{i}]")
                    for i, item in enumerate(value)]
        return self._validate_item(value, path)

    def _validate_item(self, value: Any, path: str) -> Any:
        accepted = _ACCEPTS.get(self.json_type, (str,))
        if isinstance(value, bool) and self.json_type != "boolean":
            raise SubmissionError(
                path, f"expected {self.json_type}, got boolean")
        if not isinstance(value, accepted):
            raise SubmissionError(
                path, f"expected {self.json_type}, "
                      f"got {type(value).__name__}")
        if self.type is float:
            value = float(value)
        if self.choices is not None and value not in self.choices:
            raise SubmissionError(
                path, f"{value!r} not one of {list(self.choices)}")
        return value


def seeds_param(default: Sequence[int] = (0,)) -> Param:
    """The uniform ``seeds`` parameter every scenario declares."""
    return Param(name="seeds", type=int, nargs="+",
                 default=list(default), help="RNG seeds (one run per seed)",
                 sweep=False)


@dataclass(frozen=True)
class Scenario:
    """A registered experiment: param spec + run function."""

    name: str
    title: str
    params: Tuple[Param, ...]
    #: ``run(**{p.name: value})`` -> result object with ``table()`` and
    #: ``records()``; its keywords are exactly the param names, none
    #: with a default.
    run: Callable[..., Any]
    #: Full stdout text for a single CLI run (defaults to ``table()``).
    render: Optional[Callable[[Any], str]] = None
    #: Row fields (beyond strings/bools) identifying a row when
    #: aggregating repeated seeds — e.g. a failure index.
    row_keys: Tuple[str, ...] = ()
    #: Param overrides for the fastest meaningful run (smoke tests).
    smoke: Dict[str, Any] = field(default_factory=dict)

    def param(self, name: str) -> Param:
        for param in self.params:
            if param.name == name:
                return param
        raise KeyError(f"{self.name}: unknown parameter {name!r}")

    def defaults(self) -> Dict[str, Any]:
        """A fresh copy of every parameter's default value."""
        return {p.name: copy.copy(p.default) for p in self.params}

    def bind(self, overrides: Optional[Dict[str, Any]] = None
             ) -> Dict[str, Any]:
        """Defaults merged with *overrides*; unknown names raise."""
        bound = self.defaults()
        for name, value in (overrides or {}).items():
            if name not in bound:
                raise KeyError(
                    f"{self.name}: unknown parameter {name!r} "
                    f"(has: {', '.join(sorted(bound))})")
            param = self.param(name)
            if param.is_list and isinstance(value, tuple):
                value = list(value)
            bound[name] = value
        return bound

    def execute(self, **overrides: Any) -> Any:
        """Run with defaults filled in: ``scenario.execute(probes=5)``."""
        return self.run(**self.bind(overrides))

    def report(self, result: Any) -> str:
        """The single-run stdout text (table plus any epilogue lines)."""
        if self.render is not None:
            return self.render(result)
        return result.table()

    def records(self, result: Any) -> List[Dict[str, Any]]:
        """Flat machine-readable rows for aggregation and artifacts."""
        return result.records()

    def schema(self) -> Dict[str, Any]:
        """This scenario's param spec as a JSON-schema object.

        Every parameter has a registry default, so none is required at
        the scenario level — a submission's required fields live in the
        job-envelope schema (:func:`submission_schema`).

        Scenarios with a protocol choice additionally carry a
        ``families`` section: the per-family config sub-schema
        (:meth:`repro.switching.base.BridgeFamily.describe`) of every
        family the scenario accepts.
        """
        out: Dict[str, Any] = {
            "type": "object",
            "title": self.name,
            "description": self.title,
            "properties": {p.name: p.schema() for p in self.params},
            "additionalProperties": False,
            "required": [],
        }
        choices: List[str] = []
        for param in self.params:
            if param.name in ("protocol", "protocols") and param.choices:
                choices = list(param.choices)
        if choices:
            from repro.switching import base
            out["families"] = {
                fam.name: fam.describe() for fam in base.all_families()
                if fam.name in choices}
        return out

    def validate_submission(self, overrides: Optional[Dict[str, Any]],
                            field_prefix: str = ""
                            ) -> Dict[str, Any]:
        """Check decoded-JSON *overrides* against this scenario's spec.

        Unknown names and type/choices mismatches raise
        :class:`SubmissionError` (with *field_prefix* prepended to the
        offending field path); valid values come back coerced to their
        Python shapes, ready for :meth:`bind`.
        """
        validated: Dict[str, Any] = {}
        for name, value in (overrides or {}).items():
            path = field_prefix + name
            try:
                param = self.param(name)
            except KeyError:
                raise SubmissionError(
                    path, f"unknown parameter of scenario "
                          f"{self.name!r} (has: "
                          f"{', '.join(p.name for p in self.params)})"
                ) from None
            validated[name] = param.validate(value, path)
        return validated


def register(scenario: Scenario) -> Scenario:
    """Add *scenario* to the registry (import-time self-registration)."""
    if scenario.name in _SCENARIOS:
        raise ValueError(f"duplicate scenario: {scenario.name}")
    names = [p.name for p in scenario.params]
    if len(set(names)) != len(names):
        raise ValueError(f"{scenario.name}: duplicate parameter names")
    if "seeds" not in names:
        raise ValueError(f"{scenario.name}: missing the uniform 'seeds' "
                         "parameter (use registry.seeds_param())")
    _SCENARIOS[scenario.name] = scenario
    return scenario


def load_all() -> None:
    """Import every experiment module so it self-registers (idempotent)."""
    global _loaded
    if _loaded:
        return
    import importlib
    for module in _MODULES:
        importlib.import_module(module)
    _loaded = True


def get(name: str) -> Scenario:
    load_all()
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r} "
                       f"(have: {', '.join(names())})") from None


def names() -> List[str]:
    load_all()
    ordered = [name for name in _ORDER if name in _SCENARIOS]
    ordered += [name for name in _SCENARIOS if name not in _ORDER]
    return ordered


def all_scenarios() -> List[Scenario]:
    return [_SCENARIOS[name] for name in names()]


def schema() -> Dict[str, Any]:
    """Every registered scenario's JSON schema, in presentation order.

    This is the payload of ``GET /v1/scenarios`` and the source of
    ``docs/API.md``'s parameter tables — both are generated from the
    same :class:`Param` specs the CLI parses, so none of the three
    surfaces can drift from the others.
    """
    load_all()
    from repro.switching import base
    return {
        "scenarios": [get(name).schema() for name in names()],
        "families": {fam.name: fam.describe()
                     for fam in base.all_families()},
        "submission": submission_schema(),
    }


def submission_schema() -> Dict[str, Any]:
    """The job envelope accepted by ``POST /v1/jobs``.

    ``scenario`` is the one required field; ``seeds`` and the ``set``
    sweep axes default exactly as ``repro sweep`` defaults them, so an
    HTTP submission and the equivalent CLI invocation expand to the
    same grid.
    """
    load_all()
    return {
        "type": "object",
        "title": "job",
        "description": "A sweep-grid submission: scenario x seeds x "
                       "set-axis values, mirroring `repro sweep`.",
        "properties": {
            "scenario": {
                "type": "string",
                "enum": names(),
                "description": "registered scenario to run",
            },
            "seeds": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 1,
                "default": [0],
                "description": "RNG seeds: one run of every grid "
                               "point per seed",
            },
            "set": {
                "type": "object",
                "default": {},
                "description": "sweep axes: scenario parameter name "
                               "-> array of values to grid over "
                               "(`repro sweep --set name=v1,v2`)",
            },
            "jobs": {
                "type": "integer",
                "minimum": 1,
                "default": 1,
                "description": "worker processes for this job's cells "
                               "(capped by the server's --pool)",
            },
            "timeout": {
                "anyOf": [{"type": "number", "exclusiveMinimum": 0},
                          {"type": "null"}],
                "default": None,
                "description": "per-job wall-clock budget in seconds "
                               "(null = the server's --job-timeout)",
            },
            "retries": {
                "type": "integer",
                "minimum": 0,
                "maximum": 10,
                "default": 0,
                "description": "per-cell retry budget: re-run a "
                               "failed or crashed cell up to N extra "
                               "times with deterministic backoff "
                               "(`repro sweep --retries N`)",
            },
        },
        "additionalProperties": False,
        "required": ["scenario"],
    }


def protocols_param(default: Sequence[str], *, loop_safe_only: bool = False,
                    name: str = "protocols", nargs: Optional[str] = "+",
                    sweep: bool = True) -> Param:
    """The ``protocols`` parameter, derived from the family registry.

    Choices and the help string come from the registered
    :class:`~repro.switching.base.BridgeFamily` descriptors, so a newly
    registered family appears in every scenario's CLI/API surface
    without touching the scenario. ``loop_safe_only`` excludes families
    that melt down on loops (the plain learning switch) from scenarios
    whose topologies have them.
    """
    from repro.switching import base
    choices = base.family_names(loop_safe_only=loop_safe_only)
    help_text = ("bridge famil{y} to compare: "
                 .format(y="ies" if nargs == "+" else "y")
                 + ", ".join(choices))
    if loop_safe_only:
        help_text += " (loop-safe families only)"
    return Param(name=name, type=str,
                 default=list(default) if nargs == "+" else default,
                 nargs=nargs, choices=choices, help=help_text, sweep=sweep)


def protocol_specs(names: Iterable[str],
                   stp_scale: Optional[float] = None) -> List[Any]:
    """Map protocol *names* to :class:`ProtocolSpec` objects.

    ``stp_scale`` applies to the ``stp`` entry only (None = IEEE default
    timers) — each scenario passes whatever its pre-registry CLI used.
    """
    from repro.experiments.common import spec
    specs = []
    for name in names:
        if name == "stp" and stp_scale is not None:
            specs.append(spec("stp", stp_scale=stp_scale))
        else:
            specs.append(spec(name))
    return specs
