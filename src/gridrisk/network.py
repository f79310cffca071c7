"""Grid case parsing and DC measurement-model assembly.

A case file describes buses, lines and a measurement plan.  From it we build
the linear DC measurement model

    z = H x + e,

where x holds the voltage phase angles at every bus except the reference and
H stacks line flow rows (measured at either end) and bus injection rows.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

MEASUREMENT_KINDS = ("flow_from", "flow_to", "injection")

# Relative tolerance for the rank-revealing factorization used in the
# observability check: singular values below RANK_RTOL * largest are zero.
RANK_RTOL = 1e-8


class CaseValidationError(ValueError):
    """Raised when a case document violates the schema or its invariants."""


class UnobservableError(ValueError):
    """Raised when a measurement set cannot determine the full state."""


@dataclass(frozen=True)
class Bus:
    id: int
    reference: bool = False


@dataclass(frozen=True)
class Line:
    id: int
    from_bus: int
    to_bus: int
    reactance: float


@dataclass(frozen=True)
class Measurement:
    """One row of the measurement plan.

    kind is one of flow_from / flow_to / injection; element is the line id
    for flow measurements and the bus id for injections.
    """

    kind: str
    element: int
    sigma: float


@dataclass(frozen=True)
class GridCase:
    base_mva: float
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    measurements: tuple[Measurement, ...]

    def __post_init__(self):
        _validate_case(self)

    @property
    def reference_bus(self) -> int:
        return next(b.id for b in self.buses if b.reference)


def _require_keys(doc: dict, allowed: dict, where: str):
    """Check that doc has exactly the required keys and no unknown ones.

    allowed maps key name -> required flag.  Unknown keys are rejected so a
    typo in a case file fails loudly instead of being silently ignored.
    """
    unknown = set(doc) - set(allowed)
    if unknown:
        raise CaseValidationError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k, required in allowed.items() if required and k not in doc]
    if missing:
        raise CaseValidationError(f"{where}: missing keys {missing}")


def _validate_case(case: GridCase):
    # a chained comparison with inf is false for NaN and for inf itself
    if not 0.0 < case.base_mva < math.inf:
        raise CaseValidationError("base_mva must be positive and finite")
    if not case.buses:
        raise CaseValidationError("case declares no buses")
    bus_ids = [b.id for b in case.buses]
    if len(set(bus_ids)) != len(bus_ids):
        raise CaseValidationError("duplicate bus ids")
    refs = [b.id for b in case.buses if b.reference]
    if len(refs) != 1:
        raise CaseValidationError(
            f"exactly one reference bus required, found {len(refs)}"
        )
    line_ids = [ln.id for ln in case.lines]
    if len(set(line_ids)) != len(line_ids):
        raise CaseValidationError("duplicate line ids")
    known = set(bus_ids)
    for ln in case.lines:
        if ln.from_bus not in known or ln.to_bus not in known:
            raise CaseValidationError(
                f"line {ln.id}: endpoint not among declared buses"
            )
        if ln.from_bus == ln.to_bus:
            raise CaseValidationError(f"line {ln.id}: from and to bus coincide")
        if not 0.0 < ln.reactance < math.inf:
            raise CaseValidationError(f"line {ln.id}: reactance must be positive and finite")
    if not case.measurements:
        raise CaseValidationError("measurement plan is empty")
    lines_by_id = {ln.id: ln for ln in case.lines}
    for k, meas in enumerate(case.measurements):
        where = f"measurement {k + 1}"
        if meas.kind not in MEASUREMENT_KINDS:
            raise CaseValidationError(f"{where}: unknown kind {meas.kind!r}")
        if meas.kind == "injection":
            if meas.element not in known:
                raise CaseValidationError(f"{where}: unknown bus {meas.element}")
        elif meas.element not in lines_by_id:
            raise CaseValidationError(f"{where}: unknown line {meas.element}")
        if not 0.0 < meas.sigma < math.inf:
            raise CaseValidationError(f"{where}: sigma must be positive and finite")


_KIND_NAMES = {numbers.Integral: "an integer", numbers.Real: "a number",
               bool: "true or false", list: "a list", dict: "an object"}


def _checked(value, kind: type, where: str):
    """value, if it is an instance of kind.  A bool is only ever a bool,
    so JSON true is neither an id nor a number."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise CaseValidationError(
            f"{where} must be {_KIND_NAMES[kind]}, not {type(value).__name__}"
        )
    return value


def _entries(doc: dict, key: str, allowed: dict):
    """(where, entry) for each object of the list doc[key], keys checked."""
    for i, entry in enumerate(_checked(doc[key], list, key)):
        where = f"{key}[{i}]"
        _require_keys(_checked(entry, dict, where), allowed, where)
        yield where, entry


def load_case(document) -> GridCase:
    """Parse a case from a JSON string or an already-decoded dict."""
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise CaseValidationError(f"case file is not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise CaseValidationError("case document must be a JSON object")
    _require_keys(
        doc,
        {"base_mva": True, "buses": True, "lines": True, "measurements": True},
        "case",
    )

    def integer(entry, key, where):
        return int(_checked(entry[key], numbers.Integral, f"{where}.{key}"))

    def number(entry, key, where):
        return float(_checked(entry[key], numbers.Real, f"{where}.{key}"))

    buses = [
        Bus(id=integer(b, "id", where),
            reference=_checked(b.get("reference", False), bool, f"{where}.reference"))
        for where, b in _entries(doc, "buses", {"id": True, "reference": False})
    ]
    lines = [
        Line(id=integer(ln, "id", where), from_bus=integer(ln, "from", where),
             to_bus=integer(ln, "to", where), reactance=number(ln, "reactance", where))
        for where, ln in _entries(
            doc, "lines", {"id": True, "from": True, "to": True, "reactance": True})
    ]
    measurements = [
        Measurement(kind=str(ms["kind"]), element=integer(ms, "element", where),
                    sigma=number(ms, "sigma", where))
        for where, ms in _entries(
            doc, "measurements", {"kind": True, "element": True, "sigma": True})
    ]
    return GridCase(
        base_mva=number(doc, "base_mva", "case"),
        buses=tuple(buses),
        lines=tuple(lines),
        measurements=tuple(measurements),
    )


def load_case_file(path) -> GridCase:
    with open(path, "r", encoding="utf-8") as fh:
        return load_case(fh.read())


def bundled_case_names() -> tuple[str, ...]:
    root = importlib.resources.files("gridrisk.cases")
    return tuple(
        sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))
    )


def load_bundled_case(name: str) -> GridCase:
    """Load one of the case files shipped with the package."""
    res = importlib.resources.files("gridrisk.cases").joinpath(f"{name}.json")
    if not res.is_file():
        raise CaseValidationError(
            f"no bundled case named {name!r}; available: {', '.join(bundled_case_names())}"
        )
    return load_case(res.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class GridModel:
    """Immutable DC measurement model built from a case.

    Fields follow the construction H = P @ stack(W B^T; -W B^T; B0 W B^T):
    incidence_full is the (n+1) x n_t directed incidence B0 (+1 at the from
    bus, -1 at the to bus), incidence_truncated drops the reference-bus row,
    line_weights is diag(1/reactance), and selector is the 0/1 row-selection
    matrix P picking the measured subset of the 2 n_t + n + 1 candidate rows.
    """

    n: int
    n_t: int
    m: int
    H: np.ndarray
    incidence_full: np.ndarray
    incidence_truncated: np.ndarray
    line_weights: np.ndarray
    selector: np.ndarray
    measurement_labels: tuple[tuple[str, int], ...]
    state_bus_ids: tuple[int, ...]
    sigma: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        for arr in (
            self.H,
            self.incidence_full,
            self.incidence_truncated,
            self.line_weights,
            self.selector,
            self.sigma,
        ):
            arr.setflags(write=False)

    def injection_rows(self) -> np.ndarray:
        """Indices (0-based) of the injection rows of H."""
        return np.array(
            [i for i, (kind, _) in enumerate(self.measurement_labels) if kind == "injection"],
            dtype=int,
        )


def _assemble_matrix(selector, incidence_full, incidence_truncated, weights):
    """H = P @ stack(W B^T; -W B^T; B0 W B^T).

    The candidate rows come in fixed stacking order: flows at the from
    ends, flows at the to ends, then injections at every bus.  The true
    model and every perturbed one are assembled here, in one order of
    operations, so a zero perturbation gives the true H bit for bit.
    """
    b_t = incidence_truncated.T
    return selector @ np.vstack(
        [weights @ b_t, -(weights @ b_t), incidence_full @ weights @ b_t]
    )


def build_model(case: GridCase) -> GridModel:
    n_bus = len(case.buses)
    n = n_bus - 1
    n_t = len(case.lines)
    m = len(case.measurements)

    bus_pos = {b.id: k for k, b in enumerate(case.buses)}
    line_pos = {ln.id: k for k, ln in enumerate(case.lines)}
    ref_pos = bus_pos[case.reference_bus]

    b0 = np.zeros((n_bus, n_t))
    for k, ln in enumerate(case.lines):
        b0[bus_pos[ln.from_bus], k] = 1.0
        b0[bus_pos[ln.to_bus], k] = -1.0
    b_trunc = np.delete(b0, ref_pos, axis=0)
    weights = np.diag([1.0 / ln.reactance for ln in case.lines])

    selector = np.zeros((m, 2 * n_t + n_bus))
    sigma = np.zeros(m)
    labels = []
    for i, meas in enumerate(case.measurements):
        if meas.kind == "flow_from":
            selector[i, line_pos[meas.element]] = 1.0
        elif meas.kind == "flow_to":
            selector[i, n_t + line_pos[meas.element]] = 1.0
        else:
            selector[i, 2 * n_t + bus_pos[meas.element]] = 1.0
        sigma[i] = meas.sigma
        labels.append((meas.kind, meas.element))

    h = _assemble_matrix(selector, b0, b_trunc, weights)

    rank = matrix_rank(h)
    if rank < n:
        raise UnobservableError(
            f"measurement plan leaves the state unobservable (rank {rank} < {n})"
        )

    state_bus_ids = tuple(b.id for k, b in enumerate(case.buses) if k != ref_pos)
    return GridModel(
        n=n,
        n_t=n_t,
        m=m,
        H=h,
        incidence_full=b0,
        incidence_truncated=b_trunc,
        line_weights=weights,
        selector=selector,
        measurement_labels=tuple(labels),
        state_bus_ids=state_bus_ids,
        sigma=sigma,
    )


def matrix_rank(a: np.ndarray) -> int:
    """Rank via SVD with the module-wide relative tolerance."""
    if a.size == 0:
        return 0
    svals = np.linalg.svd(a, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_RTOL * svals[0]))


@dataclass(frozen=True)
class MeasurementSnapshot:
    """A synthesized measurement vector together with its provenance."""

    z: np.ndarray
    x_true: np.ndarray
    seed: int

    def __post_init__(self):
        self.z.setflags(write=False)
        self.x_true.setflags(write=False)


def synthesize_measurements(
    model: GridModel, x_true, seed: int, noise_scale: float = 1.0
) -> MeasurementSnapshot:
    """Draw z = H x_true + e with e ~ N(0, noise_scale^2 diag(sigma^2)), seeded.

    noise_scale=0 gives the exact noise-free measurement vector; the case
    sigmas themselves must stay strictly positive for estimation.
    """
    x_true = np.asarray(x_true, dtype=float)
    if x_true.shape != (model.n,):
        raise ValueError(f"x_true must have shape ({model.n},)")
    rng = np.random.default_rng(seed)
    noise = noise_scale * rng.normal(0.0, 1.0, size=model.m) * model.sigma
    return MeasurementSnapshot(z=model.H @ x_true + noise, x_true=x_true, seed=seed)
