"""Model files (JSON) and observation files (plain text).

Model schema, all indices 0-based:

* HMM:  ``{"type": "hmm", "num_states": N, "num_symbols": M,
  "pi": [...], "A": [[...]], "B": [[...]]}``
* CHMM: ``{"type": "chmm", "chains": [{"states": N_l, "symbols": M_l,
  "pi": [...], "emit": [[...]]}, ...],
  "couplings": [{"from": k, "to": l, "matrix": [[...]]}, ...]}``
* 2TBN: ``{"type": "tbn2", "vars": [{"card": k, "init_parents": [...],
  "init_cpt": [[...]], "trans_parents": [{"slice": 0|1, "var": i}, ...],
  "trans_cpt": [[...]]}, ...]}``

CPT rows enumerate parent configurations in row-major order over the listed
parent sequence.  Observation files hold one sequence per line: symbols
space-separated, and for coupled models the per-chain symbols of one step
joined by commas (e.g. ``0,1 1,1 0,0``).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ModelFormatError
from .models import ChmmModel, HmmModel, Tbn2Model, TbnVariable


_KINDS = {dict: "an object", list: "an array", int: "an integer", str: "a string"}


def _checked(value, kind, what):
    """``value``, after checking that its JSON type is ``kind`` (a key of ``_KINDS``)."""
    if type(value) is not kind:
        got = _KINDS[type(value)] if type(value) in (dict, list) else json.dumps(value)
        raise ModelFormatError(f"{what} must be {_KINDS[kind]}, got {got}")
    return value


def _require(mapping, key, ctx, kind):
    _checked(mapping, dict, ctx)
    if key not in mapping:
        raise ModelFormatError(f'{ctx}: missing required field "{key}"')
    return _checked(mapping[key], kind, f'{ctx}: "{key}"')


def load_model(path):
    """Load and validate a model file; returns HmmModel, ChmmModel, or Tbn2Model."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ModelFormatError(
                f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
            ) from err
    mtype = _require(doc, "type", path, str)
    if mtype == "hmm":
        return _hmm_from_json(doc, path)
    if mtype == "chmm":
        return _chmm_from_json(doc, path)
    if mtype == "tbn2":
        return _tbn2_from_json(doc, path)
    raise ModelFormatError(f"{path}: unknown model type {mtype!r}")


def _pi_and_emissions(doc, ctx, states_key, symbols_key, emit_key):
    """``pi`` and emission rows of an HMM or CHMM chain object, checked against its declared counts."""
    n = _require(doc, states_key, ctx, int)
    m = _require(doc, symbols_key, ctx, int)
    pi = _require(doc, "pi", ctx, list)
    emit = _require(doc, emit_key, ctx, list)
    if len(pi) != n:
        raise ModelFormatError(f'{ctx}: "{states_key}" is {n} but "pi" has length {len(pi)}')
    if emit and type(emit[0]) is list and len(emit[0]) != m:
        raise ModelFormatError(
            f'{ctx}: "{symbols_key}" is {m} but "{emit_key}" rows have length {len(emit[0])}'
        )
    return pi, emit


def _hmm_from_json(doc, ctx):
    pi, emit = _pi_and_emissions(doc, ctx, "num_states", "num_symbols", "B")
    return HmmModel(pi=pi, trans=_require(doc, "A", ctx, list), emit=emit)


def _chmm_from_json(doc, ctx):
    chains = _require(doc, "chains", ctx, list)
    couplings_doc = _require(doc, "couplings", ctx, list)
    initials = []
    emissions = []
    for i, chain in enumerate(chains):
        pi, emit = _pi_and_emissions(chain, f"{ctx}: chain {i}", "states", "symbols", "emit")
        initials.append(pi)
        emissions.append(emit)
    couplings = {}
    for i, entry in enumerate(couplings_doc):
        cctx = f"{ctx}: coupling {i}"
        key = (_require(entry, "from", cctx, int), _require(entry, "to", cctx, int))
        if key in couplings:
            raise ModelFormatError(f"{cctx}: duplicate coupling {key[0]}->{key[1]}")
        couplings[key] = _require(entry, "matrix", cctx, list)
    return ChmmModel(initials=initials, emissions=emissions, couplings=couplings)


def _tbn2_from_json(doc, ctx):
    var_docs = _require(doc, "vars", ctx, list)
    variables = []
    for i, var in enumerate(var_docs):
        vctx = f"{ctx}: var {i}"
        init_parents = _require(var, "init_parents", vctx, list)
        for j, p in enumerate(init_parents):
            _checked(p, int, f'{vctx}: "init_parents" entry {j}')
        trans_parents = []
        for j, parent in enumerate(_require(var, "trans_parents", vctx, list)):
            pctx = f"{vctx}: trans parent {j}"
            trans_parents.append((_require(parent, "slice", pctx, int), _require(parent, "var", pctx, int)))
        variables.append(
            TbnVariable(
                card=_require(var, "card", vctx, int),
                init_parents=init_parents,
                init_cpt=_require(var, "init_cpt", vctx, list),
                trans_parents=trans_parents,
                trans_cpt=_require(var, "trans_cpt", vctx, list),
            )
        )
    return Tbn2Model(variables=variables)


def save_model(model, path) -> None:
    """Write a model as JSON; loading the file reproduces the model exactly."""
    if isinstance(model, HmmModel):
        doc = {
            "type": "hmm",
            "num_states": model.num_states,
            "num_symbols": model.num_symbols,
            "pi": model.pi.tolist(),
            "A": model.trans.tolist(),
            "B": model.emit.tolist(),
        }
    elif isinstance(model, ChmmModel):
        doc = {
            "type": "chmm",
            "chains": [
                {
                    "states": model.states_per_chain[l],
                    "symbols": model.symbols_per_chain[l],
                    "pi": model.initials[l].tolist(),
                    "emit": model.emissions[l].tolist(),
                }
                for l in range(model.num_chains)
            ],
            "couplings": [
                {"from": k, "to": l, "matrix": model.couplings[(k, l)].tolist()}
                for (k, l) in sorted(model.couplings)
            ],
        }
    elif isinstance(model, Tbn2Model):
        doc = {
            "type": "tbn2",
            "vars": [
                {
                    "card": var.card,
                    "init_parents": list(var.init_parents),
                    "init_cpt": var.init_cpt.tolist(),
                    "trans_parents": [{"slice": s, "var": v} for s, v in var.trans_parents],
                    "trans_cpt": var.trans_cpt.tolist(),
                }
                for var in model.variables
            ],
        }
    else:
        raise TypeError(f"cannot save model type {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def parse_obs_line(text, ctx="observation"):
    """Parse one observation sequence from text.

    Space-separated symbol indices; per-chain symbols within one step are
    comma-joined.  Returns a 1-D int array, or (T, L) when commas appear.
    Negative or non-integer tokens are rejected (missing values are not
    supported).
    """
    tokens = text.split()
    if not tokens:
        raise ModelFormatError(f"{ctx}: empty observation sequence")
    if any("," in tok for tok in tokens):
        rows = []
        arity = None
        for step, tok in enumerate(tokens):
            parts = tok.split(",")
            if arity is None:
                arity = len(parts)
            elif len(parts) != arity:
                raise ModelFormatError(
                    f"{ctx}: step {step} has {len(parts)} chain symbols, expected {arity}"
                )
            rows.append([_parse_symbol(p, ctx, step) for p in parts])
        return np.array(rows, dtype=np.int64)
    return np.array([_parse_symbol(tok, ctx, step) for step, tok in enumerate(tokens)], dtype=np.int64)


def _parse_symbol(token, ctx, step):
    try:
        value = int(token)
    except ValueError:
        raise ModelFormatError(
            f"{ctx}: step {step}: {token!r} is not an integer symbol"
        ) from None
    if value < 0:
        raise ModelFormatError(
            f"{ctx}: step {step}: negative symbol {value}; missing observations are not supported"
        )
    return value


def load_observations(path):
    """Read an observation file: one sequence per line, blank lines skipped."""
    sequences = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            sequences.append(parse_obs_line(line, ctx=f"{path}: line {lineno}"))
    if not sequences:
        raise ModelFormatError(f"{path}: no observation sequences found")
    return sequences


def format_obs(seq) -> str:
    """Render one sequence in observation-file syntax."""
    arr = np.asarray(seq)
    if arr.ndim == 1:
        return " ".join(str(int(v)) for v in arr)
    if arr.ndim == 2:
        return " ".join(",".join(str(int(v)) for v in step) for step in arr)
    raise ValueError(f"cannot format observation array of shape {arr.shape}")


def save_observations(sequences, path) -> None:
    """Write sequences to an observation file, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(format_obs(seq))
            fh.write("\n")
