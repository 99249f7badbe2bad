"""Command-line interface.

Subcommands: check, angles, volume, sweep, validate.  Input is a JSON
document with the six edge lengths (or the --edges inline form); output is
a JSON document on stdout (a CSV table for sweep), diagnostics on stderr.

Exit codes are a stable contract:
    0   success
    2   the lengths do not bound a compact tetrahedron (or the request is
        unanswerable at a degenerate configuration)
    64  malformed input or usage, or lengths outside the domain of an
        oracle that `validate` or `volume --validate` runs
    70  internal numerical failure
    74  stdout could not be written (a closed pipe, a full disk)
"""

from __future__ import annotations

import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from types import SimpleNamespace

from .config import (ANGLE_GAP_LIMIT, JACOBI_LIMIT, MC_SAMPLES, MC_SEED, MC_Z_LIMIT,
                     ROUTE_GAP_LIMIT, SCHLAFLI_LIMIT)
# unused here (the report builds E, C and the angles): hytetbench's tracer wraps these names here
from .angles import dihedral_angles
from .core import EDGE_KEYS, EdgeLengths, cofactors, edge_matrix_from_lengths, jacobi_residuals
from .errors import (
    DomainError,
    ExistenceError,
    HytetError,
    NotATetrahedronError,
    NumericalError,
)
from .existence import exists

# name: the module it comes from.  The commands past `angles` import these
# (_import_routes), so that `check` and `angles` load neither module; reading
# one here before that, as a tracer or a test does, imports it as well.
_ROUTES = {
    "schlafli_residual": "volume", "volume_edges": "volume", "volume_profile": "volume",
    "volume_sforza": "volume", "MonteCarloConfig": "oracle", "dihedral_angles_geometric": "oracle",
    "embed_vertices": "oracle", "volume_monte_carlo": "oracle",
}


def __getattr__(name: str):
    """A name of _ROUTES, imported and bound here on first access (PEP 562)."""
    if name not in _ROUTES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__package__}.{_ROUTES[name]}")
    return globals().setdefault(name, getattr(module, name))


def _import_routes() -> None:
    """Bind here every name of _ROUTES not bound yet.  Any bound name stays,
    as a tracer or a test may have replaced it.  A request that finds them
    all bound skips the import machinery: __getattr__ on each name would
    cost about 18 us, a fifth of an in-process `volume` request."""
    bound = globals()
    for name in _ROUTES:
        if name not in bound:
            __getattr__(name)


EXIT_OK = 0
EXIT_NOT_A_TETRAHEDRON = 2
EXIT_USAGE = 64
EXIT_NUMERICAL = 70
EXIT_IO = 74  # EX_IOERR, as 64 and 70 come from sysexits

DEFAULT_SWEEP_SAMPLES = 33


class _UsageError(Exception):
    pass


def _format_value(v) -> str:
    """JSON text of a scalar; floats at 17 significant digits, "inf", "-inf" or null."""
    if isinstance(v, float):
        if math.isfinite(v):
            return "%.17g" % v
        return "null" if math.isnan(v) else ('"inf"' if v > 0 else '"-inf"')
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    raise TypeError(f"unserializable value {v!r}")


def _dump_json(obj) -> str:
    """JSON with floats at 17 significant digits, two-space indented."""
    parts: list[str] = []
    _write_json(obj, "\n", parts)
    return "".join(parts)


def _write_json(obj, pad: str, parts: list[str], slot: str | None = None) -> None:
    """Append the JSON text of obj to parts, pad starting each line; a slot replaces each scalar."""
    if isinstance(obj, dict):
        inner, sep = pad + "  ", "{"
        for k, v in obj.items():
            parts.append(f"{sep}{inner}{encode_basestring_ascii(str(k))}: ")
            _write_json(v, inner, parts, slot)
            sep = ","
        parts.append(pad + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = pad + "  ", "["
        for v in obj:
            parts.append(sep + inner)
            _write_json(v, inner, parts, slot)
            sep = ","
        parts.append(pad + "]" if obj else "[]")
    else:
        parts.append(_format_value(obj) if slot is None else slot)


def _parse_inline_edges(text: str) -> dict:
    out = {}
    for part in text.split(","):
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq:  # a blank part is skipped
            if key:
                raise _UsageError(f"bad inline edge assignment {key!r}")
        elif key in out:
            raise _UsageError(f"edge {key} given more than once")
        else:
            out[key] = value.strip()
    return out


def _json_object(pairs: list) -> dict:
    """A JSON object of the input document; a key given twice is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()  # set.add returns None: the first key met twice is next's
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise _UsageError(f"edge {key} given more than once" if key in EDGE_KEYS
                          else f"key {key!r} given more than once")
    return obj


def _load_document(args) -> dict:
    if args.edges and args.input:
        raise _UsageError("give either an input document or --edges, not both")
    if args.edges:
        return {"edges": _parse_inline_edges(args.edges)}
    if not args.input:
        raise _UsageError("no input: pass a JSON document path, '-', or --edges")
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _UsageError(f"cannot read input file: {e}")
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, an integer past the digit limit, or too deep nesting
        raise _UsageError(f"input is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise _UsageError("input document must be a JSON object")
    # accept either a bare input document or a previous output document
    if "edges" not in doc and isinstance(doc.get("input"), dict):
        doc = doc["input"]
    if "config" in doc:  # settings come from flags alone
        raise _UsageError('the input document takes no "config"')
    return doc


def _decimal(cast):
    """cast for numbers other than bool and for ASCII text without underscores:
    float and Decimal also read "1_0" as 10, and fullwidth or Arabic-Indic digits."""
    def parse(raw):
        if isinstance(raw, bool) or isinstance(raw, str) and (not raw.isascii() or "_" in raw):
            raise ValueError(raw)
        return cast(raw)
    return parse


def _whole(text: str) -> int:
    """The integer decimal text names, read exactly: "2000.0" and "2e3" are
    2000; "1.5", "nan" and past int()'s 4,300 digits raise."""
    from decimal import Context, Decimal

    value = Decimal(text, Context(traps=[]))
    if not value.is_finite() or value != value.to_integral_value() or value.adjusted() >= 4300:
        raise ValueError(text)  # Decimal reads malformed text as NaN
    return int(value)


_float, _int = _decimal(float), _decimal(_whole)
_EDGE_SET = frozenset(EDGE_KEYS)


def _lengths_from_document(doc: dict) -> EdgeLengths:
    edges = doc.get("edges")
    if not isinstance(edges, dict):
        raise _UsageError('input document needs an "edges" object')
    if edges.keys() != _EDGE_SET:
        unknown = sorted(set(edges) - _EDGE_SET)
        missing = [k for k in EDGE_KEYS if k not in edges]
        raise _UsageError(f"unknown edge names: {', '.join(unknown)}" if unknown
                          else f"missing edge names: {', '.join(missing)}")
    values = []
    for key in EDGE_KEYS:
        raw = edges[key]
        try:
            values.append(_float(raw))
        except (TypeError, ValueError, OverflowError):
            raise _UsageError(f"edge {key} does not parse as a number: {raw!r}")
    return EdgeLengths(*values)  # DomainError on a negative or non-finite length


_FLAGS = ("exists", "degenerate", "tri_123_ok", "tri_124_ok", "l34_in_range")
_BOUNDS = ("C", "S", "l1", "l2", "clamped_sqrt")
_flags, _bounds = attrgetter(*_FLAGS), attrgetter(*_BOUNDS)
_TEMPLATES: dict[tuple, str] = {}  # document shape: its JSON line, a %s for each scalar


def _report_doc(command: str, report) -> dict:
    """Opening keys of a command's output document; the exit-2 "error" one has no input echo."""
    echo = {} if command == "error" else {"input": {"edges": report.lengths.as_dict()}}
    return {**echo, "command": command, "existence": _existence_block(report)}


def _existence_block(report) -> dict:
    block = dict(zip(_FLAGS, _flags(report)))
    block.update(failed=list(report.failed), slacks=dict(report.slacks))
    if report.bounds is not None:
        block["bounds"] = dict(zip(_BOUNDS, _bounds(report.bounds)))
    return block


def _emit_report(command: str, report, out, blocks=dict, leaves=()) -> None:
    """Print command's document on report: _report_doc's keys, then those of
    blocks(), whose scalars in order are leaves.  The JSON fills a template cached
    per shape: command, the report's failure count and whether it has bounds."""
    shape = (command, len(report.failed), report.bounds is None)
    if shape not in _TEMPLATES:  # JSON text escapes NUL, so each NUL left marks a scalar
        parts = []
        _write_json({**_report_doc(command, report), **blocks()}, "\n", parts, "\0")
        _TEMPLATES[shape] = "".join(parts).replace("%", "%%").replace("\0", "%s") + "\n"
    bounds = () if report.bounds is None else _bounds(report.bounds)
    echo = () if command == "error" else report.lengths.as_tuple()
    leaves = (*echo, command, *_flags(report), *report.failed, *report.slacks.values(), *bounds,
              *leaves)
    out.write(_TEMPLATES[shape] % tuple(map(_format_value, leaves)))


def _warn_unconverged(err, converged: bool, what: str) -> None:
    if not converged:
        print(f"hytet: warning: {what} stopped at the quadrature's panel cap, "
              "short of the tolerance", file=err)


def _volume_block(res, err) -> dict:
    _warn_unconverged(err, res.diagnostics.get("converged", True), f"the {res.route} volume")
    return {
        "value": res.value,
        "error_estimate": res.error_estimate,
        "evaluations": res.evaluations,
        "route": res.route,
        "diagnostics": dict(res.diagnostics),
    }


def _angles_block(report) -> dict:
    C, th = report.cofactors, report.angles
    radians = th.as_dict()
    block = {
        "radians": radians,
        "degrees": {k: math.degrees(v) for k, v in radians.items()},
        "clamped": th.clamped,
    }
    diagnostics = {
        "delta": C.delta,
        "cofactor_diagonal": list(C.diagonal),
    }
    return {"angles": block, "diagnostics": diagnostics}


def _cmd_check(report, args, out, err) -> int:
    _emit_report("check", report, out)
    return EXIT_OK if report.exists else EXIT_NOT_A_TETRAHEDRON


def _cmd_angles(report, args, out, err) -> int:
    if not report.exists:
        raise ExistenceError.from_report(report)
    C, th = report.cofactors, report.angles
    radians = th.as_tuple()  # then _angles_block's scalars in its order
    _emit_report("angles", report, out, lambda: _angles_block(report),
                 (*radians, *map(math.degrees, radians), th.clamped, C.delta, *C.diagonal))
    return EXIT_OK


def _check(value: float, limit: float, key: str = "value") -> dict:
    return {key: value, "limit": limit, "pass": value < limit}


def _oracle(route, *args):
    """route(*args) for an oracle of the battery.  exists has accepted the
    lengths, so an oracle's "not a tetrahedron" says only that they lie
    outside its domain: it is refused as a DomainError naming the oracle."""
    try:
        return route(*args)
    except NotATetrahedronError as e:
        raise DomainError(f"the lengths lie outside the domain of the oracle "
                          f"{route.__name__}: {e}") from e


def _battery(command: str, report, err):
    """The cross-route battery `validate` and `volume --validate` share.

    Runs each route once, in one order: the edge volume, E, the cofactors
    and angles, the Sforza volume, the embedding, Monte Carlo at MC_SEED
    and MC_SAMPLES; where two fail, the first one is reported, a refusal by
    one of the last three as a DomainError (_oracle).  Returns the document
    with the three volume blocks and the angles, the edge volume's gaps to
    the Sforza volume and, in standard errors, to the Monte Carlo one, and
    the embedding it built; E, C and the angles stay on the report.
    """
    res = volume_edges(report)
    blocks = _angles_block(report)
    sf = _oracle(volume_sforza, report.angles)
    emb = _oracle(embed_vertices, report.edge_matrix)
    mc = _oracle(volume_monte_carlo, emb, MonteCarloConfig(MC_SEED, MC_SAMPLES))
    doc = _report_doc(command, report)
    doc["volume"] = {"edge_integral": _volume_block(res, err),
                     "sforza": _volume_block(sf, err), "monte_carlo": _volume_block(mc, err)}
    doc.update(blocks)
    z = abs(res.value - mc.value) / mc.error_estimate if mc.error_estimate else 0.0
    return doc, abs(res.value - sf.value), z, emb


def _cmd_volume(report, args, out, err) -> int:
    if not args.validate:
        res = volume_edges(report)
        block = _volume_block(res, err)
        _emit_report("volume", report, out, lambda: {"volume": {"edge_integral": block}},
                     (res.value, res.error_estimate, res.evaluations, res.route,
                      *res.diagnostics.values()))
        return EXIT_OK
    doc, gap, z, _ = _battery("volume", report, err)
    doc["agreement"] = {"edge_vs_sforza": _check(gap, ROUTE_GAP_LIMIT, "gap"),
                        "monte_carlo_z": _check(z, MC_Z_LIMIT, "z")}
    print(_dump_json(doc), file=out)
    return EXIT_OK


def _cmd_sweep(report, args, out, err) -> int:
    profile = volume_profile(report, args.samples)
    _warn_unconverged(err, profile.converged, "a sweep segment's volume")
    print("t,dVdt,V", file=out)
    for row in profile:
        print(",".join(format(v, ".17g") for v in row), file=out)  # inf prints as inf
    return EXIT_OK


def _cmd_validate(report, args, out, err) -> int:
    doc, route_gap, z, emb = _battery("validate", report, err)
    th_geo = _oracle(dihedral_angles_geometric, emb)
    angle_gap = max(abs(a - b) for a, b in zip(report.angles.as_tuple(), th_geo.as_tuple()))
    jacobi = jacobi_residuals(report.edge_matrix, report.cofactors).max_relative
    checks = {
        "jacobi_max_relative": _check(jacobi, JACOBI_LIMIT),
        "angle_routes_max_gap": _check(angle_gap, ANGLE_GAP_LIMIT),
        "edge_vs_sforza": _check(route_gap, ROUTE_GAP_LIMIT),
        "monte_carlo_z": _check(z, MC_Z_LIMIT),
    }
    l34 = report.lengths.l34
    h = 1e-5 * min(1.0, l34)  # the residual's h^2 term grows as the edges shrink
    if not report.degenerate and l34 + h < report.bounds.l2:
        resid, converged = schlafli_residual(report, h)
        _warn_unconverged(err, converged, "the Schlafli residual's volume step")
        checks["schlafli_residual"] = _check(resid, SCHLAFLI_LIMIT)
    doc["checks"] = checks
    doc["pass"] = all(c["pass"] for c in checks.values())
    print(_dump_json(doc), file=out)
    return EXIT_OK if doc["pass"] else EXIT_NUMERICAL


# command: (handler, description)
_COMMANDS = {
    "check": (_cmd_check, "existence test and admissible interval for l34"),
    "angles": (_cmd_angles, "all six dihedral angles"),
    "volume": (_cmd_volume, "volume by the edge-length integral"),
    "sweep": (_cmd_sweep, "table of (t, dV/dt, V) across the admissible interval"),
    "validate": (_cmd_validate, "full property battery with independent oracles"),
}
# option: (attribute, value parser or None for a flag, help, the commands that
# take it or None for every one); one table parses argv and writes the usage text
_OPTIONS = {
    "--edges": ("edges", str, "inline lengths: l12=..,l13=..,l14=..,l23=..,l24=..,l34=..", None),
    "--validate": ("validate", None, "add Sforza and Monte Carlo cross-checks", ("volume",)),
    "--samples": ("samples", _int, f"grid size (default {DEFAULT_SWEEP_SAMPLES})", ("sweep",)),
    "--help": ("help", None, "print this usage text and exit (also -h)", None),
}
_TABLES = {command: {name: spec for name, spec in _OPTIONS.items()
                     if spec[3] is None or command in spec[3]} for command in _COMMANDS}


def _help(command) -> str:
    """Usage text of one command, or of hytet itself when command is None."""
    rows = ([(name, text) for name, (_, text) in _COMMANDS.items()] if command is None else
            [("input", "JSON input document path, or - for stdin")]
            + [(name if parse is None else f"{name} {attr.upper()}", text)
               for name, (attr, parse, text, _) in _TABLES[command].items()])
    head = (f"{command} [options] [input]\n\n{_COMMANDS[command][1]}" if command else
            "COMMAND [options] [input]\n\nCompact hyperbolic tetrahedra from edge lengths: "
            "existence, dihedral angles, and volume; 'hytet COMMAND -h' lists the options.")
    return f"usage: hytet {head}\n\n" + "\n".join(f"  {a:<24}{b}" for a, b in rows)


def _parse_args(argv: list[str], out):
    """The request's command, input (a path, - for stdin, or None) and one
    attribute per option.  `--name value` and `--name=value` both set an
    option named in full, the last one wins, and `--` ends the options.  On
    -h or --help the usage text goes to out and the result is None."""
    command = argv[0] if argv else ""
    if command not in _COMMANDS:
        if command[:1] != "-":
            raise _UsageError(f"expected a command ({', '.join(_COMMANDS)}), got {command!r}")
        if command not in ("-h", "--help"):
            raise _UsageError(f"unrecognized option {command}")
        print(_help(None), file=out)
        return None
    table, inputs, tokens = _TABLES[command], [], iter(argv[1:])
    args = SimpleNamespace(command=command, edges=None, validate=False,
                           samples=DEFAULT_SWEEP_SAMPLES)
    for token in tokens:
        if token == "--":
            inputs += tokens  # every later token, dashes or not
        elif token[:1] != "-" or token == "-":
            inputs.append(token)
        else:
            name, eq, value = token.partition("=")
            spec = table.get("--help" if name == "-h" else name)
            if spec is None:
                raise _UsageError(f"unrecognized option {name}")
            attr, parse, _, _ = spec
            if parse is None and eq:
                raise _UsageError(f"{name} takes no value")
            if attr == "help":
                print(_help(command), file=out)
                return None
            try:
                value = next(tokens) if parse is not None and not eq else value
                setattr(args, attr, True if parse is None else parse(value))
            except (StopIteration, ValueError):
                raise _UsageError(f"bad or missing value for {name}: {value!r}")
    if len(inputs) > 1:
        raise _UsageError("give at most one input document")
    args.input = inputs[0] if inputs else None
    return args


def run(argv: list[str], stdout=None, stderr=None) -> int:
    """Execute the CLI; returns the exit code instead of exiting."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _parse_args(argv, out)
        if args is None:
            return EXIT_OK
        doc = _load_document(args)
        lengths = _lengths_from_document(doc)
        if args.command not in ("check", "angles"):
            _import_routes()
        return _COMMANDS[args.command][0](exists(lengths), args, out, err)
    except (_UsageError, DomainError) as e:
        print(f"hytet: input error: {e}", file=err)
        return EXIT_USAGE
    except NotATetrahedronError as e:
        print(f"hytet: not a tetrahedron: {e}", file=err)
        if getattr(e, "report", None) is not None:  # an ExistenceError's report
            _emit_report("error", e.report, out)
        return EXIT_NOT_A_TETRAHEDRON
    except (NumericalError, OverflowError) as e:
        print(f"hytet: numerical failure: {e}", file=err)
        return EXIT_NUMERICAL
    except HytetError as e:
        print(f"hytet: error: {e}", file=err)
        return EXIT_NUMERICAL


def main() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # Monte Carlo splits its own blocks
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as e:  # stdout to devnull: the flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        try:
            print(f"hytet: output error: {e.strerror}", file=sys.stderr)
        except OSError:
            pass
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    main()
