"""Command-line surface tying the pipeline together.

Subcommands: ``doe`` (factors JSON -> design CSV), ``run`` (experiment config
-> results CSV + report JSON), ``analyze test|fit|pareto|outliers|eda``,
``model search|train|predict|smote``, ``geo convert|to-ecef|to-geodetic|
distance``, and ``casestudy navigation`` (the navigation experiment, run by
the same campaign code as ``run``, then fitted and plotted).

Exit codes: 0 success, 1 usage error, 2 data/contract error.  Diagnostics go
to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import simkit
from .analysis import (
    detect_outliers,
    eda_summary,
    emit_plot,
    fit_distributions,
    pareto_front,
    run_hypothesis_test,
)
from .analysis.features import pearson_r
from .doe import Design, lhs_design, load_factors, write_design
from .errors import (
    CommandParser,
    ConfigurationError,
    ContractViolationError,
    InvalidArgumentError,
    run_command,
)
from .execution import (
    ExecutionReport,
    SubprocessRunner,
    get_runner,
    mean_convergence_criterion,
    run_batches,
)
from .geo import (
    EcefCoord,
    GeodeticCoord,
    convert_unit,
    distance_bearing,
    ecef_to_geodetic,
    geodetic_to_ecef,
)
from .models import (
    ModelSpec,
    default_spec,
    fit_preprocessor,
    load_model,
    random_search_cv_table,
    save_model,
    smote,
    train,
)
from .models.preprocess import class_codes, regression_targets
from .models.spec import FAMILIES as MODEL_FAMILIES
from .schema import TEXT, Rule, check, either, fail, integer, obj, real
from .tables import (
    RESERVED_INDEX,
    RESERVED_STATUS,
    STATUS_FAILED,
    STATUS_OK,
    DataColumn,
    ResultTable,
    columns_from_table,
    write_csv_columns,
)

__all__ = ["main", "dispatch"]


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_json(doc: dict, path: str | None) -> None:
    if path:
        _write_json(doc, path)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _load_columns(path) -> list[DataColumn]:
    return columns_from_table(ResultTable.from_csv(path), ok_only=True)


def _column(columns: list[DataColumn], name: str) -> DataColumn:
    for c in columns:
        if c.name == name:
            return c
    raise InvalidArgumentError(f"no column named {name!r} in the input table")


# -- doe -----------------------------------------------------------------------


def _cmd_doe(args) -> int:
    factors = load_factors(args.factors)
    design = lhs_design(factors, args.n, args.seed)
    write_design(design, args.out)
    print(f"wrote {design.n} x {design.k} design to {args.out}", file=sys.stderr)
    return 0


# -- run -------------------------------------------------------------------------


def _command(value, path):
    # a bad item is reported as the whole command, which says what a command must be
    if not (isinstance(value, list) and value and all(isinstance(c, str) for c in value)):
        fail(path, "a non-empty list of strings", value)
    return value


_EXPERIMENT = obj(
    {"factors": TEXT, "n": integer(), "seed": integer(), "chunk_size": integer(ge=1),
     "out_dir": TEXT,
     "runner": either(TEXT, obj({"command": Rule("a non-empty list of strings", _command)}))},
    {"runner_options": obj(optional={"seed": integer(), "noise_sigma": real(ge=0)}),
     "criterion": obj({"metric": TEXT, "epsilon": real(gt=0)}, {"floor": real(gt=0)})},
)


def _load_experiment(path) -> dict:
    """Read an experiment config and check it against ``_EXPERIMENT`` before it is used."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = check(json.load(fh), _EXPERIMENT, ConfigurationError, "experiment config")
    if "runner_options" in cfg and not isinstance(cfg["runner"], str):
        raise ConfigurationError(
            "experiment config 'runner_options' is read only by a built-in runner, "
            "not by a 'runner' command"
        )
    cfg.setdefault("runner_options", {})
    base = Path(path).parent
    factors_path = Path(cfg["factors"])
    if not factors_path.is_absolute():
        factors_path = base / factors_path
    if not factors_path.exists():
        raise ConfigurationError(f"factor document {factors_path} does not exist")
    cfg["factors"] = factors_path
    return cfg


def _write_campaign_csvs(design: Design, results: ResultTable, out_dir: Path) -> None:
    """Write ``design.csv``, ``results.csv`` and ``joined.csv`` in one pass.

    ``joined.csv`` holds the executed design rows beside their results,
    exactly as :meth:`ResultTable.to_csv` writes the table of both: a result
    column named like a factor takes that factor's place, and integer and
    bool factor columns are float64 there, as in any ``ResultTable``.  The
    three files go through one :func:`~simfarm.tables.write_csv_columns`
    call, so a column they share (the index, the status, a float or text
    factor, every result column) is formatted once per block; ``joined.csv``
    ends at the executed rows, its shortest columns.
    """
    k = results.n_rows
    # run_batches runs consecutive chunks from row 0, and pins each chunk's index.
    if not np.array_equal(results.index, np.arange(k)):
        raise ContractViolationError("executed rows are not a prefix of the design")
    factors = {f.name: design.columns[f.name] for f in design.factors}
    joined = {
        name: values[:k].astype(np.float64) if values.dtype.kind in "iub" else values
        for name, values in factors.items()
    }
    joined.update(results.columns)
    reserved = [results.index, np.where(results.status, STATUS_OK, STATUS_FAILED)]
    with (
        open(out_dir / "design.csv", "w", encoding="utf-8", newline="") as fd,
        open(out_dir / "results.csv", "w", encoding="utf-8", newline="") as fr,
        open(out_dir / "joined.csv", "w", encoding="utf-8", newline="") as fj,
    ):
        write_csv_columns(
            (fd, list(factors), list(factors.values())),
            (fr, [RESERVED_INDEX, RESERVED_STATUS, *results.columns],
             [*reserved, *results.columns.values()]),
            (fj, [RESERVED_INDEX, RESERVED_STATUS, *joined], [*reserved, *joined.values()]),
        )


def _run_campaign(factors, n: int, seed: int, chunk_size: int, runner, criterion,
                  out_dir: Path, report_name: str) -> tuple[Design, ResultTable, ExecutionReport]:
    """Design, run and write one campaign: the loop of ``run`` and ``casestudy``.

    Writes the three campaign CSVs and the execution report ``report_name``
    to ``out_dir``, made first so that a directory that cannot be made costs
    no runs.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    design = lhs_design(factors, n, seed)
    results, report = run_batches(design, runner, criterion, chunk_size)
    _write_campaign_csvs(design, results, out_dir)
    _write_json(report.to_dict(), out_dir / report_name)
    return design, results, report


def _cmd_run(args) -> int:
    cfg = _load_experiment(args.config)
    factors = load_factors(cfg["factors"])
    runner_cfg = cfg["runner"]
    if isinstance(runner_cfg, str):
        runner = get_runner(runner_cfg, **cfg["runner_options"])
    else:
        runner = SubprocessRunner(runner_cfg["command"])
    crit_cfg = cfg.get("criterion")
    criterion = mean_convergence_criterion(**crit_cfg) if crit_cfg is not None else None
    out_dir = Path(cfg["out_dir"])
    _, _, report = _run_campaign(factors, cfg["n"], cfg["seed"], cfg["chunk_size"], runner,
                                 criterion, out_dir, "report.json")
    print(
        f"executed {report.rows_executed} rows in {report.chunks_executed} chunks "
        f"({report.stop_reason}); outputs in {out_dir}",
        file=sys.stderr,
    )
    return 0


# -- analyze ---------------------------------------------------------------------


def _cmd_analyze_test(args) -> int:
    columns = _load_columns(args.data)
    groups = [_column(columns, name) for name in args.columns]
    report = run_hypothesis_test(groups, paired=args.paired, alpha=args.alpha)
    _print_json(report.to_dict(), args.out)
    return 0


def _cmd_analyze_fit(args) -> int:
    column = _column(_load_columns(args.data), args.column)
    report = fit_distributions(column, candidates=args.candidates, rescale=args.rescale)
    _print_json(report.to_dict(), args.out)
    return 0


def _cmd_analyze_pareto(args) -> int:
    columns = _load_columns(args.data)
    names, directions = [], []
    for spec in args.objectives:
        if ":" not in spec:
            raise InvalidArgumentError(
                f"objective {spec!r} must look like 'column:min' or 'column:max'"
            )
        name, _, direction = spec.rpartition(":")
        names.append(name)
        directions.append(direction)
    cols = [_column(columns, n) for n in names]
    points = np.column_stack([c.values for c in cols])
    result = pareto_front(points, directions)
    doc = result.to_dict()
    doc["objectives"] = names
    _print_json(doc, args.out)
    return 0


def _cmd_analyze_outliers(args) -> int:
    column = _column(_load_columns(args.data), args.column)
    report = detect_outliers(column, method=args.method, k=args.k)
    _print_json(report.to_dict(), args.out)
    return 0


def _cmd_analyze_eda(args) -> int:
    columns = _load_columns(args.data)
    report = eda_summary(columns)
    _print_json(report.to_dict(), args.out)
    if args.svg_dir:
        svg_dir = Path(args.svg_dir)
        svg_dir.mkdir(parents=True, exist_ok=True)
        for col in columns:
            if col.kind == "numeric" and len(col.non_missing()):
                emit_plot(
                    col.non_missing(),
                    "histogram",
                    svg_dir / f"hist_{col.name}.svg",
                    title=f"Histogram of {col.name}",
                    xlabel=col.name,
                )
        if report.pearson["names"]:
            emit_plot(
                np.asarray(report.pearson["matrix"]),
                "heatmap",
                svg_dir / "pearson_heatmap.svg",
                title="Pearson correlation",
                xlabel="column",
                ylabel="column",
            )
    return 0


# -- model -----------------------------------------------------------------------


def _split_features_target(columns: list[DataColumn], target: str, task: str):
    y_col = _column(columns, target)
    features = [c for c in columns if c.name != target]
    if not features:
        raise InvalidArgumentError("no feature columns besides the target")
    class_labels = None
    if task == "classification":
        if y_col.kind == "categorical":
            missing = np.flatnonzero(y_col.missing_mask())
            if missing.size:
                raise InvalidArgumentError(
                    f"classification target {target!r} must hold a label in every row; "
                    f"row {missing[0]} is empty"
                )
            labels, y = np.unique(y_col.values, return_inverse=True)
            class_labels = labels.tolist()
        else:
            y = class_codes(y_col.values, target)
    else:
        if y_col.kind != "numeric":
            raise InvalidArgumentError("regression target must be numeric")
        y = regression_targets(y_col.values, target)
    return features, y, class_labels


def _cmd_model_search(args) -> int:
    columns = _load_columns(args.data)
    features, y, class_labels = _split_features_target(columns, args.target, args.task)
    spec = default_spec(args.family, args.task)
    model, report = random_search_cv_table(
        spec,
        features,
        y,
        k=args.k,
        budget=args.budget,
        seed=args.seed,
        class_labels=class_labels,
    )
    save_model(model, args.out)
    if args.cv_report:
        _write_json(report.to_dict(), args.cv_report)
    best = report.best
    print(
        f"evaluated {len(report.evaluated)} configurations; best mean "
        f"{report.score_name} = {best.mean_score:.6g}; model saved to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_model_train(args) -> int:
    columns = _load_columns(args.data)
    features, y, class_labels = _split_features_target(columns, args.target, args.task)
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise InvalidArgumentError(f"--params must be a JSON object, got {args.params}")
    prep = fit_preprocessor(features)
    matrix = prep.transform(features).matrix
    spec = ModelSpec(family=args.family, task=args.task, params=params)
    model = train(spec, matrix, y, seed=args.seed, preprocessor=prep, class_labels=class_labels)
    save_model(model, args.out)
    print(f"trained {args.family} on {len(matrix)} rows; model saved to {args.out}", file=sys.stderr)
    return 0


def _cmd_model_predict(args) -> int:
    model = load_model(args.model)
    table = ResultTable.from_csv(args.data)
    columns = columns_from_table(table, ok_only=False)
    predictions = model.predict_table(columns)
    if model.task == "classification" and model.class_labels is not None:
        values = np.asarray(model.class_labels, dtype=object)[predictions.astype(np.int64)]
    else:
        values = np.asarray(predictions, dtype=np.float64)
    out = ResultTable(
        index=table.index,
        status=table.status,
        columns={"prediction": values},
    )
    out.to_csv(args.out)
    print(f"wrote {out.n_rows} predictions to {args.out}", file=sys.stderr)
    return 0


def _cmd_model_smote(args) -> int:
    columns = _load_columns(args.data)
    label_col = _column(columns, args.target)
    feature_cols = [c for c in columns if c.name != args.target]
    non_numeric = [c.name for c in feature_cols if c.kind != "numeric"]
    if non_numeric:
        raise InvalidArgumentError(
            f"smote needs numeric feature columns; non-numeric: {non_numeric}"
        )
    X = np.column_stack([c.values for c in feature_cols])
    labels = label_col.values
    minority = args.minority
    if label_col.kind == "numeric":
        minority = float(minority)
    result = smote(X, labels, minority, k=args.k, amount_pct=args.amount, seed=args.seed)
    cols: dict[str, np.ndarray] = {
        c.name: result.features[:, i] for i, c in enumerate(feature_cols)
    }
    cols[args.target] = result.labels
    out = ResultTable(
        index=np.arange(len(result.features), dtype=np.int64),
        status=np.ones(len(result.features), dtype=bool),
        columns=cols,
    )
    out.to_csv(args.out)
    note = f" ({result.note})" if result.note else ""
    print(f"wrote {out.n_rows} synthetic rows to {args.out}{note}", file=sys.stderr)
    return 0


# -- geo -------------------------------------------------------------------------


def _cmd_geo(args) -> int:
    if args.geo_cmd == "convert":
        print(format(convert_unit(args.value, args.from_unit, args.to_unit), ".12g"))
    elif args.geo_cmd == "to-ecef":
        e = geodetic_to_ecef(GeodeticCoord(args.lat, args.lon, args.alt))
        print(f"{e.x:.6f} {e.y:.6f} {e.z:.6f}")
    elif args.geo_cmd == "to-geodetic":
        g = ecef_to_geodetic(EcefCoord(args.x, args.y, args.z))
        print(f"{g.lat:.9f} {g.lon:.9f} {g.alt:.4f}")
    else:  # distance
        d, bearing = distance_bearing(
            GeodeticCoord(args.lat1, args.lon1), GeodeticCoord(args.lat2, args.lon2)
        )
        print(f"{d:.3f} {bearing:.6f}")
    return 0


# -- casestudy -------------------------------------------------------------------


def _cmd_casestudy(args) -> int:
    """The navigation experiment through :func:`_run_campaign`, then its fit and plots."""
    if args.n < 2:
        raise InvalidArgumentError(f"--n must be >= 2 for the time-fuel fit, got {args.n}")
    out_dir = Path(args.out)
    runner = get_runner("navsim", noise_sigma=args.noise, seed=args.seed)
    design, results, report = _run_campaign(
        simkit.navigation_factors(), args.n, args.seed, args.chunk_size, runner, None, out_dir,
        "execution_report.json")

    tof = results.column("time_of_flight")
    fuel = results.column("fuel_consumed")
    r = pearson_r(tof, fuel)
    slope = r * float(np.std(fuel, ddof=1) / np.std(tof, ddof=1))
    intercept = float(np.mean(fuel) - slope * np.mean(tof))
    doc = {
        "schema_version": 1,
        "n": args.n,
        "seed": args.seed,
        "model": dataclasses.asdict(simkit.calibrate(noise_sigma=args.noise)),
        "rows_executed": report.rows_executed,
        "linear_fit_time_vs_fuel": {
            "slope": slope,
            "intercept": intercept,
            "pearson_r": r,
            "r2": r * r,
        },
    }
    _write_json(doc, out_dir / "casestudy_report.json")

    emit_plot(
        (tof, fuel),
        "scatter",
        out_dir / "scatter_time_fuel.svg",
        title="Time of flight vs. fuel consumed",
        xlabel="time of flight [s]",
        ylabel="fuel consumed [lb]",
    )
    bins = 24

    def axis_bin(name: str, lo: float, hi: float) -> np.ndarray:
        return np.clip(((design.column(name) - lo) / (hi - lo) * bins).astype(int), 0, bins - 1)

    # each row's cell of the row-major (altitude, speed) grid
    cell = axis_bin("altitude", *simkit.ALTITUDE_RANGE_FT) * bins + axis_bin(
        "speed", *simkit.SPEED_RANGE_KT)
    # bincount adds in row order, so each cell's sum is a sequential one
    sums = np.bincount(cell, weights=fuel, minlength=bins * bins).reshape(bins, bins)
    counts = np.bincount(cell, minlength=bins * bins).reshape(bins, bins)
    with np.errstate(invalid="ignore"):
        grid = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    emit_plot(
        grid,
        "heatmap",
        out_dir / "heatmap_fuel.svg",
        title="Mean fuel consumed over the flight envelope",
        xlabel="speed [kt]",
        ylabel="altitude [ft]",
        extent=(*simkit.SPEED_RANGE_KT, *simkit.ALTITUDE_RANGE_FT),
    )
    print(
        f"case study complete: {report.rows_executed} runs, "
        f"R^2(time, fuel) = {r * r:.4f}; outputs in {out_dir}",
        file=sys.stderr,
    )
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> CommandParser:
    parser = CommandParser(prog="simfarm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CommandParser)

    p = sub.add_parser("doe", help="generate a Latin Hypercube design CSV")
    p.add_argument("--factors", required=True, help="factor-space JSON document")
    p.add_argument("--n", type=int, required=True, help="number of design rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output design CSV path")
    p.set_defaults(func=_cmd_doe)

    p = sub.add_parser("run", help="run an experiment config through a runner")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.set_defaults(func=_cmd_run)

    analyze = sub.add_parser("analyze", help="statistical analysis of a results CSV")
    asub = analyze.add_subparsers(dest="analyze_cmd", required=True, parser_class=CommandParser)

    p = asub.add_parser("test", help="auto-selected hypothesis test over column groups")
    p.add_argument("--data", required=True)
    p.add_argument("--columns", nargs="+", required=True, help="two or more numeric columns")
    p.add_argument("--paired", action="store_true")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.set_defaults(func=_cmd_analyze_test)

    p = asub.add_parser("fit", help="rank candidate distributions by K-S fit")
    p.add_argument("--data", required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--candidates", nargs="+",
                   choices=["normal", "uniform", "exponential", "chi_squared", "beta"])
    p.add_argument("--rescale", action="store_true",
                   help="min-max rescale into (0,1) before fitting beta")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze_fit)

    p = asub.add_parser("pareto", help="extract the Pareto front of objective columns")
    p.add_argument("--data", required=True)
    p.add_argument("--objectives", nargs="+", required=True,
                   help="objective specs like fuel:min range:max")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze_pareto)

    p = asub.add_parser("outliers", help="flag outliers in a numeric column")
    p.add_argument("--data", required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--method", choices=["zscore", "iqr"], default="iqr")
    p.add_argument("--k", type=float, default=None,
                   help="multiplier (default 3 for zscore, 1.5 for iqr)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze_outliers)

    p = asub.add_parser("eda", help="exploratory summary of every column")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--svg-dir", help="also write histogram/heatmap SVGs here")
    p.set_defaults(func=_cmd_analyze_eda)

    model = sub.add_parser("model", help="surrogate model training and prediction")
    msub = model.add_subparsers(dest="model_cmd", required=True, parser_class=CommandParser)

    p = msub.add_parser("search", help="random-search hyperparameters with k-fold CV")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--task", choices=["regression", "classification"], required=True)
    p.add_argument("--family", required=True, choices=MODEL_FAMILIES)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--budget", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--cv-report", help="also write the CV report JSON here")
    p.set_defaults(func=_cmd_model_search)

    p = msub.add_parser("train", help="train one configuration")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--task", choices=["regression", "classification"], required=True)
    p.add_argument("--family", required=True, choices=MODEL_FAMILIES)
    p.add_argument("--params", help='fixed hyperparameters as JSON, e.g. \'{"lam": 0.1}\'')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_model_train)

    p = msub.add_parser("predict", help="predict with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=_cmd_model_predict)

    p = msub.add_parser("smote", help="oversample a minority class")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True, help="label column")
    p.add_argument("--minority", required=True, help="minority class level")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--amount", type=int, default=100, help="percent, multiple of 100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_model_smote)

    geo = sub.add_parser("geo", help="unit conversions and coordinate transforms")
    gsub = geo.add_subparsers(dest="geo_cmd", required=True, parser_class=CommandParser)

    p = gsub.add_parser("convert", help="convert between units, e.g. 1 nm m")
    p.add_argument("value", type=float)
    p.add_argument("from_unit")
    p.add_argument("to_unit")
    p.set_defaults(func=_cmd_geo)

    p = gsub.add_parser("to-ecef", help="geodetic lat lon alt -> ECEF x y z")
    p.add_argument("lat", type=float)
    p.add_argument("lon", type=float)
    p.add_argument("alt", type=float)
    p.set_defaults(func=_cmd_geo)

    p = gsub.add_parser("to-geodetic", help="ECEF x y z -> geodetic lat lon alt")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("z", type=float)
    p.set_defaults(func=_cmd_geo)

    p = gsub.add_parser("distance", help="great-circle distance and bearing")
    p.add_argument("lat1", type=float)
    p.add_argument("lon1", type=float)
    p.add_argument("lat2", type=float)
    p.add_argument("lon2", type=float)
    p.set_defaults(func=_cmd_geo)

    p = sub.add_parser("navsim-worker", help=simkit.WORKER_HELP, description=simkit.WORKER_HELP)
    simkit.add_worker_arguments(p)

    case = sub.add_parser("casestudy", help="built-in end-to-end case studies")
    csub = case.add_subparsers(dest="case_cmd", required=True, parser_class=CommandParser)

    p = csub.add_parser("navigation", help="flight-fuel pipeline: design, run, analyze, plot")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--chunk-size", type=int, default=100)
    p.add_argument("--noise", type=float, default=0.0, help="lognormal noise sigma")
    p.set_defaults(func=_cmd_casestudy)

    return parser


@functools.cache
def _parser() -> CommandParser:
    """The parser, built on first use: a build costs milliseconds, a parse far less."""
    return build_parser()


def dispatch(argv=None) -> int:
    return run_command(_parser().parse_args(argv))


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
