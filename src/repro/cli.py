"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``train``   — train A3C on a simulated Atari game (optionally the
  LSTM variant), with checkpointing.  ``--trace out.json`` /
  ``--metrics out.jsonl`` capture a Chrome/Perfetto trace and metric
  snapshots through :mod:`repro.obs`.
* ``compare`` — the Figure 8/9 platform comparison.
* ``ablate``  — the Figure 10 configuration ablation.
* ``tables``  — print Tables 1-4 from the implemented models.
* ``card``    — the calibration model card with live anchor checks.
* ``sweep``   — the paper's per-game learning-rate tuning protocol.
* ``obs-report`` — summarise a previous run's ``--metrics`` /
  ``--trace`` files (utilisation, DRAM traffic, step rates, cycle
  attribution), optionally re-exporting a folded flamegraph profile;
  ``--run <id>`` renders a run directory instead (merged tables,
  per-worker breakdown, health events).
* ``bench``   — the modelled-snapshot gate: ``--baseline`` records IPS,
  cycle-attribution shares and the per-request latency distribution
  (HDR buckets + percentiles) of every scenario into
  ``BENCH_fa3c.json``; ``--check`` re-runs the scenarios and exits 1
  with a field-level diff when any rounded field differs.
* ``runs``    — run-directory tooling (:mod:`repro.obs.runlog`):
  ``runs list`` tabulates recorded runs, ``runs diff <a> <b>`` reports
  metric and scenario deltas between two runs.
* ``lint``    — invariant-aware static analysis (:mod:`repro.lint`):
  determinism, hot-path hygiene, seqlock protocol, fp32 reduction
  order, attribution coverage.  ``--strict`` exits non-zero on
  findings; ``--format json`` for machines.
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.ale import GAME_NAMES, make_game
from repro.core import A3CConfig, A3CTrainer, RecurrentA3CAgent
from repro.envs import make_atari_env
from repro.harness import format_curve, format_series, format_table
from repro.nn.checkpoint import save_checkpoint
from repro.nn.network import A3CNetwork
from repro.nn.network_lstm import lstm_a3c_network


def _build_trainer(args) -> A3CTrainer:
    num_actions = make_game(args.game).action_space.n

    def env_factory(agent_id: int):
        return make_atari_env(make_game(args.game),
                              max_episode_steps=args.episode_cap)

    config = A3CConfig(num_agents=args.agents, t_max=args.t_max,
                       learning_rate=args.learning_rate,
                       anneal_steps=args.anneal_steps,
                       max_steps=args.steps, seed=args.seed)
    if args.lstm:
        return A3CTrainer(env_factory,
                          lambda: lstm_a3c_network(num_actions),
                          config, agent_class=RecurrentA3CAgent,
                          platform=args.platform)
    return A3CTrainer(env_factory, lambda: A3CNetwork(num_actions),
                      config, platform=args.platform)


def _open_runlog(args, command: str, **meta):
    """A :class:`repro.obs.runlog.RunLog` for this invocation (or None).

    Disabled by ``--no-runlog``; the root honours ``--runs-root`` and
    the ``REPRO_RUNS_DIR`` environment override.
    """
    if getattr(args, "no_runlog", False):
        return None
    from repro.obs import runlog as runlog_mod

    return runlog_mod.RunLog.open(
        command, argv=list(sys.argv[1:]),
        platform=getattr(args, "platform", None),
        seed=getattr(args, "seed", None),
        root=getattr(args, "runs_root", None), **meta)


def cmd_train(args) -> int:
    observing = bool(args.trace or args.metrics or args.folded)
    if observing:
        from repro import obs
        obs.enable(reset=True)
    trainer = _build_trainer(args)
    variant = "A3C-LSTM" if args.lstm else "A3C"
    actors = args.actors
    if actors is None and args.serial:
        actors = "serial"
    runlog = _open_runlog(
        args, "train",
        config={"game": args.game, "steps": args.steps,
                "agents": args.agents, "t_max": args.t_max,
                "learning_rate": args.learning_rate,
                "actors": actors, "workers": args.workers,
                "lstm": args.lstm},
        topology={"variant": variant,
                  "params": trainer.server.params.names()})
    print(f"Training {variant} on {args.game}: {args.agents} agents, "
          f"{args.steps} steps, lr {args.learning_rate}"
          + (f", actors {actors}" if actors else "")
          + (f", platform {args.platform}" if args.platform else ""))
    result = trainer.train(
        threads=not args.serial,
        actors=actors,
        workers=args.workers,
        progress=lambda step, tracker: print(
            f"  step {step:>8}: episodes={len(tracker)} "
            f"mean={tracker.recent_mean(100):.1f}"),
        progress_interval=max(args.steps // 10, 1),
        runlog=runlog)
    steps, scores = result.tracker.curve()
    print(format_curve(steps, scores, args.game))
    print(f"{result.global_steps} steps, {result.episodes} episodes, "
          f"{result.steps_per_second:.0f} steps/s")
    if args.checkpoint:
        save_checkpoint(args.checkpoint, result.params,
                        optimizer=trainer.server.optimizer,
                        metadata={"game": args.game,
                                  "global_step": result.global_steps,
                                  "lstm": args.lstm})
        print(f"checkpoint written to {args.checkpoint}")
    if observing:
        _emit_observability(args)
    if runlog is not None:
        if observing:
            # After _emit_observability so the parent shard carries the
            # shadow-sim platform metrics alongside the trainer's.
            runlog.shard("main").flush(
                final=True, routines=result.routines,
                global_step=result.global_steps)
        runlog.finish(outcome="ok", global_steps=result.global_steps,
                      episodes=result.episodes,
                      train_wall_seconds=result.wall_seconds)
        print(f"run log: {runlog.path}")
    return 0


def _emit_observability(args) -> None:
    """Write the ``--trace`` / ``--metrics`` outputs for one run.

    Alongside the trainer's wall-clock metrics this runs a short shadow
    simulation of the selected ``--platform`` backend (default FA3C) at
    the same agent count / t_max, so the exported trace carries the
    accelerator-side sim lanes (per-CU stages, DRAM channels) and the
    metrics include per-CU busy fraction and per-channel DRAM bytes
    next to the trainer step-rate histograms.
    """
    from repro import backends, obs
    from repro.platforms import measure_ips

    num_actions = make_game(args.game).action_space.n
    topology = A3CNetwork(num_actions).topology()
    backend = backends.create(args.platform or backends.DEFAULT_BACKEND,
                              topology)
    measure_ips(backend, args.agents,
                t_max=args.t_max, routines_per_agent=8)
    meta = {"game": args.game, "agents": args.agents,
            "t_max": args.t_max, "steps": args.steps,
            "platform": backend.registry_name}
    if args.metrics:
        samples = obs.metrics().write_jsonl(args.metrics, meta=meta)
        print(f"metrics: {samples} samples -> {args.metrics}")
    if args.trace:
        spans = obs.write_chrome_trace(args.trace, obs.tracer(),
                                       meta=meta)
        print(f"trace: {spans} spans -> {args.trace} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.folded:
        from repro.obs.prof import AttributionReport, write_folded
        report = AttributionReport.from_registry(obs.metrics())
        lines = write_folded(report, args.folded)
        print(f"folded profile: {lines} stacks -> {args.folded} "
              f"(open in speedscope.app or flamegraph.pl)")
    print()
    print(obs.registry_report(obs.metrics()))


def _obs_report_run(args) -> int:
    """Render a run directory: merged tables, workers, health events."""
    from repro import obs
    from repro.obs import health as health_mod
    from repro.obs import runlog as runlog_mod

    try:
        run_dir = runlog_mod.resolve_run(args.run, root=args.runs_root)
        merged = runlog_mod.merge_run(run_dir)
    except (OSError, ValueError) as exc:
        print(f"obs-report: {exc}")
        return 2
    events = health_mod.health_events(merged)
    runlog_mod.write_health(run_dir, events)
    if args.folded:
        from repro.obs.prof import AttributionReport, write_folded
        report = AttributionReport(
            runlog_mod.aggregate_rows(merged.rows))
        if report.has_fpga or report.has_gpu:
            lines = write_folded(report, args.folded)
            print(f"folded profile: {lines} stacks -> {args.folded}")
        else:
            print("obs-report: no attribution metrics in the run; "
                  "--folded skipped")
    print(obs.run_report(merged, events, latency=args.latency))
    return 0


def cmd_obs_report(args) -> int:
    from repro import obs

    if args.run:
        return _obs_report_run(args)
    if not args.metrics and not args.trace:
        print("obs-report needs --run, or --metrics and/or --trace")
        return 2
    try:
        rows = obs.load_jsonl(args.metrics) if args.metrics else []
        doc = obs.load_chrome_trace(args.trace) if args.trace else None
    except OSError as exc:
        print(f"obs-report: cannot read {exc.filename}: {exc.strerror}")
        return 2
    if args.folded:
        from repro.obs.prof import AttributionReport, write_folded
        report = AttributionReport(rows)
        if not (report.has_fpga or report.has_gpu):
            print("obs-report: no attribution metrics in the input; "
                  "--folded needs a run recorded with profiling on")
            return 2
        lines = write_folded(report, args.folded)
        print(f"folded profile: {lines} stacks -> {args.folded}")
    print(obs.obs_report(rows, doc, latency=args.latency))
    return 0


def cmd_backends_list(args) -> int:
    """Tabulate every registered backend with its capability surface."""
    del args
    from repro import backends

    def flag(value: bool) -> str:
        return "yes" if value else "no"

    rows = []
    for name in backends.names():
        backend = backends.create(name)
        caps = backend.capabilities
        rows.append({
            "backend": name,
            "display": backend.name,
            "kind": caps.kind,
            "precision": caps.precision,
            "sync": flag(caps.needs_sync),
            "bootstrap": flag(caps.needs_bootstrap),
            "batched": flag(caps.batched_inference),
            "tracing": flag(caps.supports_tracing),
        })
    print(format_table(rows))
    return 0


def cmd_bench(args) -> int:
    runlog = _open_runlog(args, "bench", ablation=args.ablation or "")
    if args.ablation:
        code = _cmd_bench_ablation(args, runlog)
    else:
        code = _cmd_bench_modelled(args, runlog)
    if runlog is not None:
        runlog.finish(outcome={0: "ok", 1: "regression"}.get(
            code, "error"))
        print(f"run log: {runlog.path}")
    return code


def _cmd_bench_ablation(args, runlog=None) -> int:
    """Accuracy vs modelled IPS vs modelled energy per precision."""
    from repro.power.ablation import precision_ablation

    rows = precision_ablation()
    print(format_table(rows, title="precision ablation (FA3C, 8 agents)"))
    if runlog is not None:
        runlog.update(ablation={"precision": rows})
    return 0


def _cmd_bench_modelled(args, runlog=None) -> int:
    """Run the selected scenarios; write and/or exactly diff the snapshot.

    Exit 0 when every field equals the snapshot, 1 when any differs and
    2 on a usage error (an unknown or empty selection, an unreadable
    snapshot).
    """
    import os

    from repro.obs.prof import baseline as bench

    path = args.file or bench.DEFAULT_BASELINE
    subset = bool(args.scenarios or args.platform)
    known = bench.scenario_names()
    unknown = [name for name in args.scenarios or () if name not in known]
    names = [name for name in bench.scenario_names(backend=args.platform)
             if not args.scenarios or name in args.scenarios]
    if unknown or not names:
        what = (f"unknown scenario(s) {', '.join(unknown)}" if unknown
                else "no scenario matches the selection")
        print(f"bench: {what}; known: {', '.join(known)}")
        return 2
    base = None
    if args.check or (args.baseline and subset and os.path.exists(path)):
        try:
            base = bench.load_snapshot(path)
        except (OSError, ValueError) as exc:
            print(f"bench: cannot load baseline {path}: {exc}")
            return 2

    scenarios: typing.Dict[str, typing.Dict[str, object]] = {}
    for name in names:
        entry, report = bench.run_scenario(name)
        scenarios[name] = entry
        buckets = " ".join(f"{bucket}={share:.3f}" for bucket, share
                           in entry["buckets"].items())
        print(f"{name}: ips={entry['ips']:.1f} "
              f"p99={entry['latency']['p99_us']}us {buckets}")
        if args.report_dir:
            _write_bench_report(args.report_dir, name, report)
    if runlog is not None:
        runlog.update(scenarios=scenarios)

    if args.baseline:
        # A subset refresh replaces only the selected records.
        kept = base["scenarios"] if subset and base is not None else {}
        bench.write_snapshot({"version": bench.SNAPSHOT_VERSION,
                              "scenarios": {**kept, **scenarios}}, path)
        print(f"baseline: {len(scenarios)} scenarios -> {path}")
    if args.check:
        recorded = base["scenarios"]
        if subset:
            recorded = {name: recorded[name] for name in names
                        if name in recorded}
        diff = bench.diff_scenarios(recorded, scenarios)
        if diff:
            print(f"\nPERF GATE FAILED: {len(diff)} field(s) differ "
                  f"from {path}:")
            for line in diff:
                print(f"  - {line}")
            print("If the model change is intentional, refresh the "
                  "snapshot with `repro bench --baseline` and commit "
                  "the diff.")
            return 1
        print(f"\nperf gate OK: {len(scenarios)} scenarios equal {path}")
    return 0


def _write_bench_report(report_dir: str, name: str, report) -> None:
    """Per-scenario attribution artifacts for the CI perf-gate upload."""
    import os

    from repro.obs.prof import write_folded

    os.makedirs(report_dir, exist_ok=True)
    write_folded(report, os.path.join(report_dir, f"{name}.folded"))
    sections = []
    if report.has_fpga:
        sections.append(format_table(
            report.layer_rows(), title=f"{name}: cycle attribution by "
                                       "layer/stage"))
        sections.append(format_table(
            report.cu_rows(), title=f"{name}: cycle attribution by CU"))
    if report.has_gpu:
        sections.append(format_table(
            report.gpu_rows(), title=f"{name}: GPU time attribution"))
    with open(os.path.join(report_dir, f"{name}.txt"), "w",
              encoding="utf-8") as handle:
        handle.write("\n\n".join(sections) + "\n")


def cmd_runs_list(args) -> int:
    from repro.obs import runlog as runlog_mod

    rows = runlog_mod.list_runs(args.runs_root)
    if not rows:
        print(f"(no runs under "
              f"{runlog_mod.runs_root(args.runs_root)})")
        return 0
    for row in rows:
        if row["wall_seconds"] is None:
            row["wall_seconds"] = "-"
    print(format_table(rows, title="Recorded runs"))
    return 0


def cmd_runs_diff(args) -> int:
    from repro.obs import runlog as runlog_mod

    try:
        diff = runlog_mod.diff_runs(args.a, args.b,
                                    root=args.runs_root)
    except (OSError, ValueError) as exc:
        print(f"runs diff: {exc}")
        return 2
    print(f"runs diff: a={diff['a']}  b={diff['b']}  (delta = b - a)")
    if diff["scenarios"]:
        print()
        print(format_table(diff["scenarios"],
                           title="Scenario deltas"))
    if diff["metrics"]:
        print()
        print(format_table(diff["metrics"],
                           title="Metric deltas (worker label "
                                 "aggregated out)"))
    if diff.get("latency"):
        print()
        print(format_table(diff["latency"],
                           title="Latency deltas (per segment, ms)"))
    if not diff["scenarios"] and not diff["metrics"]:
        print("(no comparable scenarios or metrics between the runs)")
    return 0


def cmd_lint(args) -> int:
    from repro import lint
    from repro.lint import report as lint_report

    try:
        config = lint.load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"lint: cannot load config: {exc}")
        return 2
    paths = args.paths or config.paths
    # The cache is on for incremental runs (or when --cache names a
    # path explicitly) and off otherwise, so a plain `repro lint`
    # leaves no state behind; --no-cache wins over everything.
    cache_path: typing.Optional[str] = args.cache
    if cache_path is None and args.changed:
        cache_path = config.cache_path
    if args.no_cache:
        cache_path = None
    try:
        run = lint.lint_paths(paths, config, select=args.select,
                              changed_only=args.changed,
                              cache_path=cache_path)
    except KeyError as exc:
        print(f"lint: {exc.args[0]}")
        return 2
    if args.why:
        finding = run.find(args.why)
        if finding is None:
            print(f"lint: no finding with id {args.why!r} in this run "
                  f"({len(run.findings)} finding(s) present)")
            return 2
        print(lint_report.render_why(finding))
        return 0
    if args.format == "json":
        print(lint_report.render_json(run))
    else:
        print(lint_report.render_text(run, verbose=args.verbose))
    if run.errors:
        return 2
    if args.strict and run.findings:
        return 1
    return 0


def cmd_compare(args) -> int:
    from repro import backends
    from repro.platforms import measure_ips, sweep_agents
    from repro.power import PowerModel

    topology = A3CNetwork(num_actions=6).topology()
    platforms = [backends.create(name, topology)
                 for name in ("fa3c-fpga", "a3c-cudnn", "ga3c-tf",
                              "a3c-tf-gpu", "a3c-tf-cpu")]
    agents = tuple(args.agents_sweep)
    series = {}
    for platform in platforms:
        results = sweep_agents(platform, agents, routines_per_agent=30)
        series[results[0].platform] = [round(r.ips) for r in results]
    print(format_series(agents, series,
                        title="Figure 8: IPS vs number of agents"))
    results16 = [measure_ips(p, 16, routines_per_agent=25)
                 for p in platforms]
    print()
    print(format_table(PowerModel().figure9(results16),
                       columns=["platform", "watts", "ips_per_watt",
                                "relative_power", "relative_efficiency"],
                       title="Figure 9: power and efficiency at n=16"))
    return 0


def cmd_ablate(args) -> int:
    from repro import backends
    from repro.platforms import sweep_agents

    topology = A3CNetwork(num_actions=6).topology()
    agents = tuple(args.agents_sweep)
    variants = {
        "FA3C": backends.create("fa3c-fpga", topology, cu_pairs=1),
        "FA3C-Alt1": backends.create("fa3c-alt1", topology, cu_pairs=1),
        "FA3C-Alt2": backends.create("fa3c-alt2", topology, cu_pairs=1),
        "FA3C-SingleCU": backends.create("fa3c-single-cu", topology,
                                         cu_pairs=1),
    }
    series = {}
    for name, platform in variants.items():
        results = sweep_agents(platform, agents, routines_per_agent=25)
        series[name] = [round(r.ips) for r in results]
    print(format_series(agents, series,
                        title="Figure 10: FA3C configurations "
                              "(1 CU pair)"))
    return 0


def cmd_tables(args) -> int:
    del args
    from repro.analysis import line_buffer_table, traffic_table
    from repro.fpga.resources import resource_table

    topology = A3CNetwork(num_actions=6).topology()
    print(format_table(topology.table1_rows(),
                       title="Table 1: A3C DNN layers"))
    print()
    print(format_table(traffic_table(topology).rows(),
                       title="Table 2: off-chip traffic per routine"))
    print()
    rows = []
    for layer, plans in line_buffer_table(topology).items():
        for plan in plans:
            rows.append({"layer": layer, "stage": plan.stage,
                         "port": plan.port, "width": plan.width,
                         "count": plan.count})
    print(format_table(rows, title="Table 3: line buffers"))
    print()
    print(format_table(resource_table(),
                       title="Table 4: VU9P resources"))
    return 0


def cmd_card(args) -> int:
    del args
    from repro.analysis import model_card_rows

    topology = A3CNetwork(num_actions=6).topology()
    print(format_table(model_card_rows(topology),
                       title="Calibration model card (anchors from the "
                             "paper, checks computed live)"))
    return 0


def cmd_sweep(args) -> int:
    from repro.core.sweep import sweep_learning_rates

    num_actions = make_game(args.game).action_space.n
    config = A3CConfig(num_agents=args.agents, t_max=args.t_max,
                       max_steps=args.steps, anneal_steps=10 ** 9,
                       seed=args.seed)
    runlog = _open_runlog(
        args, "sweep",
        config={"game": args.game, "steps": args.steps,
                "agents": args.agents, "t_max": args.t_max,
                "rates": list(args.rates), "seeds": args.seeds})
    result = sweep_learning_rates(
        lambda i: make_atari_env(make_game(args.game),
                                 max_episode_steps=args.episode_cap),
        lambda: A3CNetwork(num_actions), config,
        learning_rates=args.rates, seeds=tuple(range(args.seeds)),
        threads=True, platform=args.platform)
    print(format_table(result.rows(),
                       title=f"Learning-rate sweep on {args.game} "
                             f"({args.steps} steps/run)"))
    best = result.best
    print(f"best: lr={best.learning_rate} (seed {best.seed}), "
          f"final score {best.final_score:.1f}")
    if runlog is not None:
        runlog.finish(outcome="ok", best_rate=best.learning_rate,
                      best_seed=best.seed,
                      best_final_score=best.final_score)
        print(f"run log: {runlog.path}")
    return 0


def _add_runlog_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-runlog", action="store_true",
                        help="do not record this invocation under the "
                             "runs directory")
    parser.add_argument("--runs-root", default=None,
                        help="run-directory root (default: runs/, or "
                             "$REPRO_RUNS_DIR)")


def build_parser() -> argparse.ArgumentParser:
    from repro import backends

    backend_names = list(backends.names())
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FA3C (ASPLOS 2019) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train A3C on a simulated game")
    train.add_argument("--game", choices=GAME_NAMES, default="breakout")
    train.add_argument("--steps", "--max-steps", dest="steps",
                       type=int, default=20_000)
    train.add_argument("--agents", type=int, default=4)
    train.add_argument("--t-max", type=int, default=5)
    train.add_argument("--learning-rate", type=float, default=7e-4)
    train.add_argument("--anneal-steps", type=int, default=100_000_000)
    train.add_argument("--episode-cap", type=int, default=1500)
    train.add_argument("--seed", type=int, default=1)
    train.add_argument("--lstm", action="store_true",
                       help="use the A3C-LSTM variant")
    train.add_argument("--serial", action="store_true",
                       help="deterministic round-robin agents")
    train.add_argument("--actors", choices=["threads", "procs", "serial"],
                       default=None,
                       help="actor execution model (default: threads, "
                            "or serial when --serial is given)")
    train.add_argument("--platform", choices=backend_names,
                       default=None,
                       help="compute backend from the repro.backends "
                            "registry (default: fa3c-fpga)")
    train.add_argument("--workers", type=int, default=None,
                       help="worker processes for --actors procs "
                            "(default: one per agent)")
    train.add_argument("--checkpoint", default=None,
                       help="write final parameters to this .npz")
    train.add_argument("--trace", default=None,
                       help="write a Chrome/Perfetto trace JSON here")
    train.add_argument("--metrics", default=None,
                       help="write metric snapshots (JSONL) here")
    train.add_argument("--folded", default=None,
                       help="write a folded flamegraph profile here")
    _add_runlog_arguments(train)
    train.set_defaults(func=cmd_train)

    compare = sub.add_parser("compare",
                             help="Figure 8/9 platform comparison")
    compare.add_argument("--agents-sweep", type=int, nargs="+",
                         default=[1, 2, 4, 8, 16, 32])
    compare.set_defaults(func=cmd_compare)

    ablate = sub.add_parser("ablate", help="Figure 10 ablation")
    ablate.add_argument("--agents-sweep", type=int, nargs="+",
                        default=[1, 2, 4, 8, 16])
    ablate.set_defaults(func=cmd_ablate)

    tables = sub.add_parser("tables", help="print Tables 1-4")
    tables.set_defaults(func=cmd_tables)

    card = sub.add_parser("card",
                          help="print the calibration model card")
    card.set_defaults(func=cmd_card)

    sweep = sub.add_parser("sweep", help="learning-rate sweep")
    sweep.add_argument("--game", choices=GAME_NAMES, default="breakout")
    sweep.add_argument("--steps", type=int, default=10_000)
    sweep.add_argument("--agents", type=int, default=4)
    sweep.add_argument("--t-max", type=int, default=5)
    sweep.add_argument("--episode-cap", type=int, default=1500)
    sweep.add_argument("--seeds", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--rates", type=float, nargs="+",
                       default=[1e-4, 7e-4, 3e-3])
    sweep.add_argument("--platform", choices=backend_names,
                       default=None,
                       help="compute backend from the repro.backends "
                            "registry (default: fa3c-fpga)")
    _add_runlog_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    obs_report = sub.add_parser(
        "obs-report",
        help="summarise --metrics/--trace files from a previous run")
    obs_report.add_argument("--metrics", default=None,
                            help="metrics JSONL from `train --metrics`")
    obs_report.add_argument("--trace", default=None,
                            help="Chrome trace JSON from `train --trace`")
    obs_report.add_argument("--folded", default=None,
                            help="re-export the metrics' cycle "
                                 "attribution as a folded profile here")
    obs_report.add_argument("--run", default=None,
                            help="render a run directory instead: a run "
                                 "id (or unique fragment) under the "
                                 "runs root, or a path")
    obs_report.add_argument("--runs-root", default=None,
                            help="run-directory root (default: runs/, "
                                 "or $REPRO_RUNS_DIR)")
    obs_report.add_argument("--latency", action="store_true",
                            help="include the latency tables: per-"
                                 "segment percentiles (queue vs "
                                 "compute) and end-to-end routine "
                                 "latency")
    obs_report.set_defaults(func=cmd_obs_report)

    bench = sub.add_parser(
        "bench",
        help="modelled-snapshot gate over the scenario matrix")
    bench.add_argument("--baseline", action="store_true",
                       help="write the modelled snapshot to --file "
                            "(with --scenarios/--platform, replace "
                            "only those records)")
    bench.add_argument("--check", action="store_true",
                       help="diff against --file; exit 1 when any "
                            "field differs")
    bench.add_argument("--file", default=None,
                       help="snapshot path (default: BENCH_fa3c.json)")
    bench.add_argument("--scenarios", nargs="+", default=None,
                       help="subset of scenario names to run")
    bench.add_argument("--platform", choices=backend_names,
                       default=None,
                       help="only run scenarios of this backend "
                            "(registry name, e.g. fa3c-fpga)")
    bench.add_argument("--report-dir", default=None,
                       help="write per-scenario attribution tables and "
                            "folded profiles here")
    bench.add_argument("--ablation", choices=["precision"],
                       default=None,
                       help="run an ablation study instead of the gate "
                            "(precision: accuracy vs IPS vs energy per "
                            "datapath precision)")
    _add_runlog_arguments(bench)
    bench.set_defaults(func=cmd_bench)

    backends_cmd = sub.add_parser(
        "backends", help="inspect the execution-backend registry")
    backends_sub = backends_cmd.add_subparsers(dest="backends_command",
                                               required=True)
    backends_list = backends_sub.add_parser(
        "list", help="tabulate registered backends and capabilities")
    backends_list.set_defaults(func=cmd_backends_list)

    runs = sub.add_parser(
        "runs", help="list and diff recorded run directories")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="tabulate every run under the runs root")
    runs_list.add_argument("--runs-root", default=None,
                           help="run-directory root (default: runs/, "
                                "or $REPRO_RUNS_DIR)")
    runs_list.set_defaults(func=cmd_runs_list)
    runs_diff = runs_sub.add_parser(
        "diff", help="metric/scenario deltas between two runs (b - a)")
    runs_diff.add_argument("a", help="baseline run id or path")
    runs_diff.add_argument("b", help="comparison run id or path")
    runs_diff.add_argument("--runs-root", default=None,
                           help="run-directory root (default: runs/, "
                                "or $REPRO_RUNS_DIR)")
    runs_diff.set_defaults(func=cmd_runs_diff)

    lint = sub.add_parser(
        "lint",
        help="invariant-aware static analysis (repro.lint)")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files/directories to lint (default: the "
                           "configured paths, normally src)")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero when any finding survives "
                           "pragma suppression")
    lint.add_argument("--select", nargs="+", default=None,
                      metavar="RULE",
                      help="run only these rules (default: the "
                           "configured select list)")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text",
                      help="report format (default: text)")
    lint.add_argument("--config", default=None,
                      help="pyproject.toml to read [tool.repro-lint] "
                           "from (default: nearest one upward from .)")
    lint.add_argument("--changed", action="store_true",
                      help="incremental run: re-analyse only files "
                           "whose content changed since the cached "
                           "run, plus their reverse-dependency cone")
    lint.add_argument("--cache", default=None, metavar="PATH",
                      help="on-disk result cache (default with "
                           "--changed: the configured cache-path, "
                           "normally .repro-lint-cache.json)")
    lint.add_argument("--no-cache", action="store_true",
                      help="never read or write the result cache")
    lint.add_argument("--why", default=None, metavar="ID",
                      help="explain one finding from this run by its "
                           "id (prefix accepted): message plus the "
                           "full call/import chain")
    lint.add_argument("--verbose", action="store_true",
                      help="also list pragma-skipped files and "
                           "per-rule timing")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
