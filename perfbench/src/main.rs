//! The repository benchmark: runs one named workload through the workspace's
//! public API for a fixed time, checks every output, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_matrix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` the run alternates untraced and traced
//! passes, prints the per-layer metrics and writes the spans to
//! `perfbench/work/`. See `perfbench/README.md`.

mod cells;
mod metrics;
mod paper_matrix;
mod serve_cache;
mod stats;
mod trace;

use ar_experiments::ExperimentScale;
use ar_system::SimReport;
use ar_types::config::NamedConfig;
use ar_types::Json;
use ar_workloads::WorkloadKind;
use cells::{Cell, FirstReports};
use metrics::{Spec, TracedPass, Values};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <paper_matrix|serve_cache> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Seed of the cell and request shuffles when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x5eed_9a9e;

/// Where the benchmark writes cache directories and traces, relative to the
/// checkout root it runs from.
const WORK_DIR: &str = "perfbench/work";

/// Fewest untraced (and, in a traced run, traced) passes a run makes, however
/// short `--seconds` is.
const MIN_PASSES: usize = 3;

/// One workload of the benchmark.
pub trait Bench {
    /// Sets up and runs one pass, recording every correctness check.
    fn pass(&mut self, checks: &mut Checks) -> Pass;
    /// The first report of every simulated cell.
    fn first_reports(&self) -> &FirstReports;
    /// The workload's fixed shape, printed with the results.
    fn describe(&self) -> String;
}

/// What one pass measured, in host time. Keyed timings carry the cell (or
/// request) they belong to, so a run can take each one's best over passes.
#[derive(Debug, Default)]
pub struct Pass {
    /// `(cell id, seconds)` building each simulation (for the sweep server:
    /// one entry, binding the server).
    pub setup: Vec<(u32, f64)>,
    /// The pass without its set-up.
    pub wall_s: f64,
    /// Simulated network cycles of the pass.
    pub sim_cycles: u64,
    /// `(cell id, seconds)` spent simulating each cell (for the sweep server:
    /// each cold request).
    pub sim_s: Vec<(u32, f64)>,
    /// `(operation id, milliseconds)` of every operation a user waits for:
    /// building and running a cell (for the sweep server: a matrix request).
    pub op_ms: Vec<(u32, f64)>,
    /// Peak pooled in-flight packets over the pass's untraced runs.
    pub peak_packets: usize,
    /// The sweep server's `(cache_hits, runs)` counters after the pass.
    pub server: Option<(u64, u64)>,
}

impl Pass {
    fn add_cell(&mut self, id: u32, run: &cells::CellRun) {
        self.setup.push((id, run.build_s));
        self.sim_s.push((id, run.run_s));
        self.sim_cycles += run.report.network_cycles;
        self.op_ms.push((id, (run.build_s + run.run_s) * 1e3));
        self.peak_packets = self.peak_packets.max(run.peak_packets.unwrap_or(0));
    }

    /// Total set-up time of the pass.
    fn setup_s(&self) -> f64 {
        self.setup.iter().map(|&(_, s)| s).sum()
    }
}

/// Operations attempted and failed over the whole run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation; an `Err` is a failure, reported on stderr.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("perfbench: check failed: {why}");
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed =
            Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => {
                    parsed.seed = match value.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => value.parse(),
                    }
                    .map_err(|_| bad("an unsigned integer"))?;
                }
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                        return Err(bad("a non-negative number of seconds"));
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    };
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if parsed.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        Ok(parsed)
    }
}

/// The paper-machine ARF-tid pagerank cell whose event-kernel and lock-step
/// reports must agree in a traced run.
fn lockstep_cell() -> Cell {
    let scale = ExperimentScale::Full;
    Cell {
        id: u32::MAX,
        workload: Arc::new(WorkloadKind::Pagerank),
        config: NamedConfig::ArfTid,
        base: scale.system_config(),
        size: scale.size_class(),
    }
}

/// Encodes and decodes every first report through the JSON layer, inside
/// spans, and fails any report that does not come back identical.
fn json_probe(first: &FirstReports, checks: &mut Checks) {
    trace::span("perfbench.json_probe", None, || {
        for (&id, report) in &first.reports {
            let text = trace::span("ar-types.json.encode", Some(id), || report.to_json().render());
            let decoded = trace::span("ar-types.json.decode", Some(id), || {
                Json::parse(&text).ok().and_then(|doc| SimReport::from_json(&doc).ok())
            });
            checks.record(if decoded.as_ref() == Some(report) {
                Ok(())
            } else {
                Err(format!(
                    "{}/{}: JSON round trip changed the report",
                    report.workload, report.config_label
                ))
            });
        }
    });
}

/// Runs passes until `seconds` have gone by (and at least [`MIN_PASSES`]
/// ran). A traced run alternates untraced and traced passes.
fn measure(
    bench: &mut dyn Bench,
    seconds: f64,
    traced_run: bool,
    checks: &mut Checks,
) -> (Vec<Pass>, Vec<TracedPass>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let trace_this = traced_run && untraced.len() > traced.len();
        let pass = if trace_this {
            trace::set_enabled(true);
            let pass = trace::span("perfbench.pass", None, || bench.pass(checks));
            json_probe(bench.first_reports(), checks);
            trace::set_enabled(false);
            traced.push(TracedPass { pass, spans: trace::take() });
            &traced[traced.len() - 1].pass
        } else {
            untraced.push(bench.pass(checks));
            &untraced[untraced.len() - 1]
        };
        eprintln!(
            "perfbench: pass traced={trace_this} setup_s={:.4} wall_s={:.4}",
            pass.setup_s(),
            pass.wall_s
        );
        let enough = untraced.len() >= MIN_PASSES && (!traced_run || traced.len() >= MIN_PASSES);
        if enough && Instant::now() >= deadline {
            return (untraced, traced);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Writes the traced passes' spans as JSON lines after a header line that
/// records the run.
fn write_trace(path: &Path, header: &str, traced: &[TracedPass]) -> std::io::Result<()> {
    let mut all = Vec::new();
    for t in traced {
        let offset = all.len();
        all.extend(t.spans.iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    std::fs::write(path, format!("{header}\n{}", trace::to_json_lines(&all)))
}

/// The per-layer values of a traced run as a JSON array, each with its unit,
/// better direction and the end-to-end metric it should move.
fn layer_table(header_json: &str, values: &Values) -> String {
    let rows: Vec<String> = metrics::PER_LAYER
        .iter()
        .map(|s| {
            format!(
                r#"  {{"name": "{}", "value": {}, "unit": "{}", "better": "{}", "moves": "{}"}}"#,
                s.name,
                values.get(s.name).copied().filter(|v| v.is_finite()).unwrap_or(0.0),
                s.unit,
                s.better.name(),
                s.moves.describe()
            )
        })
        .collect();
    format!("{{\"header\": {header_json},\n\"layers\": [\n{}\n]}}\n", rows.join(",\n"))
}

fn result_line(checks: &Checks, specs: &[Spec], values: &Values) -> String {
    let mut metrics = String::new();
    for (i, spec) in specs.iter().enumerate() {
        let value = values.get(spec.name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            r#"{sep}"{}": {{"value": {value}, "unit": "{}"}}"#,
            spec.name, spec.unit
        );
    }
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
        checks.failed == 0,
        checks.attempted,
        checks.failed
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("cannot create {WORK_DIR}: {e} (run from the repository root)");
        return ExitCode::FAILURE;
    }
    let mut bench: Box<dyn Bench> = match args.workload.as_str() {
        "paper_matrix" => Box::new(paper_matrix::PaperMatrix::new(args.seed)),
        "serve_cache" => Box::new(serve_cache::ServeCache::new(args.seed, work_dir.clone())),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);

    let mut checks = Checks::default();
    if args.trace {
        let cell = lockstep_cell();
        checks.record(if cells::kernels_agree(&cell) {
            Ok(())
        } else {
            Err("event and lock-step kernels disagree on paper-machine ARF-tid pagerank"
                .to_string())
        });
    }
    let (untraced, traced) = measure(bench.as_mut(), args.seconds, args.trace, &mut checks);

    let op_samples = untraced.first().map_or(0, |p| p.op_ms.len());
    let header = format!(
        "workload={} seed={} nproc={nproc} {} untraced_passes={} traced_passes={} op_ms_samples={op_samples}",
        args.workload,
        args.seed,
        bench.describe(),
        untraced.len(),
        traced.len(),
    );
    let (specs, values) = if args.trace {
        let mut values = metrics::host_time(&traced, &untraced, bench.first_reports());
        values.extend(metrics::simulated(bench.first_reports()));
        let header_json = format!(r#"{{"run": "{header}"}}"#);
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let spans = work_dir.join(format!("trace-{stem}.jsonl"));
        let layers = work_dir.join(format!("layers-{stem}.json"));
        let written = write_trace(&spans, &header_json, &traced)
            .and_then(|()| std::fs::write(&layers, layer_table(&header_json, &values)));
        match written {
            Ok(()) => eprintln!("perfbench: wrote {} and {}", spans.display(), layers.display()),
            Err(e) => eprintln!("perfbench: cannot write the trace: {e}"),
        }
        (metrics::PER_LAYER, values)
    } else {
        (metrics::END_TO_END, metrics::end_to_end(&untraced, peak_rss_mib()))
    };
    println!("perfbench: {header}");
    println!("{}", result_line(&checks, specs, &values));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = parse(&[
            "--workload",
            "serve_cache",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_cache", 7, 2.5, true)
        );
        let a = parse(&["--workload", "paper_matrix", "--seed", "0x5eed9a9e"]).expect("valid");
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(!a.trace);
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "x", "--seconds", "-1"]).is_err());
        assert!(parse(&["--workload", "x", "--bogus", "1"]).is_err());
    }

    #[test]
    fn result_line_lists_every_metric_in_order() {
        let checks = Checks { attempted: 3, failed: 1 };
        let values = Values::from([("wall_s", 1.25), ("setup_s", f64::NAN)]);
        let line = result_line(&checks, &metrics::END_TO_END[..2], &values);
        assert_eq!(
            line,
            r#"{"correct": false, "attempted": 3, "failed": 1, "metrics": {"setup_s": {"value": 0, "unit": "s"}, "wall_s": {"value": 1.25, "unit": "s"}}}"#
        );
        assert!(Json::parse(&line).is_ok());
    }
}
