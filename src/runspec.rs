//! [`RunSpec`]: one description of a run, `ps2-run`'s argument string as a
//! value (`lr --preset kddb --workers 4 --servers 4 --iters 4 --seed 1`).
//! [`RunSpec::from_args`] is `ps2-run`'s parser, [`FromStr`] splits on
//! whitespace and calls it, and [`Display`] prints the canonical string: the
//! workload, then every key whose value differs from its default, in one
//! fixed order. The golden table keys its rows by that string, so each row
//! is a runnable command.
//!
//! The parser learns which keys a workload reads by planning the run, each
//! value read through one accessor that marks it; a key the workload never
//! reads is an error naming it. Defaults have one source: a left-out `--lr`
//! or `--fraction` is the library config's own value (`LrHyper`,
//! `SvmConfig`, `FmConfig`, `ModeConfig`, `LbfgsConfig`), and a left-out
//! serve override is the preset's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::{self, Display};
use std::str::FromStr;

use ps2_core::{run_ps2_with, ClusterSpec, Ps2Context, SimBuilder, SimCtx, SimReport, SimTime};
use ps2_data::{presets, CorpusGen, GraphGen, RandomWalks, SparseDatasetGen};
use ps2_ml::deepwalk::{train_deepwalk, DeepWalkBackend, DeepWalkConfig};
use ps2_ml::fm::{train_fm, FmConfig};
use ps2_ml::gbdt::{train_gbdt, GbdtBackend, GbdtConfig};
use ps2_ml::hyper::GbdtHyper;
use ps2_ml::lbfgs::{train_lbfgs, LbfgsConfig};
use ps2_ml::lda::{train_lda, LdaBackend, LdaConfig};
use ps2_ml::lr::{train_lr, train_lr_mllib_star, LrBackend, LrConfig};
use ps2_ml::modes::{run_mode_with, ModeAlgo, ModeConfig};
use ps2_ml::optim::Optimizer;
use ps2_ml::serve::{run_serve, serve_spec, ServeSummary, SERVE_PRESETS};
use ps2_ml::svm::{train_svm, SvmConfig};
use ps2_ml::TrainingTrace;
use ps2_ps::ConsistencyMode;

/// The order `Display` prints keys in: the data, the algorithm's knobs, the
/// cluster and the run's length, then the rates.
const KEY_ORDER: &str = "preset rows dim nnz docs vocab topics vertices walks embedding-dim \
    trees depth bins factors backend optimizer mode straggler-ms agents users-per-agent \
    duration-ms workers servers iters seed lr fraction";

/// One run: a workload and its non-default keys. Every key was read and
/// parsed by the workload when the spec was built, so a `RunSpec` always
/// runs.
#[derive(Clone, Debug)]
pub struct RunSpec {
    workload: String,
    /// `(key, value)` in [`KEY_ORDER`], each value rendered back from its
    /// parsed type.
    keys: Vec<(String, String)>,
}

/// What [`RunSpec::run`] hands back. A serving run's trace carries only a
/// label (serving has no loss curve) and its summary is in `serve`.
pub struct RunOutput {
    pub trace: TrainingTrace,
    pub report: SimReport,
    pub serve: Option<ServeSummary>,
}

impl RunSpec {
    /// Parse `ps2-run`'s arguments: a workload word, then `--key value`
    /// pairs. A leading flag means `serve`, the one workload whose presets
    /// name it. A key the workload never reads is an error naming it.
    pub fn from_args(argv: &[String]) -> Result<RunSpec, String> {
        let (workload, rest) = match argv.first() {
            None => return Err("no workload given".to_string()),
            Some(first) if first.starts_with("--") => ("serve", argv),
            Some(word) => (word.as_str(), &argv[1..]),
        };
        let keys = Keys::parse(rest)?;
        // Planning reads every key the run uses; the run itself is dropped.
        let _ = plan(workload, &keys)?;
        let read = keys.read.into_inner();
        let unread: Vec<String> = keys
            .given
            .keys()
            .filter(|k| !read.contains_key(*k))
            .map(|k| format!("--{k}"))
            .collect();
        if !unread.is_empty() {
            return Err(format!("this run does not read {}", unread.join(", ")));
        }
        let mut keys: Vec<(String, String)> = read
            .into_iter()
            .filter_map(|(k, v)| Some((k, v?)))
            .collect();
        keys.sort_by_key(|(k, _)| KEY_ORDER.split_whitespace().position(|o| o == k));
        let workload = workload.to_string();
        Ok(RunSpec { workload, keys })
    }

    /// The `--preset` the spec names, if any.
    pub fn preset(&self) -> Option<&str> {
        let (_, preset) = self.keys.iter().find(|(k, _)| k == "preset")?;
        Some(preset)
    }

    /// Run the spec on `builder` (tracing, telemetry, …), with the builder's
    /// seed set to the spec's.
    pub fn run(&self, builder: SimBuilder) -> RunOutput {
        let (given, read) = (self.keys.iter().cloned().collect(), RefCell::default());
        let keys = Keys { given, read };
        let run = plan(&self.workload, &keys).expect("a RunSpec holds only keys its workload read");
        run(builder)
    }
}

impl FromStr for RunSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<RunSpec, String> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        RunSpec::from_args(&argv)
    }
}

impl Display for RunSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.workload)?;
        for (k, v) in &self.keys {
            write!(f, " --{k} {v}")?;
        }
        Ok(())
    }
}

/// The `--key value` pairs of one spec, each marked when the plan reads it.
struct Keys {
    given: BTreeMap<String, String>,
    /// Every key read so far, with its value rendered back from the parsed
    /// type, or `None` where that equals the default.
    read: RefCell<BTreeMap<String, Option<String>>>,
}

impl Keys {
    fn parse(argv: &[String]) -> Result<Keys, String> {
        let mut given = BTreeMap::new();
        for pair in argv.chunks(2) {
            let arg = &pair[0];
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
            let value = pair
                .get(1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            if given.insert(name.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{name} given twice"));
            }
        }
        let read = RefCell::default();
        Ok(Keys { given, read })
    }

    /// The key's value, or `default` when it is left out. A key with no
    /// default (`--preset`, `--mode`) reads as the empty string.
    fn get<T: FromStr + Display + PartialEq>(&self, name: &str, default: T) -> Result<T, String> {
        let Some(raw) = self.given.get(name) else {
            return Ok(default);
        };
        let value: T = raw
            .parse()
            .map_err(|_| format!("bad value for --{name}: '{raw}'"))?;
        let canonical = (value != default).then(|| value.to_string());
        self.read.borrow_mut().insert(name.to_string(), canonical);
        Ok(value)
    }

    /// The choice the key names; the first is the default.
    fn pick<T: Copy>(&self, name: &str, choices: &[(&str, T)]) -> Result<T, String> {
        let want = self.get(name, choices[0].0.to_string())?;
        match choices.iter().find(|(n, _)| *n == want) {
            Some(&(_, choice)) => Ok(choice),
            None => {
                let names: Vec<&str> = choices.iter().map(|(n, _)| *n).collect();
                unknown(&format!("--{name}"), &want, &names.join("|"))
            }
        }
    }
}

fn unknown<T>(what: &str, got: &str, want: &str) -> Result<T, String> {
    Err(format!("unknown {what} '{got}' (want {want})"))
}

/// A planned run, waiting for its simulator builder.
type Runner = Box<dyn FnOnce(SimBuilder) -> RunOutput>;

/// Read every key `workload` uses and hand back the run itself, unrun.
fn plan(workload: &str, k: &Keys) -> Result<Runner, String> {
    let seed = k.get("seed", 42u64)?;
    if workload == "serve" {
        return serve(k, seed);
    }
    let (workers, servers) = (k.get("workers", 20usize)?, k.get("servers", 20usize)?);
    // One data partition per worker.
    let cluster = ClusterSpec { workers, servers };
    let iters = || k.get("iters", 30usize);
    let sparse = || sparse(k, workers, seed);
    Ok(match workload {
        // The consistency-mode path bypasses the dataflow engine: a
        // Spark-free pull → gradient → push loop gated by the mode (BSP
        // barrier, SSP staleness bound, or free-running async).
        "lr" | "svm" if k.given.contains_key("mode") => {
            let mode = ConsistencyMode::parse(&k.get("mode", String::new())?)?;
            let algo = if workload == "lr" {
                ModeAlgo::Lr
            } else {
                ModeAlgo::Svm
            };
            let mut cfg = ModeConfig::new(sparse()?, workers, servers, mode);
            cfg.iterations = iters()? as u32;
            cfg.learning_rate = k.get("lr", cfg.learning_rate)?;
            cfg.straggler_slowdown = SimTime::from_millis(k.get("straggler-ms", 0u64)?);
            cfg.seed = seed;
            Box::new(move |builder| trained(run_mode_with(builder, &cfg, algo)))
        }
        "lr" => {
            let optimizer = k.pick(
                "optimizer",
                &[
                    ("sgd", Optimizer::Sgd),
                    ("adam", Optimizer::Adam),
                    ("adagrad", Optimizer::Adagrad),
                    ("rmsprop", Optimizer::RmsProp),
                    ("ftrl", Optimizer::Ftrl),
                ],
            )?;
            // `None` is the MLlib* loop, which has no `LrBackend`.
            let backend = k.pick(
                "backend",
                &[
                    ("ps2", Some(LrBackend::Ps2Dcv)),
                    ("ps", Some(LrBackend::PsPullPush)),
                    ("spark", Some(LrBackend::SparkDriver)),
                    ("petuum", Some(LrBackend::PetuumStyle)),
                    ("distml", Some(LrBackend::DistmlStyle)),
                    ("mllib-star", None),
                ],
            )?;
            let mut cfg = LrConfig::new(sparse()?, optimizer, iters()?);
            cfg.hyper.learning_rate = k.get("lr", cfg.hyper.learning_rate)?;
            cfg.hyper.mini_batch_fraction = k.get("fraction", cfg.hyper.mini_batch_fraction)?;
            on_cluster(cluster, seed, move |ctx, ps2| match backend {
                Some(b) => train_lr(ctx, ps2, &cfg, b),
                None => train_lr_mllib_star(ctx, ps2, &cfg),
            })
        }
        "svm" => {
            let mut cfg = SvmConfig::new(sparse()?, iters()?);
            cfg.learning_rate = k.get("lr", cfg.learning_rate)?;
            on_cluster(cluster, seed, move |ctx, ps2| train_svm(ctx, ps2, &cfg))
        }
        "lbfgs" => {
            let mut cfg = LbfgsConfig::new(sparse()?, iters()?);
            cfg.batch_fraction = k.get("fraction", cfg.batch_fraction)?;
            on_cluster(cluster, seed, move |ctx, ps2| train_lbfgs(ctx, ps2, &cfg))
        }
        "fm" => {
            let mut cfg = FmConfig::new(sparse()?, k.get("factors", 8u32)?, iters()?);
            cfg.learning_rate = k.get("lr", cfg.learning_rate)?;
            on_cluster(cluster, seed, move |ctx, ps2| train_fm(ctx, ps2, &cfg))
        }
        "gbdt" => {
            let backend = k.pick(
                "backend",
                &[
                    ("ps2", GbdtBackend::Ps2Dcv),
                    ("xgboost", GbdtBackend::XgboostStyle),
                ],
            )?;
            let (rows, dim) = (k.get("rows", 10_000u64)?, k.get("dim", 500u64)?);
            let dataset = SparseDatasetGen::new(rows, dim, k.get("nnz", 20u32)?, workers, seed);
            let cfg = GbdtConfig {
                dataset: dataset.continuous(),
                hyper: GbdtHyper {
                    num_trees: k.get("trees", 10usize)?,
                    max_depth: k.get("depth", 5usize)?,
                    histogram_bins: k.get("bins", 50usize)?,
                },
            };
            on_cluster(cluster, seed, move |ctx, ps2| {
                train_gbdt(ctx, ps2, &cfg, backend).0
            })
        }
        "lda" => {
            let backend = k.pick(
                "backend",
                &[
                    ("ps2", LdaBackend::Ps2Dcv),
                    ("petuum", LdaBackend::PetuumStyle),
                    ("glint", LdaBackend::GlintStyle),
                    ("spark", LdaBackend::SparkDriver),
                ],
            )?;
            let corpus = match k.get("preset", String::new())?.as_str() {
                "" => {
                    let (docs, vocab) = (k.get("docs", 4_000u64)?, k.get("vocab", 8_000u32)?);
                    CorpusGen::new(docs, vocab, 16, 60, workers, seed)
                }
                "pubmed" => presets::pubmed(workers, seed).gen,
                "app" => presets::app(workers, seed).gen,
                other => return unknown("corpus preset", other, "pubmed|app"),
            };
            let cfg = LdaConfig {
                corpus,
                topics: k.get("topics", 50u32)?,
                iterations: iters()?,
            };
            on_cluster(cluster, seed, move |ctx, ps2| {
                train_lda(ctx, ps2, &cfg, backend)
            })
        }
        "deepwalk" => {
            let backend = k.pick(
                "backend",
                &[
                    ("ps2", DeepWalkBackend::Ps2Dcv),
                    ("ps", DeepWalkBackend::PsPullPush),
                ],
            )?;
            let named = |p: presets::GraphPreset| (p.gen, p.num_walks);
            let (graph, walks) = match k.get("preset", String::new())?.as_str() {
                "" => (
                    GraphGen {
                        vertices: k.get("vertices", 2_000u32)?,
                        edges_per_vertex: 4,
                        seed,
                    },
                    k.get("walks", 4_000usize)?,
                ),
                "graph1" => named(presets::graph1(seed)),
                "graph2" => named(presets::graph2(seed)),
                other => return unknown("graph preset", other, "graph1|graph2"),
            };
            let cfg = DeepWalkConfig {
                vertices: graph.vertices,
                embedding_dim: k.get("embedding-dim", 100u64)?,
                batch_per_worker: 128,
                iterations: iters()?,
                seed,
            };
            on_cluster(cluster, seed, move |ctx, ps2| {
                let walks =
                    RandomWalks::sample(&graph.generate(), walks, presets::WALK_LEN, seed ^ 1);
                train_deepwalk(ctx, ps2, &cfg, &walks, backend)
            })
        }
        other => return unknown("workload", other, "lr|deepwalk|gbdt|lda|svm|lbfgs|fm|serve"),
    })
}

/// A sparse dataset split over `parts` workers: a named preset, or the
/// `--rows`/`--dim`/`--nnz` shape.
fn sparse(k: &Keys, parts: usize, seed: u64) -> Result<SparseDatasetGen, String> {
    Ok(match k.get("preset", String::new())?.as_str() {
        "" => {
            let (rows, dim) = (k.get("rows", 20_000u64)?, k.get("dim", 100_000u64)?);
            SparseDatasetGen::new(rows, dim, k.get("nnz", 20u32)?, parts, seed)
        }
        "kddb" => presets::kddb(parts, seed).gen,
        "kdd12" => presets::kdd12(parts, seed).gen,
        "ctr" => presets::ctr(parts, seed).gen,
        "gender" => presets::gender(parts, seed).gen,
        // The serving presets go with the serve workload.
        other => return unknown("sparse preset", other, "kddb|kdd12|ctr|gender"),
    })
}

/// A training job on the dataflow engine plus PS fleet.
fn on_cluster<F>(cluster: ClusterSpec, seed: u64, job: F) -> Runner
where
    F: FnOnce(&mut SimCtx, &mut Ps2Context) -> TrainingTrace + Send + 'static,
{
    Box::new(move |builder| trained(run_ps2_with(builder.seed(seed), cluster, job)))
}

fn trained((trace, report): (TrainingTrace, SimReport)) -> RunOutput {
    RunOutput {
        trace,
        report,
        serve: None,
    }
}

/// The serving scenario: geometry comes from the serve preset, with
/// load-shape keys as overrides.
fn serve(k: &Keys, seed: u64) -> Result<Runner, String> {
    let names = SERVE_PRESETS.join("|");
    let preset = k.get("preset", String::new())?;
    if preset.is_empty() {
        return Err(format!("serving needs --preset ({names})"));
    }
    let Some(mut spec) = serve_spec(&preset) else {
        return unknown("serve preset", &preset, &names);
    };
    spec.servers = k.get("servers", spec.servers)?;
    spec.agents = k.get("agents", spec.agents)?;
    spec.users_per_agent = k.get("users-per-agent", spec.users_per_agent)?;
    let duration_ms = k.get("duration-ms", spec.duration.as_nanos() / 1_000_000)?;
    spec.duration = SimTime::from_millis(duration_ms);
    Ok(Box::new(move |builder| {
        let (summary, report) = run_serve(builder.seed(seed), &spec);
        RunOutput {
            trace: TrainingTrace::new(format!("{} serving", spec.name)),
            report,
            serve: Some(summary),
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_golden_spec_round_trips_byte_for_byte() {
        let golden = include_str!("../tests/golden_runs.txt").lines();
        let keys = golden.filter_map(|l| Some(l.split_once(" | ")?.0));
        // 62 rows: the `alerts` row and six protocol probes are keyed by name.
        let specs: Vec<&str> = keys.filter(|key| key.contains(" --")).collect();
        assert_eq!(specs.len(), 55);
        for s in specs {
            let spec: RunSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s);
        }
    }

    #[test]
    fn display_drops_defaults_and_orders_keys() {
        let spec: RunSpec = "--seed 1 --servers 8 --preset serve-kddb".parse().unwrap();
        assert_eq!(spec.to_string(), "serve --preset serve-kddb --seed 1");
        let spec: RunSpec = "lr --lr 0.6180 --iters 4 --backend ps2 --preset kddb"
            .parse()
            .unwrap();
        assert_eq!(spec.to_string(), "lr --preset kddb --iters 4");
    }

    /// Each bad spec fails with an error naming what is wrong: an unknown
    /// key, one the workload never reads, or a malformed argument list.
    #[test]
    fn bad_specs_fail_naming_the_fault() {
        for (s, named) in [
            ("lr --iters 1 --metric-json x.json", "--metric-json"),
            ("lr --mode bsp --mini-batch 64", "--mini-batch"),
            ("svm --optimizer adam", "--optimizer"),
            ("svm --backend ps", "--backend"),
            ("lr --preset kddb --rows 100", "--rows"),
            ("gbdt --iters 3", "--iters"),
            ("serve --preset serve-kddb --workers 4", "--workers"),
            ("", "no workload"),
            ("tsne", "tsne"),
            ("lr --iters", "--iters needs a value"),
            ("lr --iters x", "--iters"),
            ("lr stray", "stray"),
            ("lr --seed 1 --seed 2", "--seed given twice"),
            ("lr --backend glint", "glint"),
            ("lr --preset serve-kddb", "serve-kddb"),
            ("lr --mode ssp:x", "ssp:x"),
            ("serve --seed 1", "serving needs --preset"),
        ] {
            let err = s.parse::<RunSpec>().unwrap_err();
            assert!(err.contains(named), "{s}: {err}");
        }
    }
}
